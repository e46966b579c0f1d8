"""Closed inverse of the tridiagonal Toeplitz matrix and fast solvers.

The inverse has semiseparable structure: with lo = min(i, j) and
hi = max(i, j), entry (i, j) of the inverse equals

    (-q)^(i-j) * U_{lo-1}(x) * U_{n-hi}(x) / (s * U_n(x)),

one Chebyshev sequence read forwards and backwards; a kernel holds
U_{-1}..U_n once (U_{-1} = 0).  Its discrete Wronskian is constant,
U_k U_{n-k} - U_{k-1} U_{n-k-1} = U_n, which is validated when a kernel
is built.  Everything is carried as sign plus log-magnitude, which keeps
entries computable for orders in the thousands even when the Chebyshev
values themselves would overflow.

``apply_inverse`` exploits the rank-one triangles with a prefix and a
suffix sum (O(n)).  Each sum is split into its positive and negative terms,
and each part runs as one vectorised log-space scan
(``np.logaddexp.accumulate``); an (n, k) block of right-hand sides shares
one pass.  Entry, dense and apply paths follow one overflow policy: a
nonzero value whose log-magnitude exceeds the float range raises
OverflowError.  ``thomas_solve`` is the classical elimination baseline and
the only routine here that does not need a*c > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheby import ScaledValue, _LOG_MAX, _log1mexp, _u_sequence_arrays
from .core import SymmetrisedForm, TriToeplitzSpec, _check_int, symmetrise
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NearSingularPivot,
    NotInGappedRegime,
    SingularMatrix,
    TriToeplitzError,
)

__all__ = [
    "GreenKernel",
    "DecayEnvelope",
    "build_kernel",
    "inverse_entry",
    "inverse_dense",
    "apply_inverse",
    "thomas_solve",
    "decay_envelope",
    "decay_bound",
    "hyperbolic_inverse_entry",
]

_WRONSKIAN_TOL = 1e-9
_BACKWARD_TOL = 1e-9
_MOST_NEGATIVE = np.finfo(float).min


@dataclass(frozen=True, eq=False)
class GreenKernel:
    """Assembled inverse kernel of one matrix.

    ``u_signs/u_logs`` hold U_{k-1}(x) for k = 0..n+1 in scaled form, with
    U_{-1} = 0 (sign 0, log -inf) in front; sign arrays contain -1, 0, +1
    as floats.  Entry (i, j) reads indices lo and n+1-hi.
    ``wronskian`` equals U_n(x); ``invertible`` is a queried
    flag, entry and solve operations raise SingularMatrix when it is
    False.
    """

    n: int
    s: float
    q: float
    x: float
    u_signs: np.ndarray
    u_logs: np.ndarray
    wronskian: ScaledValue
    invertible: bool
    wronskian_residual: float
    singular_tol: float


@dataclass(frozen=True)
class DecayEnvelope:
    """Geometric envelope of the symmetrised inverse for x > 1.

    Entry (i, j) of the symmetrised inverse is bounded by
    prefactor * eta^(-|i-j|).
    """

    eta: float
    prefactor: float


def build_kernel(spec: TriToeplitzSpec, singular_tol: float = 1e-12) -> GreenKernel:
    """Assemble the scaled sequence U_{-1..n}, Wronskian and invertibility flag.

    The matrix counts as invertible when |U_n(x)| exceeds
    singular_tol * max(1, |U_{n-1}(x)|); the entry/apply operations on a
    kernel below that raise SingularMatrix.  Construction raises it when
    the flag passes but the Wronskian self-check fails.
    """
    if not singular_tol > 0:
        raise TriToeplitzError(f"singular_tol must be positive, got {singular_tol!r}")
    form = symmetrise(spec)
    n = spec.n
    usigns, ulogs = _u_sequence_arrays(n, form.x)
    # index k holds U_{k-1}, k = 0..n+1; U_{-1} := 0 covers both boundaries
    u_signs = np.concatenate(([0.0], usigns))
    u_logs = np.concatenate(([-np.inf], ulogs))

    wronskian = ScaledValue(int(usigns[n]), float(ulogs[n]))
    log_threshold = math.log(singular_tol) + max(0.0, float(ulogs[n - 1]))
    invertible = wronskian.sign != 0 and wronskian.log_mag > log_threshold

    residual = math.nan
    if invertible:
        # U_k U_{n-k} - U_{k-1} U_{n-k-1} = U_n for k = 0..n
        rev_signs, rev_logs = u_signs[::-1] * wronskian.sign, u_logs[::-1]
        w_log = wronskian.log_mag
        t1 = u_signs[1:] * rev_signs[:-1] * np.exp(u_logs[1:] + rev_logs[:-1] - w_log)
        t2 = u_signs[:-1] * rev_signs[1:] * np.exp(u_logs[:-1] + rev_logs[1:] - w_log)
        residual = float(np.max(np.abs(t1 - t2 - 1.0)))
        if residual > _WRONSKIAN_TOL:
            raise SingularMatrix(
                f"kernel self-check failed: Wronskian residual {residual:.3e} "
                f"exceeds {_WRONSKIAN_TOL:g}; log|U_n(x)| = "
                f"{wronskian.log_mag:.6g} against the threshold {log_threshold:.6g}"
            )
    return GreenKernel(
        n=n,
        s=form.s,
        q=form.q,
        x=form.x,
        u_signs=u_signs,
        u_logs=u_logs,
        wronskian=wronskian,
        invertible=invertible,
        wronskian_residual=residual,
        singular_tol=singular_tol,
    )


def _require_invertible(kernel: GreenKernel) -> None:
    if not kernel.invertible:
        raise SingularMatrix(
            f"|U_n(x)| = exp({kernel.wronskian.log_mag!r}) is below the "
            f"singularity tolerance {kernel.singular_tol!r}"
        )


def _entry_sign_log(kernel: GreenKernel, lo, hi, diff):
    """Sign and log-magnitude of (-q)^diff U_{lo-1} U_{n-hi} / (s U_n).

    Works on scalar indices and elementwise on index arrays; callers
    exponentiate the result themselves.
    """
    sign_neg_q = -1.0 if kernel.q > 0 else 1.0
    back = kernel.n + 1 - hi
    sign = (
        kernel.u_signs[lo]
        * kernel.u_signs[back]
        * kernel.wronskian.sign
        * sign_neg_q**diff
    )
    log_mag = (
        kernel.u_logs[lo]
        + kernel.u_logs[back]
        - kernel.wronskian.log_mag
        - math.log(kernel.s)
        + diff * math.log(abs(kernel.q))
    )
    return sign, log_mag


def inverse_entry(kernel: GreenKernel, i: int, j: int) -> float:
    """Entry (i, j) of the inverse, 1-based.

    This is (-q)^(i-j) U_{lo-1} U_{n-hi} / (s U_n) with lo = min(i, j)
    and hi = max(i, j): the Chebyshev indices are symmetric while the q
    power keeps the signed exponent i-j.  Raises OverflowError when the
    plain value leaves the float range.
    """
    _require_invertible(kernel)
    i = _check_int(i, "index", 1, kernel.n, IndexOutOfRange)
    j = _check_int(j, "index", 1, kernel.n, IndexOutOfRange)
    sign, log_mag = _entry_sign_log(kernel, min(i, j), max(i, j), i - j)
    if sign == 0.0:
        return 0.0
    if log_mag > _LOG_MAX:
        raise OverflowError(
            f"inverse entry ({i},{j}) has log-magnitude {log_mag:.6g}, "
            "beyond the float range"
        )
    return float(sign * math.exp(log_mag))


def inverse_dense(kernel: GreenKernel) -> np.ndarray:
    """Materialise the full inverse (O(n^2)); agrees with inverse_entry."""
    _require_invertible(kernel)
    n = kernel.n
    idx = np.arange(1, n + 1)
    signs, logs = _entry_sign_log(
        kernel,
        np.minimum.outer(idx, idx),
        np.maximum.outer(idx, idx),
        np.subtract.outer(idx, idx),
    )
    if np.any((signs != 0.0) & (logs > _LOG_MAX)):
        raise OverflowError("some inverse entries exceed the float range")
    with np.errstate(under="ignore"):
        return signs * np.exp(np.where(signs == 0.0, -np.inf, logs))


def _scan_scaled(term_signs, term_logs):
    """Running sums of sign*exp(log) down axis 0, in scaled form.

    Positive and negative terms are summed apart in log space by
    np.logaddexp.accumulate, an associative prefix scan.  Returns arrays
    (acc, scale) where the partial sum through row k is
    acc[k] * exp(scale[k]); scale is the larger of the two log-sums, so
    |acc| <= 1 and the scan never overflows.  Until the first nonzero
    term, acc is 0 and scale is -inf.
    """
    negative = term_signs < 0
    # zero terms carry log -inf, so they can join either part; a NaN term
    # joins the positive one and makes every later partial sum NaN
    pos = np.where(negative, -np.inf, term_logs)
    neg = np.where(negative, term_logs, -np.inf)
    np.logaddexp.accumulate(pos, axis=0, out=pos)
    np.logaddexp.accumulate(neg, axis=0, out=neg)
    scale = np.maximum(pos, neg)
    # a finite shift makes the empty rows exp(-inf) - exp(-inf) = 0, not NaN
    shift = np.maximum(scale, _MOST_NEGATIVE)
    pos -= shift
    neg -= shift
    acc = np.exp(pos, out=pos)
    acc -= np.exp(neg, out=neg)
    return acc, scale


def _scaled_terms(row_signs, row_logs, acc, scale):
    """Rows of row_sign * exp(row_log) * acc * exp(scale), one per rhs column.

    Overflow is decided on each term's whole log-magnitude, log|acc|
    included, so a term is refused exactly when its value would leave the
    float range, as in inverse_entry and inverse_dense.
    """
    log_mag = row_logs[:, None] + scale
    log_mag += np.log(np.abs(acc))
    if (log_mag > _LOG_MAX).any():
        raise OverflowError("some solution terms exceed the float range")
    terms = np.copysign(np.exp(log_mag, out=log_mag), acc, out=log_mag)
    terms *= row_signs[:, None]
    return terms


def apply_inverse(kernel: GreenKernel, rhs) -> np.ndarray:
    """Solve A x = rhs through the semiseparable kernel in O(n).

    rhs is a vector of length n or an (n, k) block of k right-hand sides;
    the result has the shape of rhs, and a block gives, column for column,
    exactly what the columns give one by one.  Row i of the solution is

        (-q)^i / (s U_n) * (U_(n-i) P_i + U_(i-1) S_(i+1)),

    with the prefix sums P_i = sum_(j<=i) U_(j-1) (-q)^(-j) rhs_j and the
    suffix sums S_i = sum_(j>=i) U_(n-j) (-q)^(-j) rhs_j, both run by
    _scan_scaled down all columns at once.  Deterministic for fixed input.
    Raises OverflowError when a term of the solution, or the solution
    itself, leaves the float range.
    """
    _require_invertible(kernel)
    n = kernel.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise DimensionMismatch(
            f"expected rhs of shape ({n},) or ({n}, k), got shape {rhs.shape}"
        )
    cols = rhs[:, None] if rhs.ndim == 1 else rhs

    i = np.arange(1, n + 1)
    # signs of -(-q)^i: the minus cancels in x and only signs its exact zeros
    q_signs = -np.power(-1.0 if kernel.q > 0 else 1.0, i)
    q_logs = i * math.log(abs(kernel.q))
    # U_(i-1) and U_(n-i): the one sequence read forwards and backwards
    fwd_signs, fwd_logs = kernel.u_signs[1 : n + 1], kernel.u_logs[1 : n + 1]
    bwd_signs, bwd_logs = kernel.u_signs[n:0:-1], kernel.u_logs[n:0:-1]

    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        rhs_signs = np.sign(cols)
        rhs_logs = np.log(np.abs(cols))
        p_acc, p_scale = _scan_scaled(
            (fwd_signs * q_signs)[:, None] * rhs_signs,
            (fwd_logs - q_logs)[:, None] + rhs_logs,
        )
        # S_n, S_(n-1), ..., S_2: the suffix sums, scanned from the last row up
        s_acc, s_scale = _scan_scaled(
            ((bwd_signs * q_signs)[:, None] * rhs_signs)[:0:-1],
            ((bwd_logs - q_logs)[:, None] + rhs_logs)[:0:-1],
        )
        del rhs_signs, rhs_logs  # n*k each: free them before the combine
        base_signs = q_signs * kernel.wronskian.sign
        base_logs = q_logs - math.log(kernel.s) - kernel.wronskian.log_mag
        x = _scaled_terms(bwd_signs * base_signs, bwd_logs + base_logs, p_acc, p_scale)
        x[:-1] += _scaled_terms(
            fwd_signs[:-1] * base_signs[:-1],
            fwd_logs[:-1] + base_logs[:-1],
            s_acc[::-1],
            s_scale[::-1],
        )
    if np.isinf(x).any():
        raise OverflowError("some solution entries exceed the float range")
    return x.reshape(rhs.shape)


def thomas_solve(spec: TriToeplitzSpec, rhs, pivot_tol: float = 1e-300) -> np.ndarray:
    """Classical unpivoted tridiagonal elimination; O(n).

    Works for any spec (symmetrisable or not) but raises
    NearSingularPivot as soon as a running pivot magnitude drops below
    pivot_tol times the row scale; there is no pivoting fallback.  It also
    raises it when the answer misses the backward-error bound
    ||A x - rhs|| <= 1e-9 (row_scale ||x|| + ||rhs||) in max norms.
    """
    n = spec.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise DimensionMismatch(f"expected rhs of length {n}, got shape {rhs.shape}")
    row_scale = spec.row_scale()
    threshold = pivot_tol * row_scale
    a, b, c = spec.a, spec.b, spec.c

    # the loops run on Python floats and lists, several times faster than
    # numpy scalars and with the same IEEE double arithmetic
    w = [0.0] * n
    z = rhs.tolist()
    piv = b
    if abs(piv) <= threshold:
        raise NearSingularPivot(f"pivot {piv!r} at row 1 below tolerance")
    w[0] = c / piv
    z[0] /= piv
    for k in range(1, n):
        piv = b - a * w[k - 1]
        if abs(piv) <= threshold:
            raise NearSingularPivot(f"pivot {piv!r} at row {k + 1} below tolerance")
        w[k] = c / piv
        z[k] = (z[k] - a * z[k - 1]) / piv
    # back-substitution overwrites z with the solution
    for k in range(n - 2, -1, -1):
        z[k] -= w[k] * z[k + 1]
    x = np.array(z)

    resid = b * x - rhs
    resid[1:] += a * x[:-1]
    resid[:-1] += c * x[1:]
    resid_norm = abs(resid).max()
    scale = row_scale * abs(x).max() + abs(rhs).max()
    if resid_norm > _BACKWARD_TOL * scale:  # NaN compares False: NaN rhs, NaN x
        raise NearSingularPivot(
            f"backward error {resid_norm / scale:.3e} exceeds {_BACKWARD_TOL:g}"
        )
    return x


def _logsinh(t: float) -> float:
    """log(sinh(t)) for t > 0, stable for both tiny and huge t."""
    return t + _log1mexp(2.0 * t) - math.log(2.0)


def decay_envelope(spec: TriToeplitzSpec) -> DecayEnvelope:
    """Decay base eta = x + sqrt(x^2 - 1) and the envelope prefactor 2/(s*(eta - 1/eta))."""
    form = symmetrise(spec)
    if not form.x > 1.0:
        raise NotInGappedRegime(f"x = b/(2s) = {form.x!r} is not > 1")
    eta = form.x + math.sqrt((form.x - 1.0) * (form.x + 1.0))
    gamma = math.acosh(form.x)
    prefactor = math.exp(math.log(2.0 / form.s) - math.log(2.0) - _logsinh(gamma))
    return DecayEnvelope(eta=eta, prefactor=prefactor)


def decay_bound(spec: TriToeplitzSpec, i: int, j: int) -> float:
    """Envelope bound (2/s) (eta - 1/eta)^-1 |q|^(i-j) eta^-|i-j| on |A^-1_(i,j)|."""
    form = symmetrise(spec)
    if not form.x > 1.0:
        raise NotInGappedRegime(f"x = b/(2s) = {form.x!r} is not > 1")
    i = _check_int(i, "index", 1, spec.n, IndexOutOfRange)
    j = _check_int(j, "index", 1, spec.n, IndexOutOfRange)
    gamma = math.acosh(form.x)
    log_bound = (
        math.log(2.0 / form.s)
        - math.log(2.0)
        - _logsinh(gamma)
        + (i - j) * math.log(abs(form.q))
        - abs(i - j) * gamma
    )
    if log_bound > _LOG_MAX:
        raise OverflowError(f"decay bound ({i},{j}) exceeds the float range")
    return math.exp(log_bound)


def hyperbolic_inverse_entry(form: SymmetrisedForm, i: int, j: int) -> float:
    """Symmetric-case inverse entry through ratios of hyperbolic sines.

    For x > 1 and gamma = arccosh(x), entry (i, j) with i <= j equals
    (-1)^(i+j) sinh(i g) sinh((n+1-j) g) / (s sinh((n+1) g) sinh(g));
    indices mirror for i > j.  Computed entirely in log space.
    """
    if not form.x > 1.0:
        raise NotInGappedRegime(f"x = {form.x!r} is not > 1")
    i = _check_int(i, "index", 1, form.n, IndexOutOfRange)
    j = _check_int(j, "index", 1, form.n, IndexOutOfRange)
    lo, hi = (i, j) if i <= j else (j, i)
    gamma = math.acosh(form.x)
    log_mag = (
        _logsinh(lo * gamma)
        + _logsinh((form.n + 1 - hi) * gamma)
        - _logsinh((form.n + 1) * gamma)
        - _logsinh(gamma)
        - math.log(form.s)
    )
    sign = 1.0 if (i + j) % 2 == 0 else -1.0
    if log_mag > _LOG_MAX:
        raise OverflowError(f"entry ({i},{j}) exceeds the float range")
    return sign * math.exp(log_mag)
