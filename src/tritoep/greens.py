"""Closed inverse of the tridiagonal Toeplitz matrix and fast solvers.

The inverse has semiseparable structure: with f_k = (-1)^(k-1) U_{k-1}(x)
and g_k = (-1)^(k-1) U_{n-k}(x), entry (i, j) of the inverse equals

    q^(i-j) * f_min(i,j) * g_max(i,j) / (s * U_n(x)).

Both sequences solve the same three-term recurrence, so their discrete
Wronskian f_k g_{k+1} - f_{k+1} g_k is constant and equals U_n(x); this is
validated when a kernel is built.  Everything is carried as sign plus
log-magnitude, which keeps entries computable for orders in the thousands
even when the Chebyshev values themselves would overflow.

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
_MOST_NEGATIVE = np.finfo(float).min


@dataclass(frozen=True, eq=False)
class GreenKernel:
    """Assembled inverse kernel of one matrix.

    ``f_signs/f_logs`` and ``g_signs/g_logs`` hold the two recurrence
    solutions for k = 0..n+1 in scaled form (sign arrays contain -1, 0, +1
    as floats).  ``wronskian`` equals U_n(x); ``invertible`` is a queried
    flag, entry and solve operations raise SingularMatrix when it is
    False.
    """

    n: int
    s: float
    q: float
    x: float
    f_signs: np.ndarray
    f_logs: np.ndarray
    g_signs: np.ndarray
    g_logs: np.ndarray
    wronskian: ScaledValue
    invertible: bool
    wronskian_residual: float
    singular_tol: float

    def f_at(self, k: int) -> ScaledValue:
        return ScaledValue(int(self.f_signs[k]), float(self.f_logs[k]))

    def g_at(self, k: int) -> ScaledValue:
        return ScaledValue(int(self.g_signs[k]), float(self.g_logs[k]))


@dataclass(frozen=True)
class DecayEnvelope:
    """Geometric envelope of the symmetrised inverse for x > 1.

    Entry (i, j) of the symmetrised inverse is bounded by
    prefactor * eta^(-|i-j|).
    """

    eta: float
    prefactor: float


def build_kernel(spec: TriToeplitzSpec, singular_tol: float = 1e-12) -> GreenKernel:
    """Assemble the f/g sequences, Wronskian and invertibility flag.

    The matrix counts as invertible when |U_n(x)| exceeds
    singular_tol * max(1, |U_{n-1}(x)|); construction never raises
    SingularMatrix, only the entry/apply operations do.
    """
    if not singular_tol > 0:
        raise TriToeplitzError(f"singular_tol must be positive, got {singular_tol!r}")
    form = symmetrise(spec)
    n = spec.n
    usigns, ulogs = _u_sequence_arrays(n, form.x)

    # f_k = (-1)^(k-1) U_{k-1}, g_k = (-1)^(k-1) U_{n-k}, k = 0..n+1,
    # with U_{-1} := 0 covering both boundary entries
    alt = np.where(np.arange(n + 2) % 2 == 1, 1.0, -1.0)
    f_signs = np.concatenate(([0.0], alt[1:] * usigns[np.arange(0, n + 1)]))
    f_logs = np.concatenate(([-np.inf], ulogs[np.arange(0, n + 1)]))
    g_signs = np.concatenate((alt[: n + 1] * usigns[np.arange(n, -1, -1)], [0.0]))
    g_logs = np.concatenate((ulogs[np.arange(n, -1, -1)], [-np.inf]))

    wronskian = ScaledValue(int(usigns[n]), float(ulogs[n]))
    log_threshold = math.log(singular_tol) + max(0.0, float(ulogs[n - 1]))
    invertible = wronskian.sign != 0 and wronskian.log_mag > log_threshold

    residual = math.nan
    if invertible:
        t1 = (
            f_signs[: n + 1]
            * g_signs[1:]
            * wronskian.sign
            * np.exp(f_logs[: n + 1] + g_logs[1:] - wronskian.log_mag)
        )
        t2 = (
            f_signs[1:]
            * g_signs[: n + 1]
            * wronskian.sign
            * np.exp(f_logs[1:] + g_logs[: n + 1] - wronskian.log_mag)
        )
        residual = float(np.max(np.abs(t1 - t2 - 1.0)))
        if residual > _WRONSKIAN_TOL:
            raise TriToeplitzError(
                f"kernel self-check failed: Wronskian residual {residual:.3e}"
            )
    return GreenKernel(
        n=n,
        s=form.s,
        q=form.q,
        x=form.x,
        f_signs=f_signs,
        f_logs=f_logs,
        g_signs=g_signs,
        g_logs=g_logs,
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
    """Sign and log-magnitude of q^diff f_lo g_hi / (s U_n).

    Works on scalar indices and elementwise on index arrays; callers
    exponentiate the result themselves.
    """
    sign_q = 1.0 if kernel.q > 0 else -1.0
    sign = (
        kernel.f_signs[lo]
        * kernel.g_signs[hi]
        * kernel.wronskian.sign
        * sign_q**diff
    )
    log_mag = (
        kernel.f_logs[lo]
        + kernel.g_logs[hi]
        - kernel.wronskian.log_mag
        - math.log(kernel.s)
        + diff * math.log(abs(kernel.q))
    )
    return sign, log_mag


def inverse_entry(kernel: GreenKernel, i: int, j: int) -> float:
    """Entry (i, j) of the inverse, 1-based.

    For i <= j this is (-1)^(i+j) q^(i-j) U_{i-1} U_{n-j} / (s U_n); for
    i > j the Chebyshev indices swap while the q power keeps the signed
    exponent i-j.  Raises OverflowError when the plain value leaves the
    float range.
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

        q^i / (s U_n) * (g_i P_i + f_i S_(i+1)),

    with the prefix sums P_i = sum_(j<=i) f_j q^(-j) rhs_j and the suffix
    sums S_i = sum_(j>=i) g_j q^(-j) rhs_j, both run by _scan_scaled down
    all columns at once.  Deterministic for fixed input.  Raises
    OverflowError when a term of the solution, or the solution itself,
    leaves the float range.
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
    q_signs = np.power(1.0 if kernel.q > 0 else -1.0, i)
    q_logs = i * math.log(abs(kernel.q))
    f_signs, f_logs = kernel.f_signs[1 : n + 1], kernel.f_logs[1 : n + 1]
    g_signs, g_logs = kernel.g_signs[1 : n + 1], kernel.g_logs[1 : n + 1]

    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        rhs_signs = np.sign(cols)
        rhs_logs = np.log(np.abs(cols))
        p_acc, p_scale = _scan_scaled(
            (f_signs * q_signs)[:, None] * rhs_signs,
            (f_logs - q_logs)[:, None] + rhs_logs,
        )
        # S_n, S_(n-1), ..., S_2: the suffix sums, scanned from the last row up
        s_acc, s_scale = _scan_scaled(
            ((g_signs * q_signs)[:, None] * rhs_signs)[:0:-1],
            ((g_logs - q_logs)[:, None] + rhs_logs)[:0:-1],
        )
        del rhs_signs, rhs_logs  # n*k each: free them before the combine
        base_signs = q_signs * kernel.wronskian.sign
        base_logs = q_logs - math.log(kernel.s) - kernel.wronskian.log_mag
        x = _scaled_terms(g_signs * base_signs, g_logs + base_logs, p_acc, p_scale)
        x[:-1] += _scaled_terms(
            f_signs[:-1] * base_signs[:-1],
            f_logs[:-1] + base_logs[:-1],
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
    pivot_tol times the row scale; there is no pivoting fallback.
    """
    n = spec.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise DimensionMismatch(f"expected rhs of length {n}, got shape {rhs.shape}")
    threshold = pivot_tol * spec.row_scale()
    a, b, c = spec.a, spec.b, spec.c

    w = np.empty(n)
    z = np.empty(n)
    piv = b
    if abs(piv) <= threshold:
        raise NearSingularPivot(f"pivot {piv!r} at row 1 below tolerance")
    w[0] = c / piv
    z[0] = rhs[0] / piv
    for k in range(1, n):
        piv = b - a * w[k - 1]
        if abs(piv) <= threshold:
            raise NearSingularPivot(f"pivot {piv!r} at row {k + 1} below tolerance")
        w[k] = c / piv
        z[k] = (rhs[k] - a * z[k - 1]) / piv

    x = np.empty(n)
    x[n - 1] = z[n - 1]
    for k in range(n - 2, -1, -1):
        x[k] = z[k] - w[k] * x[k + 1]
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
