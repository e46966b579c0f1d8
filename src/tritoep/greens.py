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
suffix sum (O(n)), each run by one of two scans, chosen per right-hand
side column.  The log-space scan sums the positive and the negative
terms apart by ``np.logaddexp.accumulate``.  The two-level scan scales
chunks of 256 rows by one exponent each, sums them by ``np.cumsum`` and
runs only the chunk totals through the log-space scan.  From 1280 rows
on, a column takes it when in every chunk its terms span at most 650
e-folds; a column with a wider chunk, a NaN or an inf, and every column
below 1280 rows, takes the log-space scan whole.  An (n, k) block gives,
column for column, what its columns give alone.  Entry, dense and apply
paths follow one overflow policy: a nonzero value whose log-magnitude
exceeds the float range raises OverflowError, by ``core._exp_signed`` in
the scalar closed forms.  ``build_kernel`` and ``apply_inverse`` do their
n-length work in place in a few buffers per call, which saves page faults
on fresh memory, not flops, with the float operations of the plain
expressions in their order.  ``thomas_solve``, the classical elimination
baseline, is the only routine here that does not need a*c > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheby import ScaledValue, _log1mexp, _u_sequence_into
from .core import (_LOG_MAX, _SINGULAR_TOL, SymmetrisedForm, TriToeplitzSpec, _check_int,
                   _check_singular_tol, _exp_signed, symmetrise)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NearSingularPivot,
    NotInGappedRegime,
    SingularMatrix,
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
_PIVOT_TOL = 1e-300
# rounding in the subnormal range is absolute, not relative to the values:
# Thomas's backward-error bound adds this times the row scale, so that a
# residual of a few subnormal steps is not refused however small rhs is
_SUBNORMAL_FLOOR = 4 * 2.0**-1074
# a non-finite Thomas solution to a finite rhs is named an overflow when no
# pivot fell below this share of the row scale, a near-singular pivot else
_WELL_PIVOTED = 1e-8
_MOST_NEGATIVE = np.finfo(float).min
# rows per chunk of the two-level scan in apply_inverse
_CHUNK = 256
# a column with a chunk whose nonzero terms may span more e-folds than this
# takes the log-space scan: a term this far below the chunk's largest is
# still a normal float (the normal range ends about 708 e-folds below 1)
_CHUNK_LOG_SPAN = 650.0
# orders from here on take the two-level scan; below, its fixed cost of
# about 50 numpy calls per scan outweighs the per-row log-space scan it
# replaces (build plus apply on one CPU, two-level over log-space in four
# runs: 0.94-1.12x at 4 chunks, 0.85-1.04x at 5)
_CHUNKED_MIN_N = 5 * _CHUNK


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


def build_kernel(spec: TriToeplitzSpec, singular_tol: float = _SINGULAR_TOL) -> GreenKernel:
    """Assemble the scaled sequence U_{-1..n}, Wronskian and invertibility flag.

    The matrix counts as invertible when |U_n(x)| exceeds
    singular_tol * max(1, |U_{n-1}(x)|); the entry/apply operations on a
    kernel below that raise SingularMatrix.  Construction raises it when
    the flag passes but the Wronskian self-check fails.
    """
    _check_singular_tol(singular_tol)
    form = symmetrise(spec)
    n = spec.n
    # index k holds U_{k-1}, k = 0..n+1; U_{-1} := 0 covers both boundaries
    u_signs, u_logs = np.empty((2, n + 2))
    u_signs[0], u_logs[0] = 0.0, -np.inf
    _u_sequence_into(u_signs[1:], u_logs[1:], form.x)

    wronskian = ScaledValue(int(u_signs[n + 1]), float(u_logs[n + 1]))
    log_threshold = math.log(singular_tol) + max(0.0, float(u_logs[n]))
    invertible = wronskian.sign != 0 and wronskian.log_mag > log_threshold

    residual = math.nan
    if invertible:
        # U_k U_{n-k} - U_{k-1} U_{n-k-1} = U_n over |U_n|, k = 0..n; sign products
        # are exact in any order, and |t1 - t2 - w| = |w (t1 - t2) - 1| for w = +-1
        t1, t2 = u_logs[1:] + u_logs[:0:-1], u_logs[:-1] + u_logs[-2::-1]
        for t, lo, hi in ((t1, u_signs[1:], u_signs[:0:-1]),
                          (t2, u_signs[:-1], u_signs[-2::-1])):
            np.exp(np.subtract(t, wronskian.log_mag, out=t), out=t)
            t *= lo
            t *= hi
        t1 -= t2
        residual = float(np.max(np.abs(np.subtract(t1, wronskian.sign, out=t1), out=t1)))
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
    return float(_exp_signed(sign, log_mag, "inverse entry (%d,%d)", i, j))


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


def _scan_scaled(negative, pos):
    """Running sums of +-exp(pos) down axis 0, minus where negative, in scaled form.

    Positive and negative terms are summed apart in log space by
    np.logaddexp.accumulate, an associative prefix scan.  Returns arrays
    (acc, scale) where the partial sum through row k is
    acc[k] * exp(scale[k]); scale is the larger of the two log-sums, so
    |acc| <= 1 and the scan never overflows.  Until the first nonzero
    term, acc is 0 and scale is -inf.  acc is pos, overwritten.
    """
    # zero terms carry log -inf, so they can join either part; a NaN term
    # joins the positive one and makes every later partial sum NaN
    neg = np.where(negative, pos, -np.inf)
    np.copyto(pos, -np.inf, where=negative)
    np.logaddexp.accumulate(pos, axis=0, out=pos)
    np.logaddexp.accumulate(neg, axis=0, out=neg)
    scale = np.maximum(pos, neg)
    pos -= scale
    neg -= scale
    acc = np.exp(pos, out=pos)
    acc -= np.exp(neg, out=neg)
    # before the first nonzero term the shift is -inf - -inf, NaN; the sum is 0
    np.copyto(acc, 0.0, where=scale == -np.inf)
    return acc, scale


def _scan_two_level(weights, top, cols, col_top):
    """Running sums of weights * cols along the rows of the chunk grid, in scaled form.

    cols is the right-hand side on the chunk grid, one column per leading
    index: shape (k, chunks, _CHUNK).  For each chunk c, top[c] is the
    largest row log and ``weights``, of shape (chunks, _CHUNK), holds the
    row factors divided by exp(top[c]), 0 on the padding; col_top, of shape
    (k, chunks), is max|rhs| per column and chunk.  Returns (acc, scale),
    acc written over cols and scale per column and chunk, |acc| <= _CHUNK + 1.

    This is Blelloch's reduce-then-scan with one exponent per chunk and
    column.  Inside a chunk the terms are divided by exp(top + log max|rhs|),
    a bound on the largest of them, and summed by np.cumsum; the chunk
    totals run through _scan_scaled, and each chunk adds the total of the
    chunks before it.  The caller keeps every scaled term a normal float.
    """
    k, chunks, _ = cols.shape
    chunk_scale = top + np.log(col_top)
    # divided by max|rhs| first: a tiny rhs times a small weight underflows
    acc = np.divide(cols, np.where(col_top > 0, col_top, 1.0)[:, :, None], out=cols)
    acc *= weights
    np.cumsum(acc, axis=2, out=acc)

    # entry c + 1 holds the total of chunk c, so the scan of the totals
    # gives in entry c the carry into chunk c, the sum of the chunks before it
    tot = np.concatenate((np.zeros((k, 1)), acc[:, :, -1]), axis=1)
    tot_logs = np.concatenate((np.full((k, 1), -np.inf), chunk_scale), axis=1)
    carry_acc, carry_scale = _scan_scaled((tot < 0).T, (tot_logs + np.log(np.abs(tot))).T)
    carry_acc, carry_scale = carry_acc[:-1].T, carry_scale[:-1].T

    scale = np.maximum(carry_scale, chunk_scale)
    shift = np.maximum(scale, _MOST_NEGATIVE)
    acc *= np.exp(chunk_scale - shift)[:, :, None]
    acc += (carry_acc * np.exp(carry_scale - shift))[:, :, None]
    return acc, scale


def _scan(signs, logs, cols, row_logs):
    """Rows of exp(row_logs) times the running sums of signs * exp(logs) * cols.

    The sums run down axis 0, and rows past the end of row_logs get no term;
    returns the (n, k) terms or a view, refusing overflow as _scaled_terms
    does.  From _CHUNKED_MIN_N rows on, a column takes the two-level scan
    when in every chunk its terms (row factors times entries) span at most
    _CHUNK_LOG_SPAN e-folds, on rows padded to whole chunks, column after
    column.  Every other column takes the log-space scan whole; a block
    with both kinds is split, so that each column gives what it gives alone.
    """
    n, k = cols.shape
    if n >= _CHUNKED_MIN_N:
        starts = np.arange(0, n, _CHUNK)
        top = np.maximum.reduceat(logs, starts)
        # a row factor of log -inf (an exact zero) makes the span inf
        row_span = top - np.minimum.reduceat(logs, starts)
    # with every chunk's row factors too wide, the log-space scan gives all
    # columns what they would get, zero columns included, without the grid
    if n >= _CHUNKED_MIN_N and (row_span <= _CHUNK_LOG_SPAN).any():
        grid = np.zeros((k, starts.size, _CHUNK))
        grid.reshape(k, -1)[:, :n] = cols.T
        # |rhs|, then the row factors, then the log-magnitudes of the terms
        scratch = np.abs(grid)
        col_top = scratch.max(axis=2)
        # log(max|rhs| / min|rhs|) over the nonzero entries; -inf for a zero chunk
        col_span = np.log(col_top) - np.log(
            np.min(scratch, axis=2, where=scratch > 0, initial=np.inf))
        # a NaN or an infinite entry makes the span NaN or inf: such a chunk is wide
        linear = (row_span + col_span <= _CHUNK_LOG_SPAN).all(axis=1)
        if linear.all():
            weights = scratch[0]
            flat = weights.reshape(-1)
            flat[:n] = logs
            flat[n:] = -np.inf
            weights -= top[:, None]
            np.exp(weights, out=weights)
            flat[:n] *= signs
            acc, scale = _scan_two_level(weights, top, grid, col_top)
            flat = scratch.reshape(k, -1)
            flat[:, : row_logs.size] = row_logs
            flat[:, row_logs.size :] = -np.inf
            scratch += scale[:, :, None]
            return _scaled_terms(scratch, acc).reshape(k, -1)[:, :n].T
        del grid, scratch
        if linear.any():
            terms = np.empty((n, k))
            for part in (linear, ~linear):
                terms[:, part] = _scan(signs, logs, cols[:, part], row_logs)
            return terms
    terms = np.log(np.abs(cols))
    terms += logs[:, None]
    acc, scale = _scan_scaled(signs[:, None] * cols < 0, terms)
    scale[: row_logs.size] += row_logs[:, None]
    scale[row_logs.size :] = -np.inf
    return _scaled_terms(scale, acc)


def _scaled_terms(log_mag, acc):
    """acc * exp(log_mag), written over acc; log_mag is overwritten.

    Overflow is decided on each term's whole log-magnitude, log|acc|
    included, so a term is refused exactly when its value would leave the
    float range, as in inverse_entry and inverse_dense.
    """
    log_acc = np.abs(acc)
    log_mag += np.log(log_acc, out=log_acc)
    if (log_mag > _LOG_MAX).any():
        raise OverflowError("some solution terms exceed the float range")
    return np.copysign(np.exp(log_mag, out=log_mag), acc, out=acc)


def apply_inverse(kernel: GreenKernel, rhs) -> np.ndarray:
    """Solve A x = rhs through the semiseparable kernel in O(n).

    rhs is a vector of length n or an (n, k) block of k right-hand sides;
    the result has the shape of rhs, and a block gives, column for column,
    exactly what the columns give one by one.  Row i of the solution is

        (-q)^i / (s U_n) * (U_(n-i) P_i + U_(i-1) S_(i+1)),

    with the prefix sums P_i = sum_(j<=i) U_(j-1) (-q)^(-j) rhs_j and the
    suffix sums S_i = sum_(j>=i) U_(n-j) (-q)^(-j) rhs_j, both run by
    _scan down all columns at once.  Deterministic for fixed input.  Raises
    OverflowError when a term of the solution, or the solution itself,
    leaves the float range.  A NaN or an infinite entry of a column makes
    that whole column of the solution NaN, with no RuntimeWarning
    (thomas_solve gives +-inf entries for an infinite one).
    """
    _require_invertible(kernel)
    n = kernel.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise DimensionMismatch(
            f"expected rhs of shape ({n},) or ({n}, k), got shape {rhs.shape}"
        )
    cols = rhs[:, None] if rhs.ndim == 1 else rhs
    q = kernel.q
    # U_(i-1), read forwards; read backwards it is U_(n-i)
    u_signs, u_logs = kernel.u_signs[1 : n + 1], kernel.u_logs[1 : n + 1]
    # signs of -(-q)^i U_(i-1): the minus cancels in x and only signs its exact zeros
    signs = np.negative(u_signs)
    if q > 0:
        signs[::2] = u_signs[::2]
    # row i is p_i P_i + s_i S_(i+1) with p_i = U_(n-i) (-q)^i / (s U_n) and
    # s_i = U_(i-1) (-q)^i / (s U_n); the q-power signs cancel, so theirs are
    # the suffix's signs[n-i] and signs[i-1] times the sign of U_n, and the
    # suffix reads the q-power signs backwards: flipped for q > 0, n even
    flip = -1.0 if q > 0 and n % 2 == 0 else 1.0
    row_sign = flip * kernel.wronskian.sign
    # log|q|^i, then the prefix scan's row factors and the row logs of its terms
    q_logs = np.arange(1.0, n + 1.0) * math.log(abs(q))
    logs = u_logs - q_logs
    rows = q_logs - math.log(kernel.s) - kernel.wronskian.log_mag
    rows += u_logs[::-1]
    # an infinite rhs entry meets inf - inf in the scans, and the NaN it
    # makes reaches every row, as a NaN entry does
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        x = _scan(signs, logs, cols, rows)
        x *= signs[::-1, None] * row_sign
        # S_n, S_(n-1), ..., S_1: the suffix sums, scanned from the last row
        # up; S_1 gives no term
        np.subtract(u_logs, q_logs[::-1], out=logs)
        rows[:-1] = q_logs[-2::-1] - math.log(kernel.s) - kernel.wronskian.log_mag
        rows[:-1] += u_logs[-2::-1]
        del q_logs
        signs *= flip
        terms = _scan(signs, logs, cols[::-1], rows[:-1])[-2::-1]
        terms *= signs[:-1, None] * row_sign
        x[:-1] += terms
    if np.isinf(x).any():
        raise OverflowError("some solution entries exceed the float range")
    return x.reshape(rhs.shape)


def thomas_solve(spec: TriToeplitzSpec, rhs) -> np.ndarray:
    """Classical unpivoted tridiagonal elimination; O(n).

    Works for any spec (symmetrisable or not) but raises
    NearSingularPivot as soon as a running pivot magnitude drops below
    1e-300 times the row scale; there is no pivoting fallback.  It also
    raises it when the answer misses the backward-error bound
    ||A x - rhs|| <= 1e-9 (row_scale ||x|| + ||rhs||) + 4 row_scale 2^-1074
    in max norms.  A
    non-finite answer to a finite rhs raises OverflowError when every
    pivot is at least 1e-8 times the row scale (the solution itself
    leaves the float range), NearSingularPivot otherwise.  A NaN in rhs
    gives a NaN solution.
    """
    n = spec.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise DimensionMismatch(f"expected rhs of length {n}, got shape {rhs.shape}")
    row_scale = spec.row_scale()
    threshold = _PIVOT_TOL * row_scale
    a, b, c = spec.a, spec.b, spec.c

    # The loops run on Python floats in preallocated lists that they
    # overwrite in place: each row takes its predecessor from the locals
    # wk and zk instead of indexing the list again, and -threshold <= piv
    # <= threshold is abs(piv) <= threshold, NaN included, without the
    # call.  Every float operation keeps the order of the plain indexed
    # loop (tests/helpers.py holds it as a reference), so the result equals
    # it bit for bit.  Row 1 stays outside the loop: run with wk = zk = 0.0
    # it would compute z[0] - a * 0.0, which turns a z[0] of -0.0 into +0.0
    # when a < 0.
    w = [0.0] * n
    z = rhs.tolist()
    piv = b
    if abs(piv) <= threshold:
        raise NearSingularPivot(f"pivot {piv!r} at row 1 below tolerance")
    w[0] = wk = c / piv
    z[0] = zk = z[0] / piv
    neg_threshold = -threshold
    for k in range(1, n):
        piv = b - a * wk
        if neg_threshold <= piv <= threshold:
            raise NearSingularPivot(f"pivot {piv!r} at row {k + 1} below tolerance")
        w[k] = wk = c / piv
        z[k] = zk = (z[k] - a * zk) / piv
    # back-substitution overwrites z with the solution
    for k in range(n - 2, -1, -1):
        z[k] = zk = z[k] - w[k] * zk
    x = np.array(z, dtype=float)
    x_max = abs(x).max()
    # a NaN or infinite x: refused before the residual unless rhs is not finite
    if not x_max < math.inf and np.isfinite(rhs).all():
        # pivot k was c / w[k] to rounding, so |c| / max|w| is the smallest;
        # read back from w, it costs the elimination loop nothing
        if abs(c) >= _WELL_PIVOTED * row_scale * np.abs(w).max():
            raise OverflowError(
                "the solution leaves the float range; every pivot is at least "
                f"{_WELL_PIVOTED:g} times the row scale {row_scale!r}"
            )
        raise NearSingularPivot(
            f"non-finite solution to a finite rhs: backward error exceeds {_BACKWARD_TOL:g}"
        )

    # where b * x could overflow, on x and rhs times 2^-e, e the exponent of max|x|
    e = math.frexp(x_max)[1] if x_max > 2.0**1000 / row_scale else 0
    xs, rs = (np.ldexp(x, -e), np.ldexp(rhs, -e)) if e else (x, rhs)
    resid = b * xs - rs
    resid[1:] += a * xs[:-1]
    resid[:-1] += c * xs[1:]
    resid_norm = float(abs(resid).max())
    x_max, rhs_max = math.ldexp(x_max, -e), float(abs(rs).max())
    # on Python floats a scale past the float range is inf, with no warning;
    # there the tolerance goes on each term first, so that a finite solution
    # near the range keeps a finite bound
    scale = row_scale * x_max + rhs_max
    if scale < math.inf:
        bound = _BACKWARD_TOL * scale
    else:
        bound = _BACKWARD_TOL * row_scale * x_max + _BACKWARD_TOL * rhs_max
    bound += math.ldexp(_SUBNORMAL_FLOOR * row_scale, -e)
    # an infinite bound fails too: inf <= inf would pass
    if not resid_norm <= bound or bound == math.inf:
        if np.isfinite(rhs).all():
            backward = (resid_norm / scale if scale < math.inf
                        else resid_norm / bound * _BACKWARD_TOL)
            raise NearSingularPivot(
                f"backward error {backward:.3e} exceeds {_BACKWARD_TOL:g}"
            )
    return x


def _logsinh(t: float) -> float:
    """log(sinh(t)) for t > 0, stable for both tiny and huge t."""
    return t + _log1mexp(2.0 * t) - math.log(2.0)


def _gapped(form: SymmetrisedForm) -> float:
    """gamma = arccosh(x); raises NotInGappedRegime unless x = b/(2s) > 1."""
    if not form.x > 1.0:
        raise NotInGappedRegime(f"x = b/(2s) = {form.x!r} is not > 1")
    return math.acosh(form.x)


def _log_prefactor(form: SymmetrisedForm, gamma: float) -> float:
    """log of the envelope prefactor 2/(s*(eta - 1/eta)) = 1/(s sinh(gamma))."""
    return math.log(2.0 / form.s) - math.log(2.0) - _logsinh(gamma)


def decay_envelope(spec: TriToeplitzSpec) -> DecayEnvelope:
    """Decay base eta = x + sqrt(x^2 - 1) and the envelope prefactor 2/(s*(eta - 1/eta))."""
    form = symmetrise(spec)
    gamma = _gapped(form)
    eta = form.x + math.sqrt((form.x - 1.0) * (form.x + 1.0))
    prefactor = _exp_signed(1, _log_prefactor(form, gamma), "decay prefactor")
    return DecayEnvelope(eta=eta, prefactor=prefactor)


def decay_bound(spec: TriToeplitzSpec, i: int, j: int) -> float:
    """Envelope bound (2/s) (eta - 1/eta)^-1 |q|^(i-j) eta^-|i-j| on |A^-1_(i,j)|."""
    form = symmetrise(spec)
    gamma = _gapped(form)
    i = _check_int(i, "index", 1, spec.n, IndexOutOfRange)
    j = _check_int(j, "index", 1, spec.n, IndexOutOfRange)
    log_bound = (_log_prefactor(form, gamma) + (i - j) * math.log(abs(form.q))
                 - abs(i - j) * gamma)
    return _exp_signed(1, log_bound, "decay bound (%d,%d)", i, j)


def hyperbolic_inverse_entry(form: SymmetrisedForm, i: int, j: int) -> float:
    """Symmetric-case inverse entry through ratios of hyperbolic sines.

    For x > 1 and gamma = arccosh(x), entry (i, j) with i <= j equals
    (-1)^(i+j) sinh(i g) sinh((n+1-j) g) / (s sinh((n+1) g) sinh(g));
    indices mirror for i > j.  Computed entirely in log space.
    """
    gamma = _gapped(form)
    i = _check_int(i, "index", 1, form.n, IndexOutOfRange)
    j = _check_int(j, "index", 1, form.n, IndexOutOfRange)
    lo, hi = (i, j) if i <= j else (j, i)
    log_mag = (
        _logsinh(lo * gamma)
        + _logsinh((form.n + 1 - hi) * gamma)
        - _logsinh((form.n + 1) * gamma)
        - _logsinh(gamma)
        - math.log(form.s)
    )
    sign = 1.0 if (i + j) % 2 == 0 else -1.0
    return _exp_signed(sign, log_mag, "inverse entry (%d,%d)", i, j)
