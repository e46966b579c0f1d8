"""Closed inverse of the tridiagonal Toeplitz matrix and fast solvers.

The inverse has semiseparable structure: with lo = min(i, j) and
hi = max(i, j), entry (i, j) of the inverse equals

    (-q)^(i-j) * U_{lo-1}(x) * U_{n-hi}(x) / (s * U_n(x)),

one Chebyshev sequence read forwards and backwards, held once as the bounded
v_m = U_m e^(-m gamma), m = -1..n (gamma = arccosh|x| for |x| > 1, else 0), so
the e^(n gamma) of U_n cancels exactly.  The constant discrete Wronskian,
v_k v_{n-k} - e^(-2 gamma) v_{k-1} v_{n-k-1} = v_n, is validated when a kernel
is built.  Entries are assembled in log space, so they stay computable even
where U_n itself would overflow.

``apply_inverse`` runs the rank-one triangles as a prefix and a suffix
sum (O(n)), the suffix sums as prefix sums of the reversed right-hand side.
From 1280 rows on both run in linear space on one grid of 256-row chunks,
one exponent per chunk (reduce-then-scan in block floating point); a column
with a NaN, an inf or a chunk spanning over 650 e-folds, and every column
below 1280 rows, takes log-space scans whole.  A block gives, column for
column, what its columns give alone.  A nonzero value past the float range
raises OverflowError (``core._exp_signed``, ``core._check_log_mags``).
``build_kernel`` and ``apply_inverse`` work in a few buffers per call, which
saves page faults.  ``thomas_solve``, the classical elimination baseline,
is the only routine here that does not need a*c > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheby import ScaledValue, _check_x, _log1mexp, _u_sequence_into, eval_U_scaled
from .core import (_LOG_MAX, _MIN_NORMAL, _SINGULAR_TOL, _WRONSKIAN_TOL, SymmetrisedForm,
                   TriToeplitzSpec, _beyond_range, _check_int, _check_log_mags,
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

_BACKWARD_TOL = 1e-9
_PIVOT_TOL = 1e-300
# rounding in the subnormal range is absolute, not relative to the values:
# Thomas's backward-error bound adds this times the row scale, so that a
# residual of a few subnormal steps is not refused however small rhs is
_SUBNORMAL_FLOOR = 4 * 2.0**-1074
# a non-finite Thomas solution to a finite rhs is named an overflow when no
# pivot fell below this share of the row scale, a near-singular pivot else
_WELL_PIVOTED = 1e-8
# rows per chunk of the linear-space apply
_CHUNK = 256
# a column whose terms may span more e-folds in a chunk takes the log-space scans:
# this far below the chunk's largest a term is still normal (708 e-folds below 1)
_CHUNK_LOG_SPAN = 650.0
# from here on the linear-space apply; below, its 70 numpy calls cost more than log scans
_CHUNKED_MIN_N = 5 * _CHUNK

@dataclass(frozen=True, eq=False)
class GreenKernel:
    """Assembled inverse kernel of one matrix.

    ``v[k]`` holds U_{k-1}(x) e^(-(k-1) gamma) for k = 0..n+1, with
    U_{-1} = 0 in front and ``gamma`` = arccosh|x| for |x| > 1, else 0;
    |v[k]| <= k.  Entry (i, j) reads indices lo and n+1-hi.  ``wronskian``
    equals U_n(x); ``invertible`` is a queried flag, entry and solve
    operations raise SingularMatrix when it is False.
    """

    n: int
    s: float
    q: float
    x: float
    v: np.ndarray
    gamma: float
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
    # index k holds v_(k-1), k = 0..n+1; v_(-1) := 0 covers both boundaries
    v = np.empty(n + 2)
    gamma = _u_sequence_into(v, form.x)
    wronskian = ScaledValue.from_float(float(v[n + 1])) * ScaledValue(1, n * gamma)
    log_threshold = _log_threshold(v, gamma, singular_tol)
    invertible = wronskian.sign != 0 and wronskian.log_mag > log_threshold

    residual = math.nan
    if invertible:
        # v_k v_(n-k) - e^(-2 gamma) v_(k-1) v_(n-k-1) = v_n over |v_n|; both
        # products are symmetric in k <-> n - k, so k = 0..n//2 covers k = 0..n
        h = n // 2 + 1
        t1 = np.multiply(v[1 : h + 1], v[n + 1 : n - h + 1 : -1])
        t2 = np.multiply(v[:h], v[n : n - h : -1])
        t1 -= np.multiply(t2, math.exp(-2.0 * gamma), out=t2)
        residual = float(np.max(np.abs(np.subtract(t1, v[-1], out=t1), out=t1)) / abs(v[-1]))
        if residual > _WRONSKIAN_TOL:
            raise SingularMatrix(
                f"kernel self-check failed: Wronskian residual {residual:.3e} "
                f"exceeds {_WRONSKIAN_TOL:g}; log|U_n(x)| = "
                f"{wronskian.log_mag:.6g} against the threshold {log_threshold:.6g}"
            )
        # the identity holds for any gamma; the scalar U_n checks gamma, to the rounding of n gamma
        ref = eval_U_scaled(n, form.x)
        if ref.sign != wronskian.sign or abs(ref.log_mag - wronskian.log_mag) > (
                _WRONSKIAN_TOL + 4 * math.ulp(n * gamma)):
            raise SingularMatrix(f"kernel self-check failed: log|U_n(x)| = {wronskian.log_mag!r}"
                                 f" against {ref.log_mag!r} from eval_U_scaled")
    return GreenKernel(n=n, s=form.s, q=form.q, x=form.x, v=v, gamma=gamma,
                       wronskian=wronskian, invertible=invertible,
                       wronskian_residual=residual, singular_tol=singular_tol)


def _log_threshold(v, gamma: float, singular_tol: float) -> float:
    """log of singular_tol * max(1, |U_(n-1)(x)|), n = v.size - 2."""
    return math.log(singular_tol) + max(0.0, math.log(abs(v[-2])) + (v.size - 3) * gamma)


def _require_invertible(kernel: GreenKernel) -> None:
    if not kernel.invertible:
        raise SingularMatrix(
            f"|U_n(x)| = exp({kernel.wronskian.log_mag!r}) is not above the threshold "
            f"exp({_log_threshold(kernel.v, kernel.gamma, kernel.singular_tol)!r}) = "
            f"{kernel.singular_tol!r} * max(1, |U_(n-1)(x)|)"
        )


def _entry_sign_log(kernel: GreenKernel, lo, hi, diff):
    """Sign and log-magnitude of (-q)^diff U_{lo-1} U_{n-hi} / (s U_n).

    That is v_{lo-1} v_{n-hi} / v_n e^(-(hi-lo+1) gamma) (-q)^diff / s.
    Works on scalar indices and elementwise on index arrays; callers
    exponentiate the result themselves.
    """
    sign_neg_q = -1.0 if kernel.q > 0 else 1.0
    vv = kernel.v[lo] * kernel.v[kernel.n + 1 - hi]
    sign = np.sign(vv) * kernel.wronskian.sign * sign_neg_q**diff
    log_mag = (np.log(np.abs(vv)) - (hi - lo + 1) * kernel.gamma - math.log(abs(kernel.v[-1]))
               - math.log(kernel.s) + diff * math.log(abs(kernel.q)))
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
    signs, logs = _entry_sign_log(kernel, np.minimum.outer(idx, idx),
                                  np.maximum.outer(idx, idx), np.subtract.outer(idx, idx))
    with np.errstate(divide="ignore", under="ignore"):
        return _exp_terms(logs, signs, "inverse entry")[0]


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


def _exp_terms(log_mag, acc, what, rows=slice(None)):
    """acc * exp(log_mag) over acc, with the top log-magnitude; log_mag[rows] names an overflow."""
    log_acc = np.abs(acc)
    log_mag += np.log(log_acc, out=log_acc)
    top = np.fmax.reduce(log_mag, axis=None, initial=-np.inf)
    if top > _LOG_MAX:
        _check_log_mags(log_mag[rows], what)
    return np.copysign(np.exp(log_mag, out=log_mag), acc, out=acc), top


def _scan_log(signs, logs, cols, row_logs):
    """Terms exp(row_logs) * running sums of signs exp(logs) cols, as (log_mag, acc)."""
    terms = np.log(np.abs(cols))
    terms += logs[:, None]
    acc, scale = _scan_scaled(signs[:, None] * cols < 0, terms)
    scale[: row_logs.size] += row_logs[:, None]
    scale[row_logs.size :] = -np.inf
    return scale, acc


def _sum_parts(p, s, safe):
    """Rows p + s, s one row short: over p when safe, else on a copy, refusing an overflow."""
    if safe:
        p[:-1] += s
        return p
    x = p.copy()
    x[:-1] += s
    if np.isinf(x).any():
        # both parts are finite, so their halves add without overflow
        halves = p / 2.0
        halves[:-1] += s / 2.0
        _check_log_mags(np.log(np.abs(halves)) + math.log(2.0), "solution entry", np.isinf(x))
    return x


def _solve_log(kernel: GreenKernel, cols):
    """The solution by two log-space scans, the prefix and the suffix sums."""
    n, q = kernel.n, kernel.q
    # v_(i-1), read backwards v_(n-i); log|U_(i-1)| = log|v_(i-1)| + (i-1) gamma, and the
    # rows read log|U_(n-i)| - n gamma = log|v_(n-i)| - i gamma: e^(n gamma) cancels exactly
    v = kernel.v[1 : n + 1]
    v_logs, idx = np.log(np.abs(v)), np.arange(0.0, n + 1.0)
    i_gamma = idx * kernel.gamma
    u_logs = v_logs + i_gamma[:-1]
    back = np.subtract(v_logs[::-1], i_gamma[1:], out=i_gamma[1:])
    # signs of -(-q)^i U_(i-1): the minus cancels in x and only signs its exact zeros
    signs = np.negative(np.sign(v))
    if q > 0:
        signs[::2] *= -1.0
    # row i is p_i P_i + s_i S_(i+1) with p_i = U_(n-i) (-q)^i / (s U_n) and
    # s_i = U_(i-1) (-q)^i / (s U_n); the q-power signs cancel, so theirs are
    # the suffix's signs[n-i] and signs[i-1] times the sign of U_n, and the
    # suffix reads the q-power signs backwards: flipped for q > 0, n even
    flip = -1.0 if q > 0 and n % 2 == 0 else 1.0
    row_sign = flip * kernel.wronskian.sign
    q_logs = np.multiply(idx[1:], math.log(abs(q)), out=idx[1:])
    logs = np.subtract(u_logs, q_logs, out=v_logs)
    log_v_n = math.log(abs(kernel.v[-1]))
    rows = q_logs - math.log(kernel.s) - log_v_n
    rows += back
    x, top = _exp_terms(*_scan_log(signs, logs, cols, rows), "solution term")
    x *= signs[::-1, None] * row_sign
    # S_n, ..., S_2 for rows n - 1, ..., 1, scanned from the last row up
    np.subtract(u_logs, q_logs[::-1], out=logs)
    rows[:-1] = q_logs[-2::-1] - math.log(kernel.s) - log_v_n
    rows[:-1] += back[1:]
    signs *= flip
    s, s_top = _exp_terms(*_scan_log(signs, logs, cols[::-1], rows[:-1]), "solution term",
                          slice(-2, None, -1))
    s = s[-2::-1]
    s *= signs[:-1, None] * row_sign
    return _sum_parts(x, s, max(top, s_top) < _LOG_MAX - math.log(2.0))


def _fused(kernel: GreenKernel, terms, top, slopes):
    """Both sums on one chunk grid in linear space; terms[0] holds the padded rhs.

    Row f's prefix term is v_f rhs_f e^(f slope_0), its suffix term on the
    reversed grid v_f rhs_(n-1-f) e^(f slope_1), v_f = U_f e^(-f gamma)
    times the sign of (-q)^(f+1), bounded; top is max|rhs| per chunk.  Row
    f of a part is (sum alpha + carry beta) v_backwards e^(off - tau slope).
    """
    _, k, chunks, _ = terms.shape
    n, q, size = kernel.n, kernel.q, chunks * _CHUNK
    pad = size - n
    # v at buf[pad:size] between zeros: the prefix terms read buf[pad:], the suffix
    # terms buf[:size], the rows buf backwards
    buf = np.zeros(size + pad)
    buf[pad:size] = kernel.v[1 : n + 1]
    log_vmax = math.log(max(kernel.v.max(), -kernel.v.min()))
    if q > 0:
        buf[pad:size:2] *= -1.0
    rows = tuple(buf[::-1][a : a + size].reshape(chunks, _CHUNK) for a in (pad, 1))
    tau_slopes = np.outer(slopes, np.arange(_CHUNK))
    off = np.minimum(tau_slopes[:, -1:], 0.0)
    back_weights = np.exp(off - tau_slopes)
    terms[0] /= np.where(top > 0, top, 1.0)[:, :, None]
    np.multiply(terms[0, :, ::-1, ::-1], buf[:size].reshape(chunks, _CHUNK), out=terms[1])
    terms[0] *= buf[pad:][:size].reshape(chunks, _CHUNK)
    terms *= np.exp(tau_slopes - off)[:, None, None]
    np.cumsum(terms, axis=3, out=terms)

    # log alpha: log max|rhs| plus the log of the part's constant row factor;
    # a chunk's sum times e^(log alpha - base) is the sum itself
    g = -kernel.gamma - math.log(kernel.s) - math.log(abs(kernel.v[-1]))
    log_alpha = np.log(np.stack((top, top[:, ::-1]))) + (g - slopes * [0.0, 1.0])[:, None, None]
    base = ((g + np.array([0.0, (pad - 1) * slopes[1]]) - off[:, 0])[:, None]
            - np.outer(slopes, np.arange(0, size, _CHUNK)))[:, None, :]
    # entry c + 1 holds the total of chunk c, so the scan of the totals
    # gives in entry c the carry into chunk c, the sum of the chunks before it
    tot = terms[..., -1]
    tot_logs = (np.log(np.abs(tot)) + log_alpha - base).reshape(2 * k, chunks).T
    carry, log_beta = (a[:-1].T.reshape(2, k, chunks) for a in _scan_scaled(
        np.concatenate((np.zeros((1, 2 * k), bool), (tot < 0).reshape(2 * k, chunks).T)),
        np.concatenate((np.full((1, 2 * k), -np.inf), tot_logs))))
    log_beta += base
    log_beta[carry == 0.0] = -np.inf

    # a row of a part is at most e^(peak + spread): under half the float range
    # below the top limit, and rounded to 0 below 2^-1075; a rounding below
    # the normal floats is multiplied by max|v| at most
    peak = np.maximum(log_alpha, log_beta)
    lowest = np.minimum(np.where(log_alpha > -np.inf, log_alpha, np.inf),
                        np.where(log_beta > -np.inf, log_beta, np.inf))
    spread = (math.log(2 * _CHUNK + 2) + 2 * log_vmax + (_CHUNK - 1) * abs(slopes))[:, None, None]
    exact = (((lowest < math.log(_MIN_NORMAL) + log_vmax)
              & (peak + spread > -1075 * math.log(2.0)))
             | (peak + spread > _LOG_MAX))
    row_sign = (-1.0 if q > 0 and n % 2 == 0 else 1.0) * kernel.wronskian.sign
    if exact.any():
        part, _, chunk = np.nonzero(exact)
        top_log = peak[exact][:, None]
        sums = (terms[exact] * np.exp(log_alpha[exact][:, None] - top_log)
                + carry[exact][:, None] * np.exp(log_beta[exact][:, None] - top_log))
        factors = np.stack(rows)[part, chunk] * back_weights[part]
        log_mag = np.log(np.abs(sums)) + np.log(np.abs(factors)) + top_log
        exact_rows = np.copysign(np.exp(log_mag), sums * factors * row_sign)
    terms *= (row_sign * np.exp(log_alpha))[..., None]
    terms += (row_sign * carry * np.exp(log_beta))[..., None]
    for part, row in enumerate(rows):
        terms[part] *= row
    terms *= back_weights[:, None, None]
    # the suffix part of row i is at padded row size - 1 - i; S_(n+1) = 0
    p, s = terms[0].reshape(k, size)[:, :n].T, terms[1].reshape(k, size)[:, ::-1][:, 1:n].T
    if exact.any():
        if (log_mag > _LOG_MAX).any():
            terms[...] = -np.inf
            terms[exact] = log_mag
            _check_log_mags(p, "solution term")
            _check_log_mags(s, "solution term")
        terms[exact] = exact_rows
    return _sum_parts(p, s, not exact.any() or log_mag.max() < _LOG_MAX - math.log(2.0))


def _solve(kernel: GreenKernel, cols):
    """The (n, k) solution, column by column in linear space where the column allows."""
    n, k = cols.shape
    if n < _CHUNKED_MIN_N or not k:
        return _solve_log(kernel, cols)
    # the e-folds that the in-chunk weights of the two sums span, at most
    width = (_CHUNK - 1) * (kernel.gamma + abs(math.log(abs(kernel.q))))
    if width <= _CHUNK_LOG_SPAN:
        terms = np.zeros((2, k, n // _CHUNK + 1, _CHUNK))
        terms[0].reshape(k, -1)[:, :n] = cols.T
        mags = np.abs(terms[0], out=terms[1])
        top = mags.max(axis=2)
        # log(max|rhs| / min|rhs|) over the nonzero entries; -inf for a zero
        # chunk, NaN or inf for a chunk with a NaN or an infinite entry
        span = np.log(top) - np.log(np.min(mags, axis=2, where=mags > 0, initial=np.inf))
        linear = (width + span <= _CHUNK_LOG_SPAN).all(axis=1)
        if linear.all():
            return _fused(kernel, terms, top,
                          kernel.gamma + np.array([-1.0, 1.0]) * math.log(abs(kernel.q)))
        del terms, mags
        if linear.any():
            x = np.empty((n, k))
            x[:, linear] = _solve(kernel, cols[:, linear])
            x[:, ~linear] = _solve_log(kernel, cols[:, ~linear])
            return x
    return _solve_log(kernel, cols)


def apply_inverse(kernel: GreenKernel, rhs) -> np.ndarray:
    """Solve A x = rhs through the semiseparable kernel in O(n).

    rhs is a vector of length n or an (n, k) block of k right-hand sides;
    the result has the shape of rhs, and a block gives, column for column,
    exactly what the columns give one by one.  Row i of the solution is

        (-q)^i / (s U_n) * (U_(n-i) P_i + U_(i-1) S_(i+1)),

    with the prefix sums P_i = sum_(j<=i) U_(j-1) (-q)^(-j) rhs_j and the
    suffix sums S_i = sum_(j>=i) U_(n-j) (-q)^(-j) rhs_j.  Deterministic
    for fixed input.  Raises OverflowError when a term of the solution, or
    the solution itself, leaves the float range.  A NaN or an infinite
    entry of a column makes that whole column of the solution NaN, with no
    RuntimeWarning, as thomas_solve does.
    """
    _require_invertible(kernel)
    n = kernel.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise DimensionMismatch(
            f"expected rhs of shape ({n},) or ({n}, k), got shape {rhs.shape}"
        )
    # an infinite rhs entry meets inf - inf in the scans, and the NaN it
    # makes reaches every row, as a NaN entry does
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        x = _solve(kernel, rhs[:, None] if rhs.ndim == 1 else rhs)
    return x.reshape(rhs.shape)


def thomas_solve(spec: TriToeplitzSpec, rhs) -> np.ndarray:
    """Classical unpivoted tridiagonal elimination; O(n).

    Works for any spec (symmetrisable or not) but raises
    NearSingularPivot as soon as a running pivot magnitude drops below
    1e-300 times the row scale; there is no pivoting fallback.  It also
    raises it when the answer misses the backward-error bound
    ||A x - rhs|| <= 1e-9 (row_scale ||x|| + ||rhs||) + 4 row_scale 2^-1074
    in max norms.  A non-finite answer to a finite rhs raises
    OverflowError when every pivot is at least 1e-8 times the row scale
    (the solution itself leaves the float range), NearSingularPivot
    otherwise.  A NaN or an infinite entry of rhs makes every entry of the
    solution NaN, with no RuntimeWarning, as in apply_inverse.
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
    # a NaN or infinite x: returned or refused before the residual
    if not x_max < math.inf:
        if not np.isfinite(rhs).all():
            # a non-finite rhs entry reaches every row: the answer is all NaN,
            # as from apply_inverse (an infinite one would leave +-inf entries)
            return x if np.isnan(x).all() else np.full(n, math.nan)
        # pivot k was c / w[k] to rounding, so |c| / max|w| is the smallest;
        # read back from w, it costs the elimination loop nothing.  On Python
        # floats a product past the float range is inf, with no warning, and
        # |c| < inf is then the right decision
        if abs(c) >= _WELL_PIVOTED * row_scale * float(np.abs(w).max()):
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
        backward = (resid_norm / scale if scale < math.inf
                    else resid_norm / bound * _BACKWARD_TOL)
        raise NearSingularPivot(f"backward error {backward:.3e} exceeds {_BACKWARD_TOL:g}")
    return x


def _logsinh(t: float) -> float:
    """log(sinh(t)) for t > 0, stable for both tiny and huge t."""
    return t + _log1mexp(2.0 * t) - math.log(2.0)


def _gapped(form: SymmetrisedForm) -> float:
    """gamma = arccosh(x); raises NotInGappedRegime unless x = b/(2s) > 1.

    An x past the float range (b/(2s) overflows) raises OverflowError, as
    every Chebyshev evaluation does.
    """
    if not form.x > 1.0:
        raise NotInGappedRegime(f"x = b/(2s) = {form.x!r} is not > 1")
    _check_x(form.x)
    return math.acosh(form.x)


def _log_prefactor(form: SymmetrisedForm, gamma: float) -> float:
    """log of the envelope prefactor 2/(s*(eta - 1/eta)) = 1/(s sinh(gamma))."""
    return math.log(2.0 / form.s) - math.log(2.0) - _logsinh(gamma)


def decay_envelope(spec: TriToeplitzSpec) -> DecayEnvelope:
    """Decay base eta = x + sqrt(x^2 - 1) and the envelope prefactor 2/(s*(eta - 1/eta)).

    Raises OverflowError when eta = e^gamma itself is past the float range
    (x above about 9e307).
    """
    form = symmetrise(spec)
    gamma = _gapped(form)
    x = form.x
    root = math.sqrt((x - 1.0) * (x + 1.0))
    if root == math.inf:  # the product overflows from x ~ 1.3e154
        root = x * math.sqrt((1.0 - 1.0 / x) * (1.0 + 1.0 / x))
    eta = x + root
    if eta == math.inf:
        raise _beyond_range("decay base eta", gamma)
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
