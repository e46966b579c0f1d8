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
Both run in linear space on one grid of chunks, one exponent per chunk
(reduce-then-scan in block floating point), at every n.  A chunk has at
most 4096 rows and at most 650 e-folds of row weights, in as few chunks
of even length as that allows, so a kernel whose rows fit in one chunk
(n <= 937 at x = 1.25, q = 1) needs no carry.  Each chunk's sums take their back-weights, at most 1,
before its one factor, so a row's bound is that factor times the growth
the rows themselves carry.  A chunk whose rows could leave the float
range, whose carry outweighs its factor past it, or whose right-hand
side spans too far, takes an exact path row by row; a column with a NaN
or an inf is NaN.  A block gives,
column for column, what its columns give alone.  A nonzero value past the
float range raises OverflowError (``core._exp_signed``,
``core._check_log_mags``).
``build_kernel`` and ``apply_inverse`` work in a few buffers per call, which
saves page faults.  ``thomas_solve``, the classical elimination baseline,
is the only routine here that does not need a*c > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheby import ScaledValue, _u_sequence_into, eval_U_scaled
from .core import (_LOG_MAX, _MIN_NORMAL, _SINGULAR_TOL, _WRONSKIAN_TOL, TriToeplitzSpec,
                   _check_int, _check_log_mags, _check_singular_tol, _exp_signed, _matvec,
                   symmetrise)
from .errors import DimensionMismatch, IndexOutOfRange, NearSingularPivot, SingularMatrix

__all__ = [
    "GreenKernel",
    "build_kernel",
    "inverse_entry",
    "inverse_dense",
    "apply_inverse",
    "thomas_solve",
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
# rows per chunk of the apply, at most
_CHUNK = 4096
# the e-folds that the row weights of one chunk may span, and, apart, its
# rhs: this far below the chunk's largest |rhs| a term is still normal
# (708 e-folds below 1), since the weights e^(tau slope - off) >= 1 only lift it
_CHUNK_LOG_SPAN = 650.0
_CHUNK_SPAN = math.exp(_CHUNK_LOG_SPAN)
_LOG_MIN_NORMAL = math.log(_MIN_NORMAL)
# the row offsets tau = 0, 1, ... of a chunk, read only
_TAU = np.arange(float(_CHUNK))
_TAU.flags.writeable = False

@dataclass(frozen=True, eq=False, init=False)
class GreenKernel:
    """Assembled inverse kernel of one matrix.

    ``v[k]`` holds U_{k-1}(x) e^(-(k-1) gamma) for k = 0..n+1, with
    U_{-1} = 0 in front and ``gamma`` = arccosh|x| for |x| > 1, else 0;
    |v[k]| <= k.  Entry (i, j) reads indices lo and n+1-hi.  ``wronskian``
    equals U_n(x); ``invertible`` is a queried flag, entry and solve
    operations raise SingularMatrix when it is False.

    Its ``__init__`` fills the instance dict in one ``self.__dict__.update``,
    the one idiom of the package's records (see ``TriToeplitzSpec``): the
    generated one would take about 2.5 us for the ten fields of a build.
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

    def __init__(self, n, s, q, x, v, gamma, wronskian, invertible, wronskian_residual,
                 singular_tol):
        self.__dict__.update(n=n, s=s, q=q, x=x, v=v, gamma=gamma, wronskian=wronskian,
                             invertible=invertible, wronskian_residual=wronskian_residual,
                             singular_tol=singular_tol)


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
    # U_n = v_n e^(n gamma)
    v_n = float(v[-1])
    wronskian = (ScaledValue(1 if v_n > 0.0 else -1, math.log(abs(v_n)) + n * gamma)
                 if v_n else ScaledValue(0, -math.inf))
    log_threshold = _log_threshold(v, gamma, singular_tol)
    invertible = wronskian.sign != 0 and wronskian.log_mag > log_threshold

    residual = math.nan
    if invertible:
        # v_k v_(n-k) - e^(-2 gamma) v_(k-1) v_(n-k-1) = v_n over |v_n|; both
        # products are symmetric in k <-> n - k, so k = 0..n//2 covers k = 0..n
        h = n // 2 + 1
        t1 = np.multiply(v[1 : h + 1], v[n + 1 : n - h + 1 : -1])
        t2 = np.multiply(v[:h], v[n : n - h : -1])
        if gamma:  # else e^(-2 gamma) = 1, a product that changes nothing
            t2 *= math.exp(-2.0 * gamma)
        t1 -= t2
        # max|t1 - v_n| from the extremes of t1: rounding t - v_n is monotone in t
        residual = max(float(np.maximum.reduce(t1)) - v_n,
                       v_n - float(np.minimum.reduce(t1))) / abs(v_n)
        if residual > _WRONSKIAN_TOL:
            raise SingularMatrix(
                f"kernel self-check failed: Wronskian residual {residual:.3e} "
                f"exceeds {_WRONSKIAN_TOL:g}; log|U_n(x)| = "
                f"{wronskian.log_mag:.6g} against the threshold {log_threshold:.6g}"
            )
        # the identity holds for any gamma; the scalar U_n checks gamma, to the rounding of
        # n gamma.  At gamma = 0 it runs the sequence's own operations, so it would be v_n
        if gamma > 0.0:
            ref = eval_U_scaled(n, form.x)
            if ref.sign != wronskian.sign or abs(ref.log_mag - wronskian.log_mag) > (
                    _WRONSKIAN_TOL + 4 * math.ulp(n * gamma)):
                raise SingularMatrix(f"kernel self-check failed: log|U_n(x)| = "
                                     f"{wronskian.log_mag!r} against {ref.log_mag!r} from "
                                     "eval_U_scaled")
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
    # an exact zero entry has log -inf already
    _check_log_mags(logs, "inverse entry")
    with np.errstate(under="ignore"):
        return np.copysign(np.exp(logs, out=logs), signs, out=signs)


def _scan_scaled(negative, pos):
    """Running sums of +-exp(pos) along the last axis, minus where negative, in scaled form.

    Positive and negative terms are summed apart in log space by
    np.logaddexp.accumulate, an associative prefix scan.  Returns arrays
    (acc, scale) where the partial sum through row k is
    acc[k] * exp(scale[k]); scale is the larger of the two log-sums, so
    |acc| <= 1 and the scan never overflows.  Until the first nonzero
    term, acc is 0 and scale is -inf.  acc is pos, overwritten.
    """
    # zero terms carry log -inf, so they can join either part
    neg = np.where(negative, pos, -np.inf)
    np.copyto(pos, -np.inf, where=negative)
    np.logaddexp.accumulate(pos, axis=-1, out=pos)
    np.logaddexp.accumulate(neg, axis=-1, out=neg)
    scale = np.maximum(pos, neg)
    pos -= scale
    neg -= scale
    acc = np.exp(pos, out=pos)
    acc -= np.exp(neg, out=neg)
    # before the first nonzero term the shift is -inf - -inf, NaN; the sum is 0
    np.copyto(acc, 0.0, where=scale == -np.inf)
    return acc, scale


def _fused(kernel: GreenKernel, terms, log_q: float):
    """The (n, k) solution, both sums on one grid of chunks; terms[0] holds the padded rhs.

    terms has shape (2, k, chunks, L), and log_q is log|q|.  Row f's prefix term is v_f rhs_f
    e^(f slope_0), its suffix term on the reversed grid v_f rhs_(n-1-f)
    e^(f slope_1), v_f = U_f e^(-f gamma) times the sign of (-q)^(f+1),
    bounded; each chunk is divided by its max|rhs| (top).  Row f of a part
    is alpha (sum + carry beta / alpha) e^(off - tau slope) v_backwards:
    the back-weights, at most 1, go on the sum and the carry before the
    chunk's factor alpha does.  The exact path takes a chunk whose rows
    could leave the float range through log space row by row, and first
    sums a wide chunk, whose rhs spans too far for its terms to stay
    normal, in log space.

    At query sizes the cost is per numpy call, not per row: one column in
    one chunk takes about 25 calls here, the exps of the slopes and of their
    negatives (the back-weights) one of them.
    """
    _, k, chunks, length = terms.shape
    n, q, size = kernel.n, kernel.q, chunks * length
    pad = size - n
    flat = terms.reshape(2, k, size)
    s0, s1 = kernel.gamma - log_q, kernel.gamma + log_q
    mags = np.abs(terms[0], out=terms[1])
    top = np.maximum.reduce(mags, axis=2)
    # a column with a NaN or an inf is NaN throughout: it is solved as zeros, then
    # set.  The largest |rhs| is, for one column in one chunk, its top itself
    bad = None
    top_max = top.item() if top.size == 1 else np.maximum.reduce(top, axis=None, initial=0.0)
    if not top_max < math.inf:
        bad = ~np.isfinite(top).all(axis=1)
        terms[:, bad] = 0.0
        top[bad] = 0.0
        top_max = np.maximum.reduce(top, axis=None, initial=0.0)
    # a wide chunk's rhs spans more than _CHUNK_LOG_SPAN e-folds; its weights
    # e^(tau slope - off) >= 1 only lift its terms.  There is none where the
    # least nonzero |rhs| of the grid (past its padding) is near enough to the largest
    low = np.minimum.reduce(flat[1, :, :n], axis=None, initial=math.inf)
    # every chunk holds a row of rhs, so with no zero in rhs no chunk is zero
    zeros, divisor = low == 0.0, top
    if zeros:
        low = np.minimum.reduce(mags, axis=None, where=mags > 0, initial=math.inf)
        # a zero chunk is divided by the smallest float and stays zero
        divisor = np.maximum(top, math.ulp(0.0))
    wide = None
    if top_max > low * _CHUNK_SPAN:
        wide = top > np.minimum.reduce(mags, axis=2, where=mags > 0, initial=math.inf) * _CHUNK_SPAN
        wide = np.stack((wide, wide[:, ::-1])) if wide.any() else None
    # v at buf[pad + 1 : size + 1] after v_(-1) = 0: the prefix terms read buf[pad + 1:],
    # the suffix terms buf[1:], the rows buf backwards, each along the whole grid
    buf = np.zeros(size + pad + 1)
    buf[pad : size + 1] = kernel.v[: n + 1]
    if q > 0:
        buf[pad + 1 : size + 1 : 2] *= -1.0
    weights = buf[pad + 1 : pad + 1 + size], buf[1 : size + 1]
    rows = buf[size:0:-1], buf[size + pad - 1 :: -1][:size]
    # tau slope - off >= 0 in a chunk, with off = min(0, (L - 1) slope)
    # (rows 2 and 3 hold its negative, whose exp is the back-weight)
    off = min(0.0, (length - 1) * s0), min(0.0, (length - 1) * s1)
    tau_slopes = np.multiply.outer((s0, s1, -s0, -s1), _TAU[:length])
    for part in (0, 1):
        if off[part]:
            tau_slopes[part] -= off[part]
            tau_slopes[part + 2] += off[part]
    if wide is not None:
        # the wide chunks' running sums in log space, in units of their alpha
        part, _, chunk = np.nonzero(wide)
        raw = np.stack((terms[0], terms[0, :, ::-1, ::-1]))[wide]
        w = np.stack(weights).reshape(2, chunks, length)[part, chunk]
        logs = np.log(np.abs(raw)) + np.log(np.abs(w))
        logs += tau_slopes[part] - np.log(np.stack((top, top[:, ::-1]))[wide])[:, None]
        wide_acc, wide_scale = _scan_scaled((raw < 0) != (w < 0), logs)
    exps = np.exp(tau_slopes, out=tau_slopes)
    terms[0] /= divisor[..., None]
    np.multiply(flat[0, :, ::-1], weights[1], out=flat[1])
    flat[0] *= weights[0]
    terms *= exps[:2, None, None]
    np.add.accumulate(terms, axis=3, out=terms)
    # the back-weights e^(off - tau slope), with the sign of the rows' constant factor
    back_weights = exps[2:]
    if (q > 0 and n % 2 == 0) != (kernel.wronskian.sign < 0):
        np.negative(back_weights, out=back_weights)

    # a row of a part is at most e^(log alpha + spread): (2L + 2) max|v|^2 times
    # the (L - 1) max(0, -slope) e-folds that a sum times its back-weight
    # carries.  It is rounded to 0 below 2^-1075, and a rounding below the
    # normal floats is multiplied by max|v| <= n + 1 at most.  The quick test
    # shows the grids with no such chunk, which are most
    log_vmax = math.log(n + 1.0)
    terms_log = math.log(2 * length + 2) + 2 * log_vmax
    spreads = terms_log - off[0], terms_log - off[1]
    subnormal = _LOG_MIN_NORMAL + log_vmax
    # log alpha: log max|rhs| plus the log of the part's constant row factor;
    # a chunk's sum times e^(log alpha - base) is the sum itself
    g = -kernel.gamma - math.log(kernel.s) - math.log(abs(kernel.v[-1]))
    log_alpha = np.log(top) + np.array((g, g - s1))[:, None, None]
    if chunks > 1:
        log_alpha[1] = log_alpha[1, :, ::-1]  # the suffix part's chunks run backwards
        # the chunks' base, log alpha less the part's e-folds c L slope up to chunk c
        base = np.multiply.outer((-s0, -s1), np.arange(0, size, length))[:, None, :]
        base[0] += g - off[0]
        base[1] += g + (pad - 1) * s1 - off[1]
        # entry c + 1 holds the total of chunk c, so the scan of the totals
        # gives in entry c the carry into chunk c, the sum of the chunks before it
        tot = terms[..., :-1, -1]
        negative = np.zeros(log_alpha.shape, bool)
        np.less(tot, 0.0, out=negative[..., 1:])
        tot_logs = np.full(log_alpha.shape, -np.inf)
        shifted = tot_logs[..., 1:]
        np.log(np.abs(tot, out=shifted), out=shifted)
        shifted += log_alpha[..., :-1]
        shifted -= base[..., :-1]
        carry, log_beta = _scan_scaled(negative, tot_logs)
        log_beta += base
        # a zero chunk's sums are 0, so its alpha may be its carry's beta; the
        # carry joins the sums in units of alpha, e^(log beta - log alpha), a
        # ratio of 0 where a zero chunk has no carry either
        if zeros:
            np.copyto(log_alpha, log_beta, where=log_alpha == -np.inf)
            log_ratio = np.fmax(log_beta - log_alpha, -np.inf)
        else:  # every log alpha is finite
            log_ratio = log_beta - log_alpha
        # log beta = log alpha + log ratio: neither is above max log alpha + max(0, max log ratio)
        ratio_max = np.maximum.reduce(log_ratio, axis=None, initial=-math.inf)
        risky = (np.maximum.reduce(log_alpha, axis=None, initial=-math.inf) + max(ratio_max, 0.0)
                 + max(spreads) > _LOG_MAX or ratio_max + max(spreads) > _LOG_MAX
                 or np.minimum.reduce(log_alpha, axis=None, initial=math.inf) < subnormal)
    else:
        # one chunk, no carry: log alpha is log max|rhs| plus one constant per
        # part, bounded by the grid's largest and least nonzero |rhs|
        carry, log_beta = 0.0, -math.inf
        risky = (top_max and math.log(top_max) + max(g + spreads[0], g - s1 + spreads[1])
                 > _LOG_MAX) or math.log(low) + min(g, g - s1) < subnormal
    exact = None
    if wide is not None or risky:
        # per chunk: rows past the float range, an alpha with too few bits for
        # rows that are not 0, or a carry past the float range in units of alpha
        spread = np.array(spreads)[:, None, None]
        high = np.maximum(log_alpha, log_beta) + spread
        exact = ((log_alpha < subnormal) & (high > -1075 * math.log(2.0))) | (high > _LOG_MAX)
        if chunks > 1:
            exact |= log_ratio + spread > _LOG_MAX
        if wide is not None:
            exact |= wide
        exact = exact if exact.any() else None
    if exact is not None:
        part, _, chunk = np.nonzero(exact)
        carry, log_beta = (np.broadcast_to(a, exact.shape) for a in (carry, log_beta))
        sums, la, lb = terms[exact], log_alpha[exact][:, None], log_beta[exact][:, None]
        if wide is not None:
            sel = wide[exact]
            la = np.repeat(la, length, axis=1)
            sums[sel] = wide_acc
            la[sel] += wide_scale
        top_log = np.maximum(la, lb)
        top_log[top_log == -np.inf] = 0.0  # a zero sum: any finite shift
        sums = sums * np.exp(la - top_log) + carry[exact][:, None] * np.exp(lb - top_log)
        factors = np.stack(rows).reshape(2, chunks, length)[part, chunk] * back_weights[part]
        log_mag = np.log(np.abs(sums)) + np.log(np.abs(factors)) + top_log
        exact_rows = np.copysign(np.exp(log_mag), sums * factors)
    if chunks > 1:
        terms += (carry * np.exp(log_ratio))[..., None]
    terms *= back_weights[:, None, None]
    terms *= np.exp(log_alpha, out=log_alpha)[..., None]
    flat[0] *= rows[0]
    flat[1] *= rows[1]
    # the suffix part of row i is at padded row size - 1 - i; S_(n+1) = 0
    p, s = flat[0, :, :n].T, flat[1, :, ::-1][:, 1:n].T
    safe = exact is None or log_mag.max() < _LOG_MAX - math.log(2.0)
    if exact is not None:
        if not safe and (log_mag > _LOG_MAX).any():
            terms[...] = -np.inf
            terms[exact] = log_mag
            _check_log_mags(p, "solution term")
            _check_log_mags(s, "solution term")
        terms[exact] = exact_rows
    # the rows p + s, over p when no sum can overflow, else on a copy
    x = p if safe else p.copy()
    x[:-1] += s
    if not safe and np.isinf(x).any():
        # both parts are finite, so their halves add without overflow
        halves = p / 2.0
        halves[:-1] += s / 2.0
        _check_log_mags(np.log(np.abs(halves)) + math.log(2.0), "solution entry", np.isinf(x))
    if bad is not None:
        x[:, bad] = np.nan
    return x


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
    # at most _CHUNK rows and _CHUNK_LOG_SPAN e-folds of weights per chunk, in as
    # few chunks as that allows, evened out: under one row of padding per chunk
    log_q = math.log(abs(kernel.q))
    per_row = kernel.gamma + abs(log_q)
    cap = min(_CHUNK, n)
    if cap * per_row > _CHUNK_LOG_SPAN:
        cap = max(1, int(_CHUNK_LOG_SPAN / per_row))
    chunks = -(-n // cap)
    length = -(-n // chunks)
    k = 1 if rhs.ndim == 1 else rhs.shape[1]
    # zero chunks, padding and the exact path meet log 0, exp overflows and 0 * inf
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        terms = np.zeros((2, k, chunks * length))
        terms[0, :, :n] = rhs.T
        x = _fused(kernel, terms.reshape(2, k, chunks, length), log_q)
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
    solution NaN, with no RuntimeWarning, as in apply_inverse.  Where the
    row scale |a| + |b| + |c| is past the float range, it solves with A/4,
    exact but for a subnormal a or c, and returns a quarter of that
    solution; a refusal then quotes the pivots and the row scale of A/4.
    """
    n = spec.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise DimensionMismatch(f"expected rhs of length {n}, got shape {rhs.shape}")
    row_scale = spec.row_scale()
    if row_scale == math.inf:
        # a or c below 2^-1072 would quarter to 0, which no spec may hold
        a, c = (v / 4 or math.copysign(2.0**-1074, v) for v in (spec.a, spec.c))
        return thomas_solve(TriToeplitzSpec(a, spec.b / 4, c, n), rhs) / 4
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
    x_max = np.maximum.reduce(abs(x))
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
    resid = _matvec(spec, xs) - rs
    resid_norm = float(np.maximum.reduce(abs(resid)))
    x_max, rhs_max = math.ldexp(x_max, -e), float(np.maximum.reduce(abs(rs)))
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

