"""Weighted inner products and norms, and the sharp condition number.

In the weight W = D^(-2) the matrix is self-adjoint, so its weighted
operator norm is the spectral radius and the weighted condition number of
a positive definite instance collapses to the closed ratio

    (b + 2s cos(pi/(n+1))) / (b - 2s cos(pi/(n+1))).

Invertible indefinite instances fall back to max|lambda| / min|lambda|;
min|lambda| <= singular_tol (|b| + 2s), a scale-free rule, counts as singular.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _LAZY
from .core import (_SINGULAR_TOL, TriToeplitzSpec, _beyond_range, _check_singular_tol,
                   _record, _times_spread, symmetrise)
from .errors import DimensionMismatch, InvalidParameter, SingularMatrix
from .spectral import _eigenvalue, _extremes

if TYPE_CHECKING:
    import numpy as np

__all__ = _LAZY["conditioning"]


@_record
class ConditionReport:
    """Spectral extremes plus the weighted condition number.

    ``formula_value`` is the closed positive-definite ratio and is None
    for indefinite (but invertible) instances, where ``cond_weighted``
    holds the general |lambda| ratio instead.
    """

    lambda_max: float
    lambda_min: float
    positive_definite: bool
    cond_weighted: float
    formula_value: float | None


def _as_vector(u) -> np.ndarray:
    import numpy as np

    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {u.shape}")
    return u


def _scaled_inner(w, u, v) -> tuple[float, int]:
    """(d, e) with sum_j w_j u_j v_j = d 2^e and |d| <= n, to the rounding of a plain sum.

    Each factor is split into its frexp mantissa and power of two, exactly,
    and the terms are taken on the mantissas in units of the largest term's
    power of two, so no term over- or underflows but one below 2^-1022 of
    the largest, and no partial sum overflows.  Two terms that cancel
    exactly give 0.  A NaN or an inf of u or v gives a NaN or an inf d.
    """
    import numpy as np

    w, u, v = _as_vector(w), _as_vector(u), _as_vector(v)
    if not (len(w) == len(u) == len(v)):
        raise DimensionMismatch(
            f"length mismatch: w has {len(w)}, u has {len(u)}, v has {len(v)}"
        )
    bad = ~((w >= 0.0) & (w < math.inf))
    if bad.any():
        j = int(np.argmax(bad))
        raise InvalidParameter(
            f"weights must be finite and nonnegative, got w_{j + 1} = {float(w[j])!r}")
    (mw, ew), (mu, eu), (mv, ev) = np.frexp(w), np.frexp(u), np.frexp(v)
    p = np.multiply(mw, mu, out=mw)
    e = np.add(ew, eu, out=ew)
    e += ev
    low = int(np.iinfo(e.dtype).min)
    top = int(np.max(e, where=(p != 0.0) & (mv != 0.0), initial=low))
    if top == low:  # every term is 0
        return 0.0, 0
    # v_j in units of 2^top over w_j u_j's power, at most 1; a zero term's is capped
    e -= top
    p *= np.ldexp(mv, np.minimum(e, 0, out=e), out=mv)
    return float(np.sum(p)), top


def _ldexp(d: float, e: int, what: str) -> float:
    """d 2^e, or OverflowError naming what when it is past the float range."""
    try:
        return math.ldexp(d, e)
    except OverflowError:
        raise _beyond_range(what, math.log(abs(d)) + e * math.log(2.0)) from None


def weighted_inner(w, u, v) -> float:
    """sum_j w_j u_j v_j, for finite nonnegative weights w.

    No product or partial sum over- or underflows on the way (see
    ``_scaled_inner``); a sum past the float range raises OverflowError,
    and a negative or non-finite weight InvalidParameter.
    """
    d, e = _scaled_inner(w, u, v)
    return _ldexp(d, e, "weighted inner product")


def weighted_norm(w, u) -> float:
    """sqrt(sum_j w_j u_j^2), with no over- or underflow on the way, as weighted_inner."""
    d, e = _scaled_inner(w, u, u)
    # sqrt(d 2^e) = sqrt(d 2^(e mod 2)) 2^(e // 2), the power of two taken exactly
    return _ldexp(math.sqrt(math.ldexp(d, e % 2)), e // 2, "weighted norm")


def weighted_condition(spec: TriToeplitzSpec,
                       singular_tol: float = _SINGULAR_TOL) -> ConditionReport:
    """Weighted condition number with the closed formula on the PD branch.

    Raises SingularMatrix when the smallest eigenvalue magnitude is at
    most singular_tol times |b| + 2s, which scales with the matrix.  O(1)
    on Python floats: only the eigenvalues that can be extreme in
    magnitude are evaluated, each by ``spectral``'s one expression, so
    they equal the entries of ``eigenvalues(spec)`` bit for bit.  They are
    accurate normwise (see ``eigenvalues``), to a few eps of |b| + 2s, so
    a smallest magnitude far below s, and the condition number built on
    it, carries a large relative error.
    """
    _check_singular_tol(singular_tol)
    form = symmetrise(spec)
    x, n, s = form.x, spec.n, form.s
    lam_max, lam_min = _extremes(spec, s)
    # |lambda_k| = 2s |x + cos(k pi/(n+1))| falls up to k = phi, where the
    # cosine equals -x, and rises after it, so max|lambda| sits at k = 1 or
    # k = n and min|lambda| there or at one of the two indices around phi;
    # lam_max is lambda_1 as _eigenvalue gives it, bit for bit
    k = [n]
    if abs(x) <= 1.0:
        phi = (n + 1) * math.acos(-x) / math.pi
        k += [min(max(math.floor(phi), 1), n), min(max(math.ceil(phi), 1), n)]
    lam = [abs(lam_max)] + [abs(_eigenvalue(spec, s, j)) for j in k]
    abs_min, abs_max = min(lam), max(lam)
    # not max|lambda|: at n = 1, b = 0 it is 2s cos(pi/2) = 1.2e-16 s, not 0
    if abs_min <= _times_spread(singular_tol, spec.b, s):
        raise SingularMatrix(
            f"smallest eigenvalue magnitude {abs_min!r} is below tolerance"
        )
    if lam_min > 0:  # positive definite
        value = lam_max / lam_min
        return ConditionReport(lam_max, lam_min, True, value, value)
    return ConditionReport(lam_max, lam_min, False, abs_max / abs_min, None)
