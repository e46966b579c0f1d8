"""Exact repunit arithmetic and the repunit specialisation a = d, b = d+1, c = 1.

The repunit R_m(d) = 1 + d + ... + d^(m-1) is the determinant of the
(m-1) x (m-1) member of this family, every factor of its cosine-product
factorisation is an eigenvalue, and the inverse entries are ratios of
repunits.  Integer bases get exact big-integer / rational paths; real
bases use stable log-space floating arithmetic.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _LAZY
from .cheby import _log1mexp, eval_U_scaled
from .core import TriToeplitzSpec, _check_int, _exp_signed, _is_real, _record, make_spec
from .errors import IndexOutOfRange, InvalidBase

if TYPE_CHECKING:
    from fractions import Fraction

# spectral (cosine product, condition number) and fractions (exact inverse
# entries) are imported where used: computing a repunit loads neither

__all__ = _LAZY["repunit"]

@_record
class RepunitValue:
    """R_m(d) with an exact integer value whenever d is a positive integer.

    ``float_value`` is +inf when the exact value exceeds the float range.
    """

    d: float
    m: int
    exact_value: int | None
    float_value: float


@_record
class RepunitInverseEntry:
    """One exact inverse entry of the repunit matrix.

    ``rational_part`` is the positive reduced fraction
    R_i R_{n+1-j} / R_{n+1} for i <= j, with indices mirrored and an extra
    d^(i-j) below the diagonal; the signed entry is ``value``.
    """

    i: int
    j: int
    sign: int
    rational_part: Fraction
    float_value: float

    @property
    def value(self) -> Fraction:
        return self.sign * self.rational_part


def _check_base(d) -> float:
    if not _is_real(d):
        raise InvalidBase(f"base d must be a positive real, got {d!r}")
    if not math.isfinite(d) or d <= 0:
        raise InvalidBase(f"base d must be positive and finite, got {d!r}")
    return float(d)


def _integer_base(d) -> int | None:
    """The exact integer base, or None when d is not a positive integer."""
    if _is_real(d, integral=True):
        return int(d) if d >= 1 else None
    if isinstance(d, float) and d.is_integer() and d >= 1:
        return int(d)
    return None


def _require_integer_base(d) -> int:
    di = _integer_base(d)
    if di is None:
        raise InvalidBase(f"exact path needs a positive integer base, got {d!r}")
    return di


def _repunit_int(m: int, d: int) -> int:
    return m if d == 1 else (d**m - 1) // (d - 1)


def repunit(m: int, d) -> RepunitValue:
    """R_m(d) = 1 + d + ... + d^(m-1), with R_m(1) = m.

    Positive integer bases get an exact big-integer value; other bases use
    the closed form (d^m - 1)/(d - 1) in floating point, with d^m - 1 as
    expm1(m log d) where |m log d| < 1 and m > 1.
    """
    m = _check_int(m, "m", 1)
    dv = _check_base(d)
    di = _integer_base(d)
    if di is not None:
        exact = _repunit_int(m, di)
        try:
            fv = float(exact)
        except OverflowError:
            fv = math.inf
        return RepunitValue(d=dv, m=m, exact_value=exact, float_value=fv)
    if dv == 1.0:
        return RepunitValue(d=dv, m=m, exact_value=None, float_value=float(m))
    # d^m - 1 cancels where d^m is near 1 and expm1(m log d) does not; at
    # m = 1 it is d - 1 itself, so R_1 = 1 stays exact
    log_d = math.log(dv)
    near_one = m > 1 and abs(m * log_d) < 1.0
    try:
        fv = (math.expm1(m * log_d) if near_one else dv**m - 1.0) / (dv - 1.0)
    except OverflowError:
        fv = math.inf
    return RepunitValue(d=dv, m=m, exact_value=None, float_value=fv)


def _log_repunit(m: int, d) -> float:
    """log R_m(d), stable for large m and for d near 1."""
    m = _check_int(m, "m", 1)
    dv = _check_base(d)
    di = _integer_base(d)
    if di is not None and di > 1:
        return math.log(_repunit_int(m, di))
    if dv == 1.0:
        return math.log(m)
    if dv > 1.0:
        # (d^m - 1)/(d - 1) = d^m (1 - d^-m)/(d - 1)
        e = dv - 1.0
        log_d = math.log1p(e)
        return m * log_d + _log1mexp(m * log_d) - math.log(e)
    # R_m = 1 + d (1 - d^(m-1))/(1 - d), d^(m-1) from log d: exact 0 at m = 1,
    # and no log of d - 1, which rounds to -1 for a tiny d
    return math.log1p(dv * -math.expm1((m - 1) * math.log(dv)) / (1.0 - dv))


def repunit_matrix_spec(d, n: int) -> TriToeplitzSpec:
    """The spec (a, b, c) = (d, d+1, 1) whose determinant is R_{n+1}(d).

    The symmetrised parameters are s = q = sqrt(d) and
    x = (d+1)/(2 sqrt(d)) >= 1, with equality exactly at d = 1.
    """
    dv = _check_base(d)
    n = _check_int(n, "n", 1)
    return make_spec(dv, dv + 1.0, 1.0, n)


def repunit_det_exact(d, n: int) -> int:
    """det of the n x n repunit matrix by exact integer continuant recursion."""
    di = _require_integer_base(d)
    n = _check_int(n, "n", 1)
    det_prev, det_cur = 1, di + 1
    for _ in range(n - 1):
        det_prev, det_cur = det_cur, (di + 1) * det_cur - di * det_prev
    return det_cur


def cosine_product(d, n: int) -> float:
    """prod_k (d + 1 + 2 sqrt(d) cos(k pi/(n+1))), k = 1..n.

    Every factor is positive (d + 1 >= 2 sqrt(d)), so the product is
    accumulated as a sum of logarithms; raises OverflowError when the
    plain value is unrepresentable (see :func:`cosine_product_log`).
    """
    return _exp_signed(1, cosine_product_log(d, n), "cosine product")


def cosine_product_log(d, n: int) -> float:
    """Natural log of :func:`cosine_product`; never overflows.

    The factors are the eigenvalues of the repunit matrix.
    """
    import numpy as np

    from .spectral import eigenvalues

    return math.fsum(np.log(eigenvalues(repunit_matrix_spec(d, n))))


def repunit_condition(d, n: int) -> float:
    """Weighted condition number of the n x n repunit matrix (closed form)."""
    from .spectral import extremal_eigenvalues

    ext = extremal_eigenvalues(repunit_matrix_spec(d, n))
    return ext.lambda_max / ext.lambda_min


def repunit_inverse_entry(d, n: int, i: int, j: int) -> RepunitInverseEntry:
    """Exact rational inverse entry of the n x n repunit matrix.

    (-1)^(i+j) R_i R_{n+1-j} / R_{n+1} for i <= j; below the diagonal the
    mirrored product picks up the weighted-symmetry factor d^(i-j).
    """
    from fractions import Fraction

    di = _require_integer_base(d)
    n = _check_int(n, "n", 1)
    i = _check_int(i, "index", 1, n, IndexOutOfRange)
    j = _check_int(j, "index", 1, n, IndexOutOfRange)
    rational = Fraction(di ** max(i - j, 0) * _repunit_int(min(i, j), di)
                        * _repunit_int(n + 1 - max(i, j), di), _repunit_int(n + 1, di))
    sign = 1 if (i + j) % 2 == 0 else -1
    try:
        fv = float(sign * rational)
    except OverflowError:
        fv = math.copysign(math.inf, sign)
    return RepunitInverseEntry(
        i=i, j=j, sign=sign, rational_part=rational, float_value=fv
    )


def cheb_repunit_identity_residual(d, m: int) -> float:
    """Relative residual of U_m((d+1)/(2 sqrt(d))) = d^(-m/2) R_{m+1}(d).

    Both sides are compared in log space so the residual stays meaningful
    for large m.
    """
    dv = _check_base(d)
    m = _check_int(m, "m", 0)
    # x >= 1 in floats too, as fl(d + 1) >= fl(2 sqrt d) = 2 fl(sqrt d), so U_m(x) > 0
    lhs = eval_U_scaled(m, (dv + 1.0) / (2.0 * math.sqrt(dv)))
    rhs_log = -0.5 * m * math.log(dv) + _log_repunit(m + 1, dv)
    return abs(math.expm1(lhs.log_mag - rhs_log))
