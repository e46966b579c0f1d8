"""Exact repunit arithmetic and the repunit specialisation a = d, b = d+1, c = 1.

The repunit R_m(d) = 1 + d + ... + d^(m-1) is the determinant of the
(m-1) x (m-1) member of this family, every factor of its cosine-product
factorisation is an eigenvalue, and the inverse entries are ratios of
repunits.  Integer bases get exact big-integer / rational paths; real
bases use stable log-space floating arithmetic.

The inverse-entry prefactor deserves a note.  A superficially plausible
variant multiplies the entry by d^((i-j)/2)/sqrt(d); it fails the exact
arbiter V * V^(-1) = I (for d = 10, n = 2 it yields -1/1110 at (1, 2)
where the true entry is -1/111).  The plain product form implemented in
:func:`repunit_inverse_entry` is the one consistent with the Chebyshev
kernel and with dense inversion; the variant is kept as
:func:`inverse_entry_alt_scaling` so tests can document the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cheby import _log1mexp, eval_U_scaled
from .core import TriToeplitzSpec, _check_int, make_spec
from .errors import IndexOutOfRange, InvalidBase
from .spectral import eigenvalues, extremal_eigenvalues

__all__ = [
    "RepunitValue",
    "RepunitInverseEntry",
    "ALT_SCALING_NOTE",
    "repunit",
    "log_repunit",
    "repunit_matrix_spec",
    "repunit_det_exact",
    "cosine_product",
    "cosine_product_log",
    "repunit_condition",
    "repunit_inverse_entry",
    "inverse_entry_alt_scaling",
    "cheb_repunit_identity_residual",
]

ALT_SCALING_NOTE = (
    "The alternative inverse-entry prefactor (-1)^(i+j) * d^((i-j)/2) / sqrt(d) "
    "is inconsistent with the inverse kernel: for d = 10, n = 2 it gives -1/1110 "
    "at entry (1, 2) while the dense inverse gives -1/111.  The implemented form "
    "(-1)^(i+j) * R_i * R_{n+1-j} / R_{n+1} (times d^(i-j) below the diagonal) "
    "satisfies V * V^(-1) = I in exact rational arithmetic."
)


@dataclass(frozen=True)
class RepunitValue:
    """R_m(d) with an exact integer value whenever d is a positive integer.

    ``float_value`` is +inf when the exact value exceeds the float range.
    """

    d: float
    m: int
    exact_value: int | None
    float_value: float


@dataclass(frozen=True)
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
    if isinstance(d, bool) or not isinstance(d, (int, float, np.integer, np.floating)):
        raise InvalidBase(f"base d must be a positive real, got {d!r}")
    if not math.isfinite(d) or d <= 0:
        raise InvalidBase(f"base d must be positive and finite, got {d!r}")
    return float(d)


def _integer_base(d) -> int | None:
    """The exact integer base, or None when d is not a positive integer."""
    if isinstance(d, (int, np.integer)) and not isinstance(d, bool):
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
    the closed form (d^m - 1)/(d - 1) in floating point.
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
    try:
        fv = (dv**m - 1.0) / (dv - 1.0)
    except OverflowError:
        fv = math.inf
    return RepunitValue(d=dv, m=m, exact_value=None, float_value=fv)


def log_repunit(m: int, d) -> float:
    """log R_m(d), stable for large m and for d near 1."""
    m = _check_int(m, "m", 1)
    dv = _check_base(d)
    di = _integer_base(d)
    if di is not None and di > 1:
        return math.log(_repunit_int(m, di))
    if dv == 1.0:
        return math.log(m)
    e = dv - 1.0
    log_d = math.log1p(e)
    if dv > 1.0:
        # (d^m - 1)/(d - 1) = d^m (1 - d^-m)/(d - 1)
        return m * log_d + _log1mexp(m * log_d) - math.log(e)
    return _log1mexp(-m * log_d) - math.log(-e)


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
    return math.exp(cosine_product_log(d, n))


def cosine_product_log(d, n: int) -> float:
    """Natural log of :func:`cosine_product`; never overflows.

    The factors are the eigenvalues of the repunit matrix.
    """
    return math.fsum(np.log(eigenvalues(repunit_matrix_spec(d, n))))


def repunit_condition(d, n: int) -> float:
    """Weighted condition number of the n x n repunit matrix (closed form)."""
    ext = extremal_eigenvalues(repunit_matrix_spec(d, n))
    return ext.lambda_max / ext.lambda_min


def repunit_inverse_entry(d, n: int, i: int, j: int) -> RepunitInverseEntry:
    """Exact rational inverse entry of the n x n repunit matrix.

    (-1)^(i+j) R_i R_{n+1-j} / R_{n+1} for i <= j; below the diagonal the
    mirrored product picks up the weighted-symmetry factor d^(i-j).
    """
    di = _require_integer_base(d)
    n = _check_int(n, "n", 1)
    i = _check_int(i, "index", 1, n, IndexOutOfRange)
    j = _check_int(j, "index", 1, n, IndexOutOfRange)
    denom = _repunit_int(n + 1, di)
    if i <= j:
        rational = Fraction(_repunit_int(i, di) * _repunit_int(n + 1 - j, di), denom)
    else:
        rational = Fraction(
            di ** (i - j) * _repunit_int(j, di) * _repunit_int(n + 1 - i, di), denom
        )
    sign = 1 if (i + j) % 2 == 0 else -1
    try:
        fv = float(sign * rational)
    except OverflowError:
        fv = math.copysign(math.inf, sign)
    return RepunitInverseEntry(
        i=i, j=j, sign=sign, rational_part=rational, float_value=fv
    )


def inverse_entry_alt_scaling(d, n: int, i: int, j: int):
    """The rejected d^((i-j)/2)/sqrt(d)-scaled variant of the inverse entry.

    Returns an exact Fraction when the extra exponent (i - j - 1)/2 is an
    integer and a float otherwise.  See ALT_SCALING_NOTE: this variant
    fails the exact identity V * V^(-1) = I and exists only so the
    discrepancy stays documented and testable.
    """
    di = _require_integer_base(d)
    n = _check_int(n, "n", 1)
    entry = repunit_inverse_entry(di, n, i, j)
    # the plain entry without its d^(i-j) factor below the diagonal
    base = entry.value
    if entry.i > entry.j:
        base /= Fraction(di) ** (entry.i - entry.j)
    exponent = entry.i - entry.j - 1
    if exponent % 2 == 0:
        return base * Fraction(di) ** (exponent // 2)
    return float(base) * di ** (exponent / 2.0)


def cheb_repunit_identity_residual(d, m: int) -> float:
    """Relative residual of U_m((d+1)/(2 sqrt(d))) = d^(-m/2) R_{m+1}(d).

    Both sides are compared in log space so the residual stays meaningful
    for large m.
    """
    dv = _check_base(d)
    m = _check_int(m, "m", 0)
    lhs = eval_U_scaled(m, (dv + 1.0) / (2.0 * math.sqrt(dv)))
    rhs_log = -0.5 * m * math.log(dv) + log_repunit(m + 1, dv)
    if lhs.sign != 1:
        return math.inf
    return abs(math.expm1(lhs.log_mag - rhs_log))
