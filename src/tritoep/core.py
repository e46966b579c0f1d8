"""Tridiagonal Toeplitz parameter records, diagonal symmetrisation and the
weighted inner-product structure.

A spec (a, b, c, n) describes the n x n matrix with constant diagonal b,
subdiagonal a and superdiagonal c.  When a*c > 0 the matrix is similar to a
symmetric one via the diagonal D = diag(1, q, ..., q^(n-1)); D is never
materialised, every use goes through q (sign plus log-magnitude), so large
orders do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidOrder,
    InvalidParameter,
    NotSymmetrisable,
    TriToeplitzError,
    ZeroOffDiagonal,
)

__all__ = [
    "TriToeplitzSpec",
    "SymmetrisedForm",
    "make_spec",
    "symmetrise",
    "weight_vector",
    "apply_matvec",
    "weighted_selfadjoint_residual",
]


def _check_int(value, name: str, lo: int, hi: int | None = None,
               error: type[TriToeplitzError] = InvalidOrder) -> int:
    """``value`` as a plain int, checked to be an integer in lo..hi.

    The one validator for orders, degrees, lengths and 1-based indices;
    ``hi=None`` leaves the range open above, and each caller names the
    error class it raises.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= value <= hi:
        raise error(f"{name} {value} outside {lo}..{hi}")
    if value < lo:
        bound = "a nonnegative integer" if lo == 0 else f">= {lo}"
        raise error(f"{name} must be {bound}, got {value}")
    return int(value)


def _check_singular_tol(singular_tol) -> None:
    """Refuse a singularity tolerance that is not a positive number (NaN too)."""
    if not singular_tol > 0:
        raise TriToeplitzError(f"singular_tol must be positive, got {singular_tol!r}")


@dataclass(frozen=True)
class TriToeplitzSpec:
    """Parameters (a, b, c, n) of a real tridiagonal Toeplitz matrix.

    Validated eagerly: a and c must be nonzero finite reals, b finite,
    n a positive integer.
    """

    a: float
    b: float
    c: float
    n: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(
                v, (int, float, np.integer, np.floating)
            ):
                raise InvalidParameter(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise InvalidParameter(f"{name} must be finite, got {v!r}")
        if self.a == 0 or self.c == 0:
            raise ZeroOffDiagonal("off-diagonal entries a and c must be nonzero")
        n = _check_int(self.n, "order n", 1)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "n", n)

    @property
    def symmetrisable(self) -> bool:
        """True when a*c > 0, i.e. a diagonal similarity to a symmetric matrix exists."""
        return self.a * self.c > 0

    def row_scale(self) -> float:
        return abs(self.a) + abs(self.b) + abs(self.c)


@dataclass(frozen=True)
class SymmetrisedForm:
    """Derived parameters of the symmetrised matrix.

    s is the off-diagonal of the symmetric similar matrix, q the ratio of
    the implied diagonal similarity (D_jj = q^(j-1)), and x = b/(2s) the
    argument at which all closed forms are evaluated.
    """

    s: float
    q: float
    x: float
    n: int


def make_spec(a: float, b: float, c: float, n: int) -> TriToeplitzSpec:
    """Validate and freeze matrix parameters.

    Raises ZeroOffDiagonal when a or c vanishes and InvalidOrder when
    n < 1; every other operation in the package consumes the returned
    record and may assume these invariants.
    """
    return TriToeplitzSpec(a, b, c, n)


def _require_symmetrisable(spec: TriToeplitzSpec) -> None:
    if not spec.symmetrisable:
        raise NotSymmetrisable(
            f"a*c = {spec.a * spec.c!r} <= 0: no diagonal symmetrisation exists"
        )


def symmetrise(spec: TriToeplitzSpec) -> SymmetrisedForm:
    """Return (s, q, x) with s = sqrt(a*c), q = s/c and x = b/(2s).

    Conjugating by D = diag(q^(j-1)) turns the matrix into the symmetric
    tridiagonal Toeplitz matrix with diagonal b and off-diagonal s.
    Requires a*c > 0; note q < 0 whenever a, c < 0.
    """
    _require_symmetrisable(spec)
    s = math.sqrt(spec.a * spec.c)
    q = s / spec.c
    x = spec.b / (2.0 * s)
    return SymmetrisedForm(s=s, q=q, x=x, n=spec.n)


def weight_vector(spec: TriToeplitzSpec) -> np.ndarray:
    """Entries w_j = q^(-2(j-1)) of the diagonal weight W = D^(-2).

    The weights are strictly positive (even exponents) with w_1 = 1; in
    the inner product <u, v>_W = sum_j w_j u_j v_j the matrix is
    self-adjoint.
    """
    form = symmetrise(spec)
    j = np.arange(spec.n, dtype=float)
    # q^2 > 0 regardless of the sign of q; even exponents keep every entry positive
    return np.power(form.q * form.q, -j)


def apply_matvec(spec: TriToeplitzSpec, v) -> np.ndarray:
    """Multiply the tridiagonal matrix onto v in O(n) without materialising it."""
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.n,):
        raise DimensionMismatch(f"expected vector of length {spec.n}, got shape {v.shape}")
    out = spec.b * v
    if spec.n > 1:
        out[1:] += spec.a * v[:-1]
        out[:-1] += spec.c * v[1:]
    return out


def weighted_selfadjoint_residual(spec: TriToeplitzSpec) -> float:
    """Max-entry absolute value of A^T W - W A.

    The residual lives only on the two off-diagonals, where it equals
    a*w_{i+1} - c*w_i, so it is computed entrywise in O(n).  Zero in exact
    arithmetic; a small multiple of machine epsilon times the scale
    max(|a|,|b|,|c|)*max_j w_j in floating point.
    """
    _require_symmetrisable(spec)
    if spec.n == 1:
        return 0.0
    w = weight_vector(spec)
    return float(np.max(np.abs(spec.a * w[1:] - spec.c * w[:-1])))
