"""Weighted inner products, operator norm, and the sharp condition number.

In the weight W = D^(-2) the matrix is self-adjoint, so its weighted
operator norm is the spectral radius and the weighted condition number of
a positive definite instance collapses to the closed ratio

    (b + 2s cos(pi/(n+1))) / (b - 2s cos(pi/(n+1))).

Invertible indefinite instances fall back to max|lambda| / min|lambda|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TriToeplitzSpec, _check_singular_tol, symmetrise
from .errors import DimensionMismatch, SingularMatrix
from .spectral import _eigenvalues_at, extremal_eigenvalues

__all__ = [
    "ConditionReport",
    "weighted_inner",
    "weighted_norm",
    "weighted_condition",
    "weighted_operator_norm",
]


@dataclass(frozen=True)
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
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {u.shape}")
    return u


def weighted_inner(w, u, v) -> float:
    """sum_j w_j u_j v_j."""
    w, u, v = _as_vector(w), _as_vector(u), _as_vector(v)
    if not (len(w) == len(u) == len(v)):
        raise DimensionMismatch(
            f"length mismatch: w has {len(w)}, u has {len(u)}, v has {len(v)}"
        )
    return float(np.dot(w * u, v))


def weighted_norm(w, u) -> float:
    return math.sqrt(weighted_inner(w, u, u))


def weighted_operator_norm(spec: TriToeplitzSpec) -> float:
    """max_k |lambda_k|, attained at k = 1 or k = n."""
    ext = extremal_eigenvalues(spec)
    return max(abs(ext.lambda_max), abs(ext.lambda_min))


def weighted_condition(spec: TriToeplitzSpec, singular_tol: float = 1e-12) -> ConditionReport:
    """Weighted condition number with the closed formula on the PD branch.

    Raises SingularMatrix when some eigenvalue magnitude falls below
    singular_tol times the spectral scale.  O(1): only the eigenvalues
    that can be extreme in magnitude are evaluated.
    """
    _check_singular_tol(singular_tol)
    x = symmetrise(spec).x
    n = spec.n
    # |lambda_k| = 2s |x + cos(k pi/(n+1))| falls up to k = phi, where the
    # cosine equals -x, and rises after it, so max|lambda| sits at k = 1 or
    # k = n and min|lambda| there or at one of the two indices around phi
    k = [1, n]
    if abs(x) <= 1.0:
        phi = (n + 1) * math.acos(-x) / math.pi
        k += [min(max(math.floor(phi), 1), n), min(max(math.ceil(phi), 1), n)]
    lam = np.abs(_eigenvalues_at(spec, np.array(k))).tolist()
    abs_min, abs_max = min(lam), max(lam)
    if abs_min <= singular_tol * max(1.0, abs_max):
        raise SingularMatrix(
            f"smallest eigenvalue magnitude {abs_min!r} is below tolerance"
        )
    ext = extremal_eigenvalues(spec)
    lam_max, lam_min = ext.lambda_max, ext.lambda_min
    if ext.positive_definite:
        value = lam_max / lam_min
        return ConditionReport(lam_max, lam_min, True, value, value)
    return ConditionReport(lam_max, lam_min, False, abs_max / abs_min, None)
