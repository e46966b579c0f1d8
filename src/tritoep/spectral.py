"""Closed-form spectrum, determinant and characteristic polynomial.

Eigenvalues come out in decreasing order (index k = 1 gives the largest),
matching theta_k = k*pi/(n+1).  Determinants are returned as sign plus
log-magnitude so they stay usable far beyond the double range; an
independent continuant-recursion path is provided as a cross-check.

Only right eigenvectors are provided.  Left eigenvectors are W * r by
weighted self-adjointness (W the weight vector, r the right vector), so
they need no operation of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheby import ScaledValue, _LOG_MAX, eval_U_scaled
from .core import TriToeplitzSpec, _check_int, symmetrise
from .errors import IndexOutOfRange

__all__ = [
    "EigenPair",
    "SpectrumSummary",
    "eigenvalues",
    "eigenvector",
    "eigen_pair",
    "extremal_eigenvalues",
    "determinant",
    "determinant_continuant",
    "char_poly_eval",
]

# below this magnitude of U_n((t-b)/(2s)) the characteristic polynomial is
# reported as an exact zero (sign 0)
_CHARPOLY_ZERO_TOL = 1e-10

_NORMALIZATIONS = ("raw", "unit_weighted", "unit_euclidean")


@dataclass(frozen=True)
class EigenPair:
    """One closed-form eigenpair: angle, value, and both eigenvector forms.

    ``right_vector`` has entries q^(j-1) * sin(j*theta_k); it equals the
    diagonal scaling D applied to ``symmetric_vector`` (entries
    sin(j*theta_k)), which is the eigenvector of the symmetrised matrix.
    """

    k: int
    theta: float
    value: float
    right_vector: np.ndarray
    symmetric_vector: np.ndarray


@dataclass(frozen=True)
class SpectrumSummary:
    lambda_min: float
    lambda_max: float
    positive_definite: bool


def eigenvalues(spec: TriToeplitzSpec) -> np.ndarray:
    """All n eigenvalues b + 2s*cos(k*pi/(n+1)), k = 1..n (decreasing)."""
    return _eigenvalues_at(spec, np.arange(1, spec.n + 1))


def _eigenvalues_at(spec: TriToeplitzSpec, k: np.ndarray) -> np.ndarray:
    """Eigenvalues b + 2s*cos(k*pi/(n+1)) for an array of 1-based indices k."""
    form = symmetrise(spec)
    return spec.b + 2.0 * form.s * np.cos(k * math.pi / (spec.n + 1))


def eigenvector(spec: TriToeplitzSpec, k: int, normalization: str = "raw") -> np.ndarray:
    """Right eigenvector for the k-th eigenvalue.

    ``raw`` returns the literal entries q^(j-1)*sin(j*theta_k);
    ``unit_weighted`` rescales to unit W-norm, ``unit_euclidean`` to unit
    Euclidean norm with the first nonzero entry positive.  Raises
    OverflowError when |q|^(n-1) leaves the float range, whatever the
    normalization.
    """
    form = symmetrise(spec)
    k = _check_int(k, "index", 1, spec.n, IndexOutOfRange)
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {_NORMALIZATIONS}, got {normalization!r}")
    theta = k * math.pi / (spec.n + 1)
    j = np.arange(1, spec.n + 1)
    sines = np.sin(j * theta)
    vec = _right_vector(form.q, j, sines)
    if normalization == "raw":
        return vec
    if normalization == "unit_weighted":
        # w_j * vec_j^2 = sin^2(j*theta), so the W-norm is the Euclidean
        # norm of the sine vector; no q powers are needed
        return vec / np.linalg.norm(sines)
    nrm = np.linalg.norm(vec)
    vec = vec / nrm
    first = vec[np.nonzero(vec)[0][0]]
    return vec if first > 0 else -vec


def _right_vector(q: float, j: np.ndarray, sines: np.ndarray) -> np.ndarray:
    """Entries q^(j-1) * sines_j; OverflowError when |q|^(n-1) overflows."""
    growth = (len(j) - 1) * math.log(abs(q))
    if growth > _LOG_MAX:
        raise OverflowError(
            f"eigenvector entry q^(n-1) has log-magnitude {growth:.6g}, "
            "beyond the float range"
        )
    return np.power(q, j - 1) * sines


def eigen_pair(spec: TriToeplitzSpec, k: int) -> EigenPair:
    """Bundle theta_k, lambda_k and both eigenvector forms for index k.

    Raises OverflowError as eigenvector does.
    """
    form = symmetrise(spec)
    k = _check_int(k, "index", 1, spec.n, IndexOutOfRange)
    theta = k * math.pi / (spec.n + 1)
    j = np.arange(1, spec.n + 1)
    sines = np.sin(j * theta)
    return EigenPair(
        k=k,
        theta=theta,
        value=spec.b + 2.0 * form.s * math.cos(theta),
        right_vector=_right_vector(form.q, j, sines),
        symmetric_vector=sines,
    )


def extremal_eigenvalues(spec: TriToeplitzSpec) -> SpectrumSummary:
    """Largest/smallest eigenvalue and the positive-definiteness flag.

    lambda_max = b + 2s*cos(pi/(n+1)), lambda_min = b - 2s*cos(pi/(n+1));
    the matrix is positive definite exactly when b exceeds
    2s*cos(pi/(n+1)).
    """
    form = symmetrise(spec)
    edge = 2.0 * form.s * math.cos(math.pi / (spec.n + 1))
    return SpectrumSummary(
        lambda_min=spec.b - edge,
        lambda_max=spec.b + edge,
        positive_definite=spec.b > edge,
    )


def determinant(spec: TriToeplitzSpec) -> ScaledValue:
    """det = s^n * U_n(b/(2s)) in scaled form."""
    form = symmetrise(spec)
    u = eval_U_scaled(spec.n, form.x)
    if u.sign == 0:
        return u
    return ScaledValue(u.sign, spec.n * math.log(form.s) + u.log_mag)


def determinant_continuant(spec: TriToeplitzSpec) -> ScaledValue:
    """Determinant via the recursion D_k = b*D_{k-1} - s^2*D_{k-2}.

    Carried with running rescaling so intermediate values never leave the
    float range; an independent cross-check of :func:`determinant`.
    """
    form = symmetrise(spec)
    s2 = form.s * form.s
    b = spec.b
    d_prev, d_cur = 1.0, b
    offset = 0.0
    for _ in range(spec.n - 1):
        d_prev, d_cur = d_cur, b * d_cur - s2 * d_prev
        mag = max(abs(d_prev), abs(d_cur))
        if mag > 1e150 or (0.0 < mag < 1e-150):
            d_prev /= mag
            d_cur /= mag
            offset += math.log(mag)
    if d_cur == 0.0:
        return ScaledValue(0, -math.inf)
    return ScaledValue(1 if d_cur > 0 else -1, math.log(abs(d_cur)) + offset)


def char_poly_eval(spec: TriToeplitzSpec, t: float) -> ScaledValue:
    """Characteristic polynomial det(t*I - A) = s^n * U_n((t-b)/(2s)).

    Returns sign 0 whenever |U_n((t-b)/(2s))| falls below 1e-10, i.e. when
    t is an eigenvalue up to that tolerance.
    """
    form = symmetrise(spec)
    u = eval_U_scaled(spec.n, (t - spec.b) / (2.0 * form.s))
    if u.sign == 0 or u.log_mag <= math.log(_CHARPOLY_ZERO_TOL):
        return ScaledValue(0, -math.inf)
    return ScaledValue(u.sign, spec.n * math.log(form.s) + u.log_mag)
