"""Closed-form spectrum, determinant and characteristic polynomial.

Eigenvalues come out in decreasing order (index k = 1 gives the largest),
matching theta_k = k*pi/(n+1); one past the float range is refused with
OverflowError, naming k.  No closed form forms 2s, which overflows from
s = 2^1023 on.  Determinants are returned as sign plus log-magnitude so they
stay usable far beyond the double range; an independent continuant path,
run in units of s^k, is provided as a cross-check.

Only right eigenvectors are provided.  Left eigenvectors are W * r by
weighted self-adjointness (W the weight vector, r the right vector), so
they need no operation of their own.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _LAZY
from .cheby import ScaledValue, _check_x, _three_term, eval_U_scaled
from .core import (_NORMALIZATIONS, TriToeplitzSpec, _beyond_range, _check_int, _check_log_mag,
                   _half_ratio, _record, symmetrise)
from .errors import IndexOutOfRange, InvalidParameter

if TYPE_CHECKING:
    import numpy as np

__all__ = _LAZY["spectral"]

# below this magnitude of U_n((t-b)/(2s)) the characteristic polynomial is
# reported as an exact zero (sign 0)
_CHARPOLY_ZERO_TOL = 1e-10


@_record(eq=False)
class EigenPair:
    """One closed-form eigenpair: angle, value, and both eigenvector forms.

    ``right_vector`` has entries q^(j-1) * sin(j*theta_k); it equals the
    diagonal scaling D applied to ``symmetric_vector`` (entries
    sin(j*theta_k)), which is the eigenvector of the symmetrised matrix.
    It holds arrays, so ``==`` and ``hash`` are those of the object.
    """

    k: int
    theta: float
    value: float
    right_vector: np.ndarray
    symmetric_vector: np.ndarray


@_record
class SpectrumSummary:
    lambda_min: float
    lambda_max: float
    positive_definite: bool


def eigenvalues(spec: TriToeplitzSpec) -> np.ndarray:
    """All n eigenvalues b + 2s*cos(k*pi/(n+1)), k = 1..n (decreasing).

    The accuracy is normwise, as for a dense symmetric eigensolver: each
    value is within a few eps of |b| + 2s, not of itself, so an eigenvalue
    much smaller than s carries a large relative error (for
    ``make_spec(1e200, 1, 1e200, 3)`` the middle one, exactly 1, comes out
    near 1.2e184).  Raises OverflowError as :func:`extremal_eigenvalues` does.
    """
    import numpy as np

    s = symmetrise(spec).s
    _extremes(spec, s)
    # k = 1..n as floats, and np.cos with its out argument t: in place
    return _eigenvalue(spec, s, np.arange(1, spec.n + 1, dtype=float), lambda t: np.cos(t, t))


def _eigenvalue(spec: TriToeplitzSpec, s: float, k: int | np.ndarray, cos=math.cos):
    """lambda_k = b + s*(2cos(k*pi/(n+1))) for a 1-based index k.

    An integer k runs on Python floats; a float array k, with an in-place
    ``np.cos``, is overwritten by the same operations in the same order,
    and ``math.cos`` gives ``np.cos``'s values, so each lambda_k equals its
    entry of :func:`eigenvalues` bit for bit.  The caller checks the
    extremes first (:func:`_extremes`), which refuses a value past the float
    range.  The integer form is read by ``eigen_pair``, ``weighted_condition``
    and the ``eig`` subcommand, which lists the spectrum without loading numpy.
    """
    k *= math.pi
    k /= spec.n + 1
    k = cos(k)
    k *= 2.0
    k *= s
    k += spec.b
    return k


def _extremes(spec: TriToeplitzSpec, s: float) -> tuple[float, float]:
    """(lambda_1, lambda_n) = b +- 2s*cos(pi/(n+1)); the largest |lambda_k| is one of them.

    One past the float range is refused, naming k.  s*(2 cos) is 2s*cos bit
    for bit wherever 2s is finite.
    """
    cos = math.cos(math.pi / (spec.n + 1))
    edge = s * (2.0 * cos)
    lam_1, lam_n = spec.b + edge, spec.b - edge
    if not -math.inf < lam_n <= lam_1 < math.inf:
        k, sign = (1, 1.0) if lam_1 == math.inf else (spec.n, -1.0)
        quarter = 0.25 * spec.b + sign * (0.5 * s) * cos
        raise _beyond_range(f"eigenvalue lambda_{k}", math.log(abs(quarter)) + math.log(4.0))
    return lam_1, lam_n


def eigenvector(spec: TriToeplitzSpec, k: int, normalization: str = "raw") -> np.ndarray:
    """Right eigenvector for the k-th eigenvalue.

    ``raw`` returns the literal entries q^(j-1)*sin(j*theta_k);
    ``unit_weighted`` rescales to unit W-norm, ``unit_euclidean`` to unit
    Euclidean norm with the first nonzero entry positive.  Raises
    OverflowError when |q|^(n-1) leaves the float range, whatever the
    normalization, and InvalidParameter for another normalization.
    """
    import numpy as np

    if normalization not in _NORMALIZATIONS:
        raise InvalidParameter(
            f"normalization must be one of {_NORMALIZATIONS}, got {normalization!r}")
    _, _, _, sines, vec = _eigvec_parts(spec, k)
    if normalization == "raw":
        return vec
    if normalization == "unit_weighted":
        # w_j * vec_j^2 = sin^2(j*theta), so the W-norm is the Euclidean
        # norm of the sine vector; no q powers are needed
        return vec / math.sqrt(sines.dot(sines))
    # sqrt(x.x) is np.linalg.norm of a 1-D float array, without its wrapper
    with np.errstate(over="ignore"):
        nrm = math.sqrt(vec.dot(vec))
    if not math.isfinite(nrm):
        # finite entries whose squares overflow: rescale them first
        vec = vec / np.max(np.abs(vec))
        nrm = math.sqrt(vec.dot(vec))
    vec = vec / nrm
    first = vec[np.nonzero(vec)[0][0]]
    return vec if first > 0 else -vec


def _eigvec_parts(spec: TriToeplitzSpec, k: int):
    """form, k, theta_k, sin(j*theta_k) and q^(j-1) sin(j*theta_k), j = 1..n, all checked."""
    import numpy as np

    form = symmetrise(spec)
    k = _check_int(k, "index", 1, spec.n, IndexOutOfRange)
    theta = k * math.pi / (spec.n + 1)
    # j = 1..n and j - 1 as two views of one float range: no int-to-float casts
    j = np.arange(spec.n + 1.0)
    sines = np.sin(j[1:] * theta)
    _check_log_mag((spec.n - 1) * math.log(abs(form.q)), "eigenvector entry q^(n-1)")
    return form, k, theta, sines, np.power(form.q, j[:-1]) * sines


def eigen_pair(spec: TriToeplitzSpec, k: int) -> EigenPair:
    """Bundle theta_k, lambda_k and both eigenvector forms for index k.

    Raises OverflowError as eigenvector and eigenvalues do.
    """
    form, k, theta, sines, vec = _eigvec_parts(spec, k)
    _extremes(spec, form.s)
    return EigenPair(k=k, theta=theta, value=_eigenvalue(spec, form.s, k),
                     right_vector=vec, symmetric_vector=sines)


def extremal_eigenvalues(spec: TriToeplitzSpec) -> SpectrumSummary:
    """Largest/smallest eigenvalue and the positive-definiteness flag.

    lambda_max = b + 2s*cos(pi/(n+1)), lambda_min = b - 2s*cos(pi/(n+1));
    the matrix is positive definite exactly when b exceeds
    2s*cos(pi/(n+1)).  Raises OverflowError, naming k, when lambda_1 or
    lambda_n is past the float range.
    """
    lam_max, lam_min = _extremes(spec, symmetrise(spec).s)
    # lambda_n = b - 2s*cos(pi/(n+1)) rounds to a positive float exactly when b exceeds 2s*cos
    return SpectrumSummary(lambda_min=lam_min, lambda_max=lam_max,
                           positive_definite=lam_min > 0)


def determinant(spec: TriToeplitzSpec) -> ScaledValue:
    """det = s^n * U_n(b/(2s)) in scaled form."""
    form = symmetrise(spec)
    u = eval_U_scaled(spec.n, form.x)
    return ScaledValue(u.sign, spec.n * math.log(form.s) + u.log_mag)


def determinant_continuant(spec: TriToeplitzSpec) -> ScaledValue:
    """Determinant via the continuant D_k = b*D_{k-1} - s^2*D_{k-2}.

    Run in units of s^k (b/s for b, 1 for s^2) by ``cheby``'s three-term
    loop, so no s^2 is formed; an independent cross-check of
    :func:`determinant`.  A b/s past the float range is refused as x is.
    """
    form = symmetrise(spec)
    c = spec.b / form.s
    _check_x(c)
    u, e = _three_term(spec.n, c)
    v = ScaledValue.from_float(u)
    return ScaledValue(v.sign, v.log_mag + e * math.log(2.0) + spec.n * math.log(form.s))


def char_poly_eval(spec: TriToeplitzSpec, t: float) -> ScaledValue:
    """Characteristic polynomial det(t*I - A) = s^n * U_n((t-b)/(2s)).

    Returns sign 0 whenever |U_n((t-b)/(2s))| falls below 1e-10, i.e. when
    t is an eigenvalue up to that tolerance.
    """
    form = symmetrise(spec)
    u = eval_U_scaled(spec.n, _half_ratio(t - spec.b, form.s))
    if u.sign == 0 or u.log_mag <= math.log(_CHARPOLY_ZERO_TOL):
        return ScaledValue(0, -math.inf)
    return ScaledValue(u.sign, spec.n * math.log(form.s) + u.log_mag)
