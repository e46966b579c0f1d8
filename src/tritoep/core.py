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
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DimensionMismatch,
    InvalidOrder,
    InvalidParameter,
    NotSymmetrisable,
    TriToeplitzError,
    ZeroOffDiagonal,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TriToeplitzSpec",
    "SymmetrisedForm",
    "make_spec",
    "symmetrise",
    "weight_vector",
    "apply_matvec",
    "weighted_selfadjoint_residual",
]


_MIN_NORMAL = sys.float_info.min
_LOG_MAX = math.log(sys.float_info.max)
# the default singularity tolerance of build_kernel, weighted_condition and the CLI
_SINGULAR_TOL = 1e-12
# the Wronskian residual above which build_kernel refuses, as the CLI's verify tests it
_WRONSKIAN_TOL = 1e-9
# the eigenvector scalings of spectral.eigenvector, as the CLI's eig offers them
_NORMALIZATIONS = ("raw", "unit_weighted", "unit_euclidean")


def _is_real(value, integral: bool = False) -> bool:
    """True for an int or float (bool excluded) or a numpy integer or floating
    scalar; ``integral`` admits the integer kinds alone.

    numpy is looked up, never imported: before it is loaded no numpy scalar
    can exist, so the scalar paths run without it.
    """
    if isinstance(value, int if integral else (int, float)):
        return not isinstance(value, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(
        value, np.integer if integral else (np.integer, np.floating))


def _check_int(value, name: str, lo: int, hi: int | None = None,
               error: type[TriToeplitzError] = InvalidOrder) -> int:
    """``value`` as a plain int, checked to be an integer in lo..hi.

    The one validator for orders, degrees, lengths and 1-based indices;
    ``hi=None`` leaves the range open above, and each caller names the
    error class it raises.
    """
    if type(value) is int and lo <= value and (hi is None or value <= hi):
        return value
    if not _is_real(value, integral=True):
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


def _check_log_mag(log_mag, what: str, *args) -> None:
    """The one overflow rule: refuse exp(log_mag) past the float range, naming what % args."""
    if log_mag > _LOG_MAX:
        raise _beyond_range(what % args, log_mag)


def _beyond_range(name: str, log_mag) -> OverflowError:
    return OverflowError(f"{name} has log-magnitude {log_mag:.6g}, beyond the float range")


def _check_log_mags(log_mag, what: str, beyond=None) -> None:
    """The array form for an (n, k) log_mag: name the largest entry past the range.

    ``beyond`` marks the entries known to be past it (default: log_mag >
    _LOG_MAX); the refusal names the largest of them as "what (i,j)", 1-based.
    """
    import numpy as np

    beyond = log_mag > _LOG_MAX if beyond is None else beyond
    if beyond.any():
        i, j = np.unravel_index(np.argmax(np.where(beyond, log_mag, -np.inf)), log_mag.shape)
        raise _beyond_range(f"{what} ({i + 1},{j + 1})", log_mag[i, j])


def _exp_signed(sign, log_mag, what: str, *args) -> float:
    """sign * exp(log_mag), 0.0 for sign 0: the one exit from log space."""
    if sign == 0:
        return 0.0
    _check_log_mag(log_mag, what, *args)
    return sign * math.exp(log_mag)


def _coefficient(name: str, v) -> float:
    """A real coefficient as a finite float, else InvalidParameter or OverflowError."""
    f = v
    if type(v) is not float:
        if not _is_real(v):
            raise InvalidParameter(f"{name} must be a real number, got {v!r}")
        # a numpy longdouble may round to 0 or leave the float range
        f = float(v)
        if abs(f) == math.inf != abs(v):
            raise OverflowError(f"{name} = {v!r} is beyond the float range")
    if not math.isfinite(f):
        raise InvalidParameter(f"{name} must be finite, got {v!r}")
    return f


def _record(cls=None, *, eq=True):
    """Make ``cls`` a frozen record: ``@_record``, or ``@_record(eq=False)``
    for one that holds arrays, whose ``==`` and ``hash`` are the object's.

    The one idiom of the package's records: a frozen dataclass whose
    ``__init__`` fills the instance dict in one ``self.__dict__.update``,
    written here from the class's annotations unless the class defines its
    own.  The generated one would set each field through
    ``object.__setattr__``: about 0.45 us more on a ``make_spec`` of 0.9 us,
    about 2.5 us for the ten fields of a ``GreenKernel``.  A store per field
    (``self.__dict__["a"] = a``) fills the dict faster but leaves one that
    reads each attribute about 35 ns slower, and over ``query_mix`` requests
    the two tie.  The ``__init__`` comes first: ``dataclass`` gives a class
    with no docstring one from its signature, slow to take on the inherited
    ``object.__init__``.
    """
    def wrap(cls):
        if "__init__" not in vars(cls):
            fields, scope = vars(cls)["__annotations__"], {}
            exec(f"def __init__(self, {', '.join(fields)}):\n"
                 f"    self.__dict__.update({', '.join(f'{f}={f}' for f in fields)})\n",
                 vars(sys.modules[cls.__module__]), scope)
            scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = scope["__init__"]
        return dataclass(frozen=True, init=False, eq=eq)(cls)

    return wrap if cls is None else wrap(cls)


@_record
class TriToeplitzSpec:
    """Parameters (a, b, c, n) of a real tridiagonal Toeplitz matrix.

    Validated eagerly, on the floats it stores: a and c must be nonzero
    finite reals, b finite, n a positive integer.  A finite value past the
    float range (a numpy longdouble) raises OverflowError.  The checks run
    on the arguments, so ``dataclasses.replace`` validates as ``make_spec``
    does.
    """

    a: float
    b: float
    c: float
    n: int

    def __init__(self, a, b, c, n):
        a, b, c = _coefficient("a", a), _coefficient("b", b), _coefficient("c", c)
        if a == 0 or c == 0:
            raise ZeroOffDiagonal("off-diagonal entries a and c must be nonzero")
        n = _check_int(n, "order n", 1)
        self.__dict__.update(a=a, b=b, c=c, n=n)

    @property
    def symmetrisable(self) -> bool:
        """True when a*c > 0, i.e. a diagonal similarity to a symmetric matrix exists.

        Read from the signs of a and c, so a product that over- or
        underflows does not decide it.
        """
        return (self.a > 0) == (self.c > 0)

    def row_scale(self) -> float:
        return abs(self.a) + abs(self.b) + abs(self.c)


@_record
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
    ac = spec.a * spec.c
    # one rounding while a*c is a normal float; else two, but no over- or underflow
    if _MIN_NORMAL <= ac < math.inf:
        s = math.sqrt(ac)
    else:
        _require_symmetrisable(spec)
        s = math.sqrt(abs(spec.a)) * math.sqrt(abs(spec.c))
    q = s / spec.c
    x = _half_ratio(spec.b, s)
    return SymmetrisedForm(s, q, x, spec.n)


def _half_ratio(num: float, s: float) -> float:
    """num / (2s) without forming a 2s past the float range (s >= 2^1023)."""
    return num / (2.0 * s) if s < 2.0**1023 else 0.5 * num / s


def _times_spread(factor: float, b: float, s: float) -> float:
    """factor * (|b| + 2s), the normwise scale of the spectrum.

    Formed as 4 * (factor * (|b|/4 + s/2)) where |b| + 2s is past the float
    range, so it is inf only when the product is.
    """
    spread = abs(b) + 2.0 * s
    if spread < math.inf:
        return factor * spread
    return 4.0 * (factor * (0.25 * abs(b) + 0.5 * s))


def weight_vector(spec: TriToeplitzSpec) -> np.ndarray:
    """Entries w_j = q^(-2(j-1)) of the diagonal weight W = D^(-2).

    The weights are positive (even exponents) with w_1 = 1; in the inner
    product <u, v>_W = sum_j w_j u_j v_j the matrix is self-adjoint.  For
    |q| > 1 the later weights may underflow to 0.0; for |q| < 1 an
    OverflowError is raised when w_n leaves the float range.
    """
    import numpy as np

    form = symmetrise(spec)
    _check_log_mag(-2.0 * (spec.n - 1) * math.log(abs(form.q)), "weight w_n")
    j = np.arange(spec.n, dtype=float)
    # q^2 > 0 regardless of the sign of q; even exponents keep every entry positive
    return np.power(form.q * form.q, -j)


def apply_matvec(spec: TriToeplitzSpec, v) -> np.ndarray:
    """Multiply the tridiagonal matrix onto v in O(n) without materialising it.

    A finite v gets a finite product, or OverflowError naming the largest
    entry past the float range.  The contract is entrywise: entry j is
    within 3u/(1 - 3u) (|a v_(j-1)| + |b v_j| + |c v_(j+1)|) of its exact
    value, u = 2^-53, plus a few subnormal steps, the rounding of its three
    products and two sums, also where one of its terms alone is past the
    float range.
    """
    import numpy as np

    v = np.asarray(v, dtype=float)
    if v.shape != (spec.n,):
        raise DimensionMismatch(f"expected vector of length {spec.n}, got shape {v.shape}")
    v_max = float(max(np.maximum.reduce(v), -np.minimum.reduce(v)))
    if not math.inf > v_max > 2.0**1000 / spec.row_scale():
        return _matvec(spec, v)
    # a term may overflow: the entries it makes non-finite are taken again
    # from their three terms, each the product of a coefficient and an entry
    # of v that are scaled by powers of two into [1/2, 1), so that neither
    # over- nor underflows, summed in _matvec's order at the exponent of the
    # largest term and scaled back; every other entry keeps its plain rounding
    with np.errstate(over="ignore", invalid="ignore"):
        out = _matvec(spec, v)
    lost = np.nonzero(~np.isfinite(out))[0]
    if lost.size:
        padded = np.concatenate(([0.0], v, [0.0]))
        v_mant, v_exp = np.frexp(np.stack((padded[lost + 1], padded[lost], padded[lost + 2])))
        c_mant, c_exp = np.frexp([[spec.b], [spec.a], [spec.c]])
        mant, exps = v_mant * c_mant, v_exp + c_exp
        # a zero term must not set the exponent of the sum
        top = np.where(mant != 0.0, exps, np.iinfo(exps.dtype).min).max(axis=0)
        terms = np.ldexp(mant, exps - top)
        total = terms[0] + terms[1] + terms[2]
        beyond = (total != 0.0) & (np.abs(total) >= np.ldexp(1.0, 1024 - top))
        if beyond.any():
            log_mag = np.full((out.size, 1), -np.inf)
            log_mag[lost[beyond], 0] = np.log(np.abs(total[beyond])) + top[beyond] * math.log(2.0)
            _check_log_mags(log_mag, "product entry", log_mag > -np.inf)
        out[lost] = np.ldexp(total, top)
    return out


def _matvec(spec: TriToeplitzSpec, v):
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
    max(|a|,|b|,|c|)*max_j w_j in floating point.  Raises OverflowError
    when a term leaves the float range.
    """
    import numpy as np

    _require_symmetrisable(spec)
    if spec.n == 1:
        return 0.0
    w = weight_vector(spec)
    # a*w_(i+1) = c*w_i in exact arithmetic, largest at i = n - 1 for |q| < 1, at i = 1 else
    _check_log_mag(math.log(abs(spec.c)) + math.log(max(1.0, w[-2])), "term c*w_(n-1)")
    return float(np.max(np.abs(spec.a * w[1:] - spec.c * w[:-1])))
