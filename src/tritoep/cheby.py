"""Chebyshev polynomials of the second kind, U_m, evaluated stably in every
regime.

Evaluation is regime-dispatched on |x|, times the parity (-1)^m when x < 0:

* ``|x| < 1`` -- sine quotient sin((m+1)*theta)/sin(theta) with
  theta = arccos(|x|);
* ``|x| = 1`` -- the exact value m + 1, the only point where the quotients
  are 0/0; just off it theta and gamma are small but accurate, and so are
  the quotients;
* ``|x| > 1`` -- hyperbolic form sinh((m+1)*gamma)/sinh(gamma) with
  gamma = arccosh(|x|), carried in log space so eta^m never overflows.

Arrays hold v_m = U_m e^(-m gamma), gamma = 0 for |x| <= 1, so |v_m| <= m + 1.
A non-finite x is refused; plain values leave log space by the one exit,
``core._exp_signed``.  The three-term recursion, rescaled by exact powers
of two, is kept as an independent cross-check of U_m and of the determinant
(the continuant), not in production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _beyond_range, _check_int, _check_log_mag, _exp_signed
from .errors import InvalidParameter

__all__ = [
    "ScaledValue",
    "eval_U",
    "eval_U_scaled",
    "u_sequence_scaled",
    "eval_U_recurrence",
]

@dataclass(frozen=True)
class ScaledValue:
    """A real number stored as sign and natural log of absolute value.

    ``sign`` is -1, 0 or +1; ``log_mag`` is ``-inf`` exactly when
    ``sign == 0``.  The carrier survives magnitudes far outside the
    double-precision range and round-trips representable values to
    better than 1e-12 relative.
    """

    sign: int
    log_mag: float

    @classmethod
    def from_float(cls, value: float) -> "ScaledValue":
        if value == 0.0:
            return cls(0, -math.inf)
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    def to_float(self) -> float:
        """Plain float value; raises OverflowError when unrepresentable."""
        return _exp_signed(self.sign, self.log_mag, "value")

    def try_float(self):
        """Plain float value, or None when it would overflow."""
        try:
            return self.to_float()
        except OverflowError:
            return None

    def __mul__(self, other: "ScaledValue") -> "ScaledValue":
        sign = self.sign * other.sign
        if sign == 0:
            return ScaledValue(0, -math.inf)
        return ScaledValue(sign, self.log_mag + other.log_mag)

    def __neg__(self) -> "ScaledValue":
        return ScaledValue(-self.sign, self.log_mag)


def _log1mexp(t: float) -> float:
    """log(1 - exp(-t)) for t > 0, stable for both tiny and large t."""
    return math.log(-math.expm1(-t))


def _check_x(x: float) -> None:
    """Refuse a non-finite argument: U_m(+-inf) is infinite, U_m(nan) undefined."""
    if math.isfinite(x):
        return
    if math.isnan(x):
        raise InvalidParameter(f"Chebyshev argument x must be a number, got {x!r}")
    raise OverflowError(f"Chebyshev argument x = {x!r} is beyond the float range")


def _eval_u(m: int, x: float):
    """The scalar regime dispatch behind :func:`eval_U` and :func:`eval_U_scaled`.

    Returns a plain float for |x| <= 1, and a ScaledValue from the
    hyperbolic form, whose value may lie beyond the float range.
    """
    m = _check_int(m, "degree m", 0)
    _check_x(x)
    ax = abs(x)
    parity = 1 if (x >= 0 or m % 2 == 0) else -1
    if ax == 1.0:
        return parity * float(m + 1)
    if ax < 1.0:
        # at |x|, so theta stays away from pi, where acos loses pi - theta
        theta = math.acos(ax)
        return parity * (math.sin((m + 1) * theta) / math.sin(theta))
    # sinh((m+1)g)/sinh(g) = e^(m*g) * (1 - e^(-2(m+1)g)) / (1 - e^(-2g))
    g = math.acosh(ax)
    return ScaledValue(parity, m * g + _log1mexp(2.0 * (m + 1) * g) - _log1mexp(2.0 * g))


def eval_U(m: int, x: float) -> float:
    """U_m(x) as a plain float.

    Raises OverflowError once the true value leaves the double range
    (x > 1, large m); use :func:`eval_U_scaled` there instead.
    """
    u = _eval_u(m, x)
    return u if isinstance(u, float) else _exp_signed(u.sign, u.log_mag, "U_%d(%r)", m, x)


def eval_U_scaled(m: int, x: float) -> ScaledValue:
    """U_m(x) as sign plus log-magnitude; never overflows."""
    u = _eval_u(m, x)
    return ScaledValue.from_float(u) if isinstance(u, float) else u


def u_sequence_scaled(m_max: int, x: float) -> list[ScaledValue]:
    """U_0(x) .. U_{m_max}(x) in scaled form, consistent with eval_U_scaled."""
    signs, logs = _u_sequence_arrays(m_max, x)
    return [ScaledValue(int(s), float(l)) for s, l in zip(signs, logs)]


def _u_sequence_arrays(m_max: int, x: float):
    """Signs and log-magnitudes of U_0..U_{m_max} as numpy arrays."""
    import numpy as np

    v = np.empty(_check_int(m_max, "degree m", 0) + 2)
    gamma, u = _u_sequence_into(v, x), v[1:]
    with np.errstate(divide="ignore"):
        return np.sign(u), np.log(np.abs(u)) + np.arange(u.size) * gamma


def _u_sequence_into(v, x: float) -> float:
    """Write v[k] = U_(k-1)(x) e^(-(k-1) gamma), k = 0..v.size - 1, in place; return gamma.

    v[0] = 0 stands for U_(-1); gamma = arccosh|x| for |x| > 1, else 0.
    """
    import numpy as np

    _check_x(x)
    ax = abs(x)
    gamma = math.acosh(ax) if ax > 1.0 else 0.0
    v[0] = 0.0
    u, t = v[1:], np.arange(1.0, v.size)  # m + 1, the one scratch array
    if ax == 1.0:
        u[...] = t
    elif ax < 1.0:
        theta = math.acos(ax)  # at |x| with the parity, as in _eval_u
        np.sin(np.multiply(t, theta, out=u), out=u)
        u /= math.sin(theta)
    else:  # (1 - e^(-2(m+1) gamma)) / (1 - e^(-2 gamma))
        np.expm1(np.multiply(t, -2.0 * gamma, out=u), out=u)
        u /= math.expm1(-2.0 * gamma)
    if not x >= 0:
        u[1::2] *= -1.0
    return gamma


def _three_term(m: int, c: float) -> tuple[float, int]:
    """(u, e), u_m = u * 2^e of u_(k+1) = c u_k - u_(k-1), u_0 = 1, u_1 = c: U_m(c/2).

    Before a step would overflow, both terms are divided by a power of two.
    """
    u_prev, u, e = 1.0, c, 0
    for _ in range(m - 1):
        if not abs(c * u - u_prev) < math.inf:
            f = math.frexp(max(abs(u), abs(u_prev)))[1]
            u_prev, u, e = math.ldexp(u_prev, -f), math.ldexp(u, -f), e + f
        u_prev, u = u, c * u - u_prev
    return (u if m else 1.0), e


def eval_U_recurrence(m: int, x: float) -> float:
    """Forward three-term recursion; the independent cross-check path."""
    m = _check_int(m, "degree m", 0)
    _check_x(x)
    if m and abs(x) >= 2.0**1023:  # 2x, so |U_m(x)| >= |2x|, is past the float range
        raise _beyond_range(f"U_{m}({x!r})", m * (math.log(abs(x)) + math.log(2.0)))
    u, e = _three_term(m, 2.0 * x)
    if e:
        _check_log_mag(math.log(abs(u)) + e * math.log(2.0), "U_%d(%r)", m, x)
    return math.ldexp(u, e)
