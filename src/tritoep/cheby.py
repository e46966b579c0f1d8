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

A non-finite x is refused.  The three-term recursion U_{m+1} = 2x U_m -
U_{m-1} (U_0 = 1, U_1 = 2x) is retained as an independent cross-check path,
not as the production route.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import _check_int
from .errors import InvalidParameter

__all__ = [
    "ScaledValue",
    "eval_U",
    "eval_U_scaled",
    "u_sequence_scaled",
    "eval_U_recurrence",
]

_LOG_MAX = math.log(sys.float_info.max)


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
        if self.sign == 0:
            return 0.0
        if self.log_mag > _LOG_MAX:
            raise OverflowError(
                f"value with log-magnitude {self.log_mag!r} exceeds the float range"
            )
        return self.sign * math.exp(self.log_mag)

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


def _log_u_hyperbolic(m: int, gamma: float) -> float:
    # sinh((m+1)g)/sinh(g) = e^(m*g) * (1 - e^(-2(m+1)g)) / (1 - e^(-2g))
    return m * gamma + _log1mexp(2.0 * (m + 1) * gamma) - _log1mexp(2.0 * gamma)


def _check_x(x: float) -> None:
    """Refuse a non-finite argument: U_m(+-inf) is infinite, U_m(nan) undefined."""
    if math.isnan(x):
        raise InvalidParameter(f"Chebyshev argument x must be a number, got {x!r}")
    if math.isinf(x):
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
    return ScaledValue(parity, _log_u_hyperbolic(m, math.acosh(ax)))


def eval_U(m: int, x: float) -> float:
    """U_m(x) as a plain float.

    Raises OverflowError once the true value leaves the double range
    (x > 1, large m); use :func:`eval_U_scaled` there instead.
    """
    u = _eval_u(m, x)
    if isinstance(u, float):
        return u
    if u.log_mag > _LOG_MAX:
        raise OverflowError(
            f"U_{m}({x!r}) has log-magnitude {u.log_mag:.6g}, beyond the float range"
        )
    return u.sign * math.exp(u.log_mag)


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
    m_max = _check_int(m_max, "degree m", 0)
    _check_x(x)
    m = np.arange(m_max + 1)
    ax = abs(x)
    signs = np.ones(m_max + 1)
    if not x >= 0:
        signs[1::2] = -1.0
    if ax == 1.0:
        logs = np.log(m + 1.0)
    elif ax < 1.0:
        # at |x| with the parity, as in _eval_u
        theta = math.acos(ax)
        with np.errstate(divide="ignore"):
            vals = np.sin((m + 1) * theta) / math.sin(theta)
            signs *= np.sign(vals)
            logs = np.log(np.abs(vals))
    else:
        gamma = math.acosh(ax)
        logs = (
            m * gamma
            + np.log(-np.expm1(-2.0 * (m + 1) * gamma))
            - _log1mexp(2.0 * gamma)
        )
    return signs, logs


def eval_U_recurrence(m: int, x: float) -> float:
    """Forward three-term recursion; the independent cross-check path."""
    m = _check_int(m, "degree m", 0)
    u_prev, u = 1.0, 2.0 * x
    if m == 0:
        return u_prev
    for _ in range(m - 1):
        u_prev, u = u, 2.0 * x * u - u_prev
        if not math.isfinite(u):
            raise OverflowError("recursion left the float range; use eval_U_scaled")
    return u
