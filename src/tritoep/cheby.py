"""Chebyshev polynomials of the second kind, U_m, evaluated stably in every
regime.

Evaluation is regime-dispatched:

* ``|x| < 1``  -- closed sine quotient sin((m+1)*theta)/sin(theta) with
  theta = arccos(|x|), times the parity (-1)^m when x < 0;
* ``x > 1``    -- hyperbolic form sinh((m+1)*gamma)/sinh(gamma) with
  gamma = arccosh(x), carried in log space so eta^m never overflows;
* ``x < -1``   -- parity U_m(-x) = (-1)^m U_m(x), then the hyperbolic form;
* ``|x| ~ 1``  -- Taylor series around the confluent point, where both the
  sine and sinh quotients degenerate to 0/0.

The three-term recursion U_{m+1} = 2x U_m - U_{m-1} (U_0 = 1, U_1 = 2x) is
retained as an independent cross-check path, not as the production route.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import _check_int

__all__ = [
    "ScaledValue",
    "eval_U",
    "eval_U_scaled",
    "u_sequence_scaled",
    "eval_U_recurrence",
]

_LOG_MAX = math.log(sys.float_info.max)

# half-width of the Taylor window around |x| = 1
_CONFLUENT_WINDOW = 1e-8
# within the window the series is used only while eps*(m+3)^2 stays small,
# which keeps its truncation error below ~1e-15 relative; otherwise the
# sine/sinh quotients are still well conditioned because eps != 0
_SERIES_PARAM_MAX = 1e-4


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


def _series_near_one(m, eps):
    """Taylor value of U_m at 1 + eps through the eps^2 term.

    Uses U_m(1) = m + 1, U_m'(1) = m(m+1)(m+2)/3 and
    U_m''(1) = (m-1)m(m+1)(m+2)(m+3)/15.  Works elementwise on arrays.
    """
    m = np.asarray(m, dtype=float)
    d0 = m + 1.0
    d1 = m * (m + 1.0) * (m + 2.0) / 3.0
    d2 = (m - 1.0) * m * (m + 1.0) * (m + 2.0) * (m + 3.0) / 15.0
    return d0 + eps * (d1 + eps * 0.5 * d2)


def _use_series(eps: float, m):
    """Whether the confluent series serves degree m (an int or an array)."""
    return (abs(eps) <= _CONFLUENT_WINDOW) & (
        abs(eps) * (m + 3.0) ** 2 <= _SERIES_PARAM_MAX
    )


def _eval_u(m: int, x: float):
    """The scalar regime dispatch behind :func:`eval_U` and :func:`eval_U_scaled`.

    Returns a plain float from the confluent series or the sine quotient,
    and a ScaledValue from the hyperbolic form, whose value may lie
    beyond the float range.
    """
    m = _check_int(m, "degree m", 0)
    ax = abs(x)
    parity = 1 if (x >= 0 or m % 2 == 0) else -1
    if _use_series(ax - 1.0, m):
        return parity * float(_series_near_one(m, ax - 1.0))
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
    m = np.arange(m_max + 1)
    ax = abs(x)
    parity = np.ones(m_max + 1)
    if not x >= 0:
        parity[1::2] = -1.0
    eps = ax - 1.0
    # the series serves a leading run of degrees, as eps*(m+3)^2 grows with
    # m, so both parts are slices
    k = 0
    if abs(eps) <= _CONFLUENT_WINDOW:
        k = int(np.count_nonzero(_use_series(eps, m)))
    signs = np.empty(m_max + 1)
    logs = np.empty(m_max + 1)

    if k:
        signs[:k] = parity[:k]
        logs[:k] = np.log(_series_near_one(m[:k], eps))
    if k <= m_max:
        mr = m[k:]
        if ax < 1.0:
            # at |x| with the parity, as in _eval_u
            theta = math.acos(ax)
            with np.errstate(divide="ignore"):
                vals = np.sin((mr + 1) * theta) / math.sin(theta)
                signs[k:] = np.sign(vals) * parity[k:]
                logs[k:] = np.log(np.abs(vals))
        else:
            gamma = math.acosh(ax)
            signs[k:] = parity[k:]
            logs[k:] = (
                mr * gamma
                + np.log(-np.expm1(-2.0 * (mr + 1) * gamma))
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
