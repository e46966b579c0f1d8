"""Chebyshev polynomials of the second kind, U_m, evaluated stably in every
regime.

Evaluation is regime-dispatched on |x|, times the parity (-1)^m when x < 0:

* ``|x| < 1`` -- sine quotient sin((m+1)*theta)/sin(theta) with
  theta = arccos(|x|), the phase (m+1)*theta taken exactly: split as
  (m+1) = j*B + r with the fixed block B = 1024, it is j*B*theta plus
  r*theta, each reduced by pi from exact products (Cody and Waite), and
  sin((m+1)*theta) is sin(jB theta) cos(r theta) + cos(jB theta) sin(r theta).
  The products are exact for m + 1 < 2^27; there the sine is within a few
  eps of that of the stored theta, absolutely, at any m, where sin of the
  rounded product is off by up to (m+1)*theta*eps/2;
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

from . import _LAZY
from .core import _beyond_range, _check_int, _check_log_mag, _exp_signed, _record
from .errors import InvalidParameter

__all__ = _LAZY["cheby"]

@_record
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


# The sine regime's exact phase.  theta = arccos|x| is split into two parts
# of at most 26 significant bits, so k theta_i is exact for every integer
# k < _EXACT_K; the double nearest pi is split the same way (_PI_1 + _PI_2)
# and _PI_T holds the rest of pi, so q _PI_i is exact for every half-turn
# count q <= k / 2.  Past _EXACT_K the products round.
_EXACT_K = 2**27
_PI_1 = float.fromhex("0x1.921fb58p+1")
_PI_2 = float.fromhex("-0x1.dde974p-26")
_PI_T = float.fromhex("0x1.1a62633145c07p-53")
# m + 1 = j _BLOCK + r; even, so (-1)^m depends on r alone.  Fixed, so an
# entry is the same for every n; 1024 keeps query-sized sequences (n up to
# about 1000) to the row alone and the n = 10^5 pass to about 100 rows
_BLOCK = 1024


def _theta_parts(theta: float) -> tuple[float, float, float]:
    """theta = t1 + t2, each of at most 26 significant bits (Veltkamp's
    split), and theta / pi, which counts the half-turns."""
    c = theta * 134217729.0
    t1 = c - (c - theta)
    return t1, theta - t1, theta * (1.0 / math.pi)


def _phase(k, parts, whole=int):
    """(rem, q) with k theta = q pi + rem, |rem| <= pi/2 to rounding, for an
    integer k >= 0, or for a float array k, which it overwrites, with
    whole=np.floor: q is then whole floats, whose products are float by float.

    rem is formed from exact products (Cody and Waite), so it is within
    about an ulp of its exact value for k < _EXACT_K, where the rounded
    k theta is off by up to k theta eps / 2.  sin and cos of k theta are
    those of rem times (-1)^q.  Both forms run the same operations, bit for bit.
    """
    t1, t2, tq = parts
    q = k * tq
    q += 0.5
    q = whole(q)  # floor, as q >= 0
    rem = k * t1
    rem -= q * _PI_1
    k *= t2
    k -= q * _PI_2
    rem += k
    rem -= q * _PI_T
    return rem, q


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
    hyperbolic form, whose value may lie beyond the float range.  In the
    sine regime it runs the operations of ``_u_sequence_into`` on the one
    entry, so U_m(x) equals that entry bit for bit: m + 1 = j _BLOCK + r,
    and for j = 0 the row value alone.
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
        parts = _theta_parts(theta)
        j, r = divmod(m + 1, _BLOCK)
        rem, q = _phase(r, parts)
        # (-1)^q sin(theta): the sign of the half-turns, as the array divides
        sin_t = -math.sin(theta) if q & 1 else math.sin(theta)
        s = parity * (math.sin(rem) / sin_t)
        if not j:  # the column value, bit for bit: 0 c + 1 s = s
            return s
        c = parity * (math.cos(rem) / sin_t)
        rem, q = _phase(j * _BLOCK, parts)
        sign = -1.0 if q & 1 else 1.0
        return (sign * math.sin(rem)) * c + (sign * math.cos(rem)) * s
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


def _u_sequence_arrays(m_max: int, x: float):
    """Signs and log-magnitudes of U_0..U_{m_max} as numpy arrays; its only
    caller is perfbench's ``cheby.u_sequence`` probe."""
    import numpy as np

    v = np.empty(_check_int(m_max, "degree m", 0) + 2)
    gamma, u = _u_sequence_into(v, x), v[1:]
    with np.errstate(divide="ignore"):
        return np.sign(u), np.log(np.abs(u)) + np.arange(u.size) * gamma


def _u_sequence_into(v, x: float) -> float:
    """Write v[k] = U_(k-1)(x) e^(-(k-1) gamma), k = 0..v.size - 1, in place; return gamma.

    v[0] = 0 stands for U_(-1); gamma = arccosh|x| for |x| > 1, else 0.
    In the sine regime v[k] = sin(k theta)/sin(theta) from the exact phase
    (the module docstring): two outer products of the _BLOCK row phases and
    about v.size/_BLOCK column phases, so the pass takes no sine per entry
    and allocates one scratch array of v's size, as the other regimes do.
    """
    import numpy as np

    _check_x(x)
    ax = abs(x)
    if ax < 1.0:
        _sine_sequence_into(v, math.acos(ax), not x >= 0)
        v[0] = 0.0
        return 0.0
    gamma = math.acosh(ax) if ax > 1.0 else 0.0
    v[0] = 0.0
    u, t = v[1:], np.arange(1.0, v.size)  # m + 1, the one scratch array
    if ax == 1.0:
        u[...] = t
    else:  # (1 - e^(-2(m+1) gamma)) / (1 - e^(-2 gamma))
        np.expm1(np.multiply(t, -2.0 * gamma, out=u), out=u)
        u /= math.expm1(-2.0 * gamma)
    if not x >= 0:
        u[1::2] *= -1.0
    return gamma


def _sine_sequence_into(v, theta: float, negative: bool) -> None:
    """v[k] = sin(k theta) / sin(theta), times (-1)^(k-1) if ``negative``, k >= 1.

    k = j _BLOCK + r: the row of _BLOCK phases r theta, with 1/sin(theta)
    and the parity folded in, and the column of phases j _BLOCK theta give
    sin(j B theta) cos(r theta) + cos(j B theta) sin(r theta) as two outer
    products into a (rows, _BLOCK) view of v; row j = 0 is the row itself,
    as in ``_eval_u``.
    """
    import numpy as np

    size = v.size
    width = min(_BLOCK, size)
    rows = -(-size // _BLOCK)
    k = np.arange(float(width + rows - 1))  # r = 0..width-1, then j = 1..rows-1
    if rows > 1:
        k[width:] -= width - 1
        k[width:] *= _BLOCK
    rem, q = _phase(k, _theta_parts(theta), np.floor)
    sin_t = math.sin(theta)
    # the row is divided by (-1)^q sin(theta), as _eval_u divides, looked up
    # by the parity of q
    div = np.array((sin_t, -sin_t))[q.astype(np.intp) & 1]
    if rows == 1:
        # the row alone, which needs no cosines: most kernels of a query are
        # this short, and there each numpy call is a measurable share of the
        # build (19 calls, 12 of them the phase, whose q is a float so that
        # its three products need no cast)
        np.divide(np.sin(rem, out=v), div, out=v)
        if negative:  # (-1)^(k-1) = (-1)^(r+1), since _BLOCK is even
            v[::2] *= -1.0
        return
    # the column is divided by (-1)^q: (-1)^q sin(theta) / sin(theta), exactly
    div[width:] /= sin_t
    base = np.empty((2, rem.size))  # sin and cos
    np.sin(rem, out=base[0])
    np.cos(rem, out=base[1])
    base /= div
    if negative:
        base[:, :width:2] *= -1.0
    sin_r, cos_r, sin_j, cos_j = base[0, :width], base[1, :width], base[0, width:], base[1, width:]
    v[:width] = sin_r
    full = (size - width) // _BLOCK  # whole rows j = 1..full
    if full:
        body = v[width:width + full * _BLOCK].reshape(full, _BLOCK)
        # einsum, since a broadcast multiply buffers a copy of its output
        np.einsum("i,j->ij", sin_j[:full], cos_r, out=body)
        scratch = np.empty((full, _BLOCK))  # the one scratch array
        body += np.einsum("i,j->ij", cos_j[:full], sin_r, out=scratch)
    tail = v[width + full * _BLOCK:]
    if tail.size:
        np.multiply(cos_r[:tail.size], sin_j[-1], out=tail)
        tail += sin_r[:tail.size] * cos_j[-1]


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
