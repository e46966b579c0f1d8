import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import log_abs_fraction, u_exact
from tritoep import (
    InvalidOrder,
    InvalidParameter,
    ScaledValue,
    eval_U,
    eval_U_recurrence,
    eval_U_scaled,
)
from tritoep.cheby import _BLOCK, _EXACT_K, _u_sequence_arrays, _u_sequence_into

EPS = 2.0**-52


class TestEvalU:
    @pytest.mark.parametrize("x", [-2.0, -0.4, 0.0, 0.9, 1.0, 3.7])
    def test_degree_zero_is_one(self, x):
        assert eval_U(0, x) == 1.0

    def test_degree_one(self):
        assert eval_U(1, 0.3) == pytest.approx(0.6, rel=1e-14)

    def test_at_one(self):
        assert eval_U(3, 1.0) == 4.0
        assert eval_U(7, -1.0) == -8.0
        # U_m(+-1) = (+-1)^m (m+1) exactly, at any degree
        assert eval_U(10**6, -1.0) == 1000001.0
        assert eval_U(10**6 + 1, -1.0) == -1000002.0

    def test_hand_values(self):
        assert eval_U(2, 1.25) == pytest.approx(5.25, rel=1e-14)
        assert eval_U(2, 0.0) == pytest.approx(-1.0, rel=1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidOrder):
            eval_U(-1, 0.5)

    @pytest.mark.parametrize("func", [eval_U, eval_U_scaled, _u_sequence_arrays,
                                      eval_U_recurrence])
    def test_nonfinite_argument_refused(self, func):
        for x in (math.inf, -math.inf):
            with pytest.raises(OverflowError):
                func(3, x)
        with pytest.raises(InvalidParameter):
            func(3, math.nan)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            eval_U(2000, 5.0)

    @pytest.mark.parametrize("m, x", [(2000, 5.0), (2001, -5.0), (600, 1e300), (1, 1e308)])
    def test_recurrence_refuses_by_the_one_overflow_rule(self, m, x):
        # the message and the log-magnitude of eval_U; at x = 1e308, 2x
        # itself is past the float range
        with pytest.raises(OverflowError) as want:
            eval_U(m, x)
        with pytest.raises(OverflowError, match=r"beyond the float range") as got:
            eval_U_recurrence(m, x)
        assert str(got.value).split(" has ")[0] == str(want.value).split(" has ")[0]
        log_got = float(str(got.value).split("log-magnitude ")[1].split(",")[0])
        assert log_got == pytest.approx(eval_U_scaled(m, x).log_mag, rel=1e-5)

    @pytest.mark.parametrize("x", [5.0, -5.0])
    def test_overflow_names_the_value(self, x):
        with pytest.raises(OverflowError, match=rf"^U_2001\({x!r}\) has log-magnitude 4"):
            eval_U(2001, x)


class TestEvalUScaled:
    def test_matches_plain(self):
        sv = eval_U_scaled(2, 1.25)
        assert sv.sign == 1
        assert sv.log_mag == pytest.approx(math.log(5.25), rel=1e-14)

    def test_degree_zero(self):
        sv = eval_U_scaled(0, 7.0)
        assert (sv.sign, sv.log_mag) == (1, 0.0)

    def test_large_degree_against_exact_recursion(self):
        x = 5.5 / (2.0 * math.sqrt(2.449))
        for m in (150, 200):
            sv = eval_U_scaled(m, x)
            exact = u_exact(m, x)
            assert sv.sign == (1 if exact > 0 else -1)
            ref = log_abs_fraction(exact)
            assert abs(sv.log_mag - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_oscillatory_large_degree_against_exact_recursion(self):
        for x in (0.3, -0.77):
            for m in (120, 350):
                sv = eval_U_scaled(m, x)
                exact = u_exact(m, x)
                assert sv.sign == (1 if exact > 0 else -1 if exact < 0 else 0)
                ref = log_abs_fraction(exact)
                assert abs(sv.log_mag - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_never_overflows(self):
        sv = eval_U_scaled(50_000, 4.0)
        assert sv.sign == 1
        assert math.isfinite(sv.log_mag)


def _sequence(m_max, x):
    """(sign, log|U_m(x)|) for m = 0..m_max from the one writer, ``_u_sequence_into``:
    the sign of v_(m+1), and log|v_(m+1)| + m gamma."""
    v = np.empty(m_max + 2)
    gamma = _u_sequence_into(v, x)
    return [((u > 0) - (u < 0), math.log(abs(u)) + m * gamma if u else -math.inf)
            for m, u in enumerate(v[1:].tolist())]


def _sequence_values(m_max, x):
    return [sign * math.exp(log) for sign, log in _sequence(m_max, x)]


class TestUSequence:
    def test_at_one(self):
        vals = _sequence_values(3, 1.0)
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0, 4.0], rtol=1e-14)
        m = np.arange(1001)
        for x, parity in ((1.0, 1.0), (-1.0, (-1.0) ** m)):
            signs, logs = _u_sequence_arrays(1000, x)
            assert np.array_equal(signs, parity * np.ones(1001))
            assert np.array_equal(logs, np.log(m + 1.0))

    def test_at_zero(self):
        vals = _sequence_values(2, 0.0)
        assert vals[0] == 1.0
        assert abs(vals[1]) <= 1e-12
        assert vals[2] == pytest.approx(-1.0, rel=1e-12)

    def test_hyperbolic(self):
        vals = _sequence_values(2, 1.25)
        np.testing.assert_allclose(vals, [1.0, 2.5, 5.25], rtol=1e-13)

    @pytest.mark.parametrize("x", [-2.5, -0.9, 0.1, 0.9999, 1.0, 1.0001, 2.0,
                                   1.0 + 1e-9, 1.0 - 1e-9, -1.0 - 1e-12,
                                   1.0 + 2.0**-52])
    def test_consistent_with_scalar_path(self, x):
        for m, (sign, log) in enumerate(_sequence(40, x)):
            ref = eval_U_scaled(m, x)
            assert sign == ref.sign
            if sign != 0:
                assert log == pytest.approx(ref.log_mag, rel=1e-13, abs=1e-13)

    def test_nonfinite_argument_refused_before_a_write(self):
        v = np.full(4, 7.0)
        for x in (math.inf, -math.inf):
            with pytest.raises(OverflowError):
                _u_sequence_into(v, x)
        with pytest.raises(InvalidParameter):
            _u_sequence_into(v, math.nan)
        assert v.tolist() == [7.0] * 4

    @pytest.mark.parametrize("x", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    def test_shortest_arrays(self, x):
        # v[0] = U_(-1) = 0 and v[1] = U_0 = 1 in every regime and for either
        # sign; gamma is arccosh|x| past |x| = 1, else 0.  Past |x| = 1, v[1]
        # is the quotient of numpy's and math's expm1(-2 gamma), which may
        # differ in the last bit, so it is held to test_hyperbolic's 1e-13
        gamma = math.acosh(abs(x)) if abs(x) > 1.0 else 0.0
        v = np.full(1, 7.0)
        assert _u_sequence_into(v, x) == gamma
        assert v.tolist() == [0.0]
        v = np.full(2, 7.0)
        assert _u_sequence_into(v, x) == gamma
        assert v[0] == 0.0
        if gamma:
            assert v[1] == pytest.approx(1.0, rel=1e-13)
        else:
            assert v[1] == 1.0


class TestConfluentWindow:
    @pytest.mark.parametrize("eps", [1e-9, -1e-9, 1e-12, 0.0])
    @pytest.mark.parametrize("m", [1, 7, 40, 300])
    def test_series_matches_exact_recursion(self, m, eps):
        # just off |x| = 1 the quotients serve every degree, as far from it
        x = 1.0 + eps
        got = eval_U(m, x)
        want = u_exact(m, x)
        assert got == pytest.approx(float(want), rel=1e-12)
        signs, logs = _u_sequence_arrays(m, x)
        want = [float(u_exact(k, x)) for k in range(m + 1)]
        np.testing.assert_allclose(signs * np.exp(logs), want, rtol=1e-12)

    def test_large_degree_leaves_window_gracefully(self):
        # eps inside the window but m too large for the series: the
        # quotient paths take over and stay accurate
        for x in (1.0 - 1e-9, 1.0 + 1e-9):
            m = 2500
            got = eval_U_scaled(m, x)
            ref = log_abs_fraction(u_exact(m, x))
            assert abs(got.log_mag - ref) <= 1e-9 * max(1.0, abs(ref))


class TestScaledValue:
    @given(st.floats(min_value=-1e300, max_value=1e300,
                     allow_nan=False, allow_infinity=False))
    def test_round_trip(self, v):
        sv = ScaledValue.from_float(v)
        if v == 0.0:
            assert sv.sign == 0 and sv.log_mag == -math.inf
            assert sv.to_float() == 0.0
        else:
            assert sv.to_float() == pytest.approx(v, rel=1e-12)

    def test_to_float_overflow(self):
        with pytest.raises(OverflowError):
            ScaledValue(1, 1e4).to_float()
        assert ScaledValue(1, 1e4).try_float() is None

    def test_to_float_edges(self):
        # zero is exact, and the sign survives up to the end of the range
        assert ScaledValue(0, -math.inf).to_float() == 0.0
        big = math.log(1.7e308)
        assert ScaledValue(-1, big).to_float() == -math.exp(big)
        with pytest.raises(OverflowError, match="^value has log-magnitude 710, beyond"):
            ScaledValue(-1, 710.0).to_float()


# x = +-(1 + e) with |e| in [1e-14, 1e-4]: both sides of |x| = 1, either sign
_NEAR_ONE = st.builds(
    lambda sign, side, log_e: sign * (1.0 + side * 10.0**log_e),
    st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]),
    st.floats(min_value=-14.0, max_value=-4.0),
)
_X = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False) | _NEAR_ONE


@given(_X, st.integers(min_value=0, max_value=300))
def test_parity(x, m):
    # |U_m(-x) - (-1)^m U_m(x)| <= 1e-12 at the values' own scale, with an
    # absolute floor of 1 so rounding noise at the zeros does not count
    lhs = eval_U_scaled(m, -x)
    rhs = eval_U_scaled(m, x)
    parity = 1.0 if m % 2 == 0 else -1.0
    top = max(lhs.log_mag, rhs.log_mag, 0.0)
    tl = lhs.sign * math.exp(lhs.log_mag - top)
    tr = parity * rhs.sign * math.exp(rhs.log_mag - top)
    assert abs(tl - tr) <= 1e-12


@given(_X, st.integers(min_value=0, max_value=60))
def test_bounded_sequence(x, m):
    # v_m = U_m e^(-m gamma) stays within m + 1 (to rounding) in every regime,
    # times e^(m gamma) it is U_m, and its sign and log agree with eval_U_scaled;
    # eps bounds at the scale of the terms: (m + 1) e^(m gamma) for the value,
    # m gamma and log(1 - e^(-2 gamma)) for the scalar path's logs
    v = np.empty(m + 2)
    gamma = _u_sequence_into(v, x)
    v_m = float(v[-1])
    assert v[0] == 0.0 and abs(v_m) <= (m + 1) * (1.0 + 4 * EPS)
    scale = (m + 1) * math.exp(m * gamma)
    assert abs(Fraction(v_m * math.exp(m * gamma)) - u_exact(m, x)) <= 8 * EPS * scale
    ref = eval_U_scaled(m, x)
    signs, logs = _u_sequence_arrays(m, x)
    assert signs[m] == ref.sign == (v_m > 0) - (v_m < 0)
    log_scale = 1.0 + m * gamma + (abs(math.log(-math.expm1(-2.0 * gamma))) if gamma else 0.0)
    assert abs(logs[m] - ref.log_mag) <= 16 * EPS * log_scale


@given(_X, st.integers(min_value=1, max_value=499))
def test_recursion_residual(x, m):
    # |U_{m+1} - 2x U_m + U_{m-1}| <= 1e-10 max(1, |U_{m+1}|), checked at
    # whatever scale the values live on
    u0, u1, u2 = (eval_U_scaled(k, x) for k in (m - 1, m, m + 1))
    top = max(u0.log_mag, u1.log_mag + math.log(max(abs(2 * x), 1e-300)),
              u2.log_mag, 0.0)
    t0 = u0.sign * math.exp(u0.log_mag - top)
    t1 = u1.sign * math.exp(u1.log_mag - top)
    t2 = u2.sign * math.exp(u2.log_mag - top)
    resid = abs(t2 - 2.0 * x * t1 + t0)
    bound = 1e-10 * max(math.exp(-top), math.exp(u2.log_mag - top))
    assert resid <= bound


@pytest.mark.parametrize("n", [5, 50, 200])
def test_interlacing_zeros(n):
    for k in range(1, n + 1):
        node = math.cos(k * math.pi / (n + 1))
        assert abs(eval_U(n, node)) <= 1e-9


def test_hyperbolic_consistency():
    rng = np.random.default_rng(17)
    for _ in range(60):
        x = float(rng.uniform(1.0 + 1e-6, 6.0))
        m = int(rng.integers(0, 250))
        sv = eval_U_scaled(m, x)
        if sv.log_mag < 700.0:
            assert eval_U(m, x) == pytest.approx(sv.to_float(), rel=1e-12)


def test_recurrence_cross_check():
    rng = np.random.default_rng(23)
    for _ in range(60):
        x = float(rng.uniform(-2.0, 2.0))
        m = int(rng.integers(0, 60))
        ref = eval_U_recurrence(m, x)
        assert eval_U(m, x) == pytest.approx(ref, rel=1e-9, abs=1e-9 * max(1.0, abs(ref)))


# oscillatory points on both sides of the confluent window and of zero
_OSCILLATORY = [0.03, 0.2, 0.5, 0.77, 0.999, 0.99999999997]


@pytest.mark.parametrize("x", _OSCILLATORY)
def test_oscillatory_parity_is_exact(x):
    for m in range(60):
        assert eval_U(m, -x) == (-1) ** m * eval_U(m, x)
    signs, logs = _u_sequence_arrays(59, x)
    neg_signs, neg_logs = _u_sequence_arrays(59, -x)
    parity = (-1.0) ** np.arange(60)
    assert np.array_equal(neg_signs, parity * signs)
    assert np.array_equal(neg_logs, logs)


@pytest.mark.parametrize("x", [-v for v in _OSCILLATORY])
def test_negative_oscillatory_scalar_and_array_agree(x):
    for m, (sign, log) in enumerate(_sequence(59, x)):
        ref = eval_U_scaled(m, x)
        assert sign == ref.sign
        assert log == pytest.approx(ref.log_mag, rel=1e-13, abs=1e-13)


# m + 1 on and around the block edges of the sine regime's exact phase
_BLOCK_EDGES = st.sampled_from(sorted({e + d for e in (1, _BLOCK, 2 * _BLOCK, 3 * _BLOCK, 4 * _BLOCK)
                                       for d in (-1, 0, 1) if e + d >= 1}))


@given(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
       _BLOCK_EDGES | st.integers(min_value=1, max_value=5000),
       st.integers(min_value=0, max_value=2 * _BLOCK))
def test_scalar_is_the_sequence_entry_bit_for_bit(x, k, extra):
    # the scalar runs the array's operations on one entry, so U_(k-1)(x) is
    # the same double whether the sequence ends at it or runs past it
    for size in (k + 1, k + 1 + extra):
        v = np.empty(size)
        assert _u_sequence_into(v, x) == 0.0
        assert v[k].hex() == eval_U(k - 1, x).hex()


def _sine_error(k, x, value):
    """|value - sin(k theta)/sin(theta)| sin(theta), theta the stored arccos|x|:
    the absolute error of the sine, against 40-digit mpmath."""
    with mpmath.workdps(40):
        theta = mpmath.mpf(math.acos(abs(x)))
        exact = mpmath.sin(k * theta) / mpmath.sin(theta)
        if x < 0 and k % 2 == 0:
            exact = -exact
        return float(abs(mpmath.mpf(value) - exact) * mpmath.sin(theta))


@pytest.mark.parametrize("x", [0.35, -0.35, 0.0, -0.7071, 0.999, 1e-3])
def test_sine_within_four_eps_at_large_degree(x):
    # sin of the rounded (m+1) theta was off by up to (m+1) theta eps / 2
    # (1.1e-10 at m = 10^6); the exact phase keeps the sine within 4 eps at
    # any m below the exactness bound, and at the bound itself
    rng = np.random.default_rng(41)
    ks = [int(k) for k in rng.integers(1, 10**6 + 2, 12)] + [10**6 + 1, _EXACT_K - 1]
    for k in ks:
        assert _sine_error(k, x, eval_U(k - 1, x)) <= 4 * EPS, k
