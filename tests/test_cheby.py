import math

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
    u_sequence_scaled,
)
from tritoep.cheby import _u_sequence_arrays


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

    @pytest.mark.parametrize("func", [eval_U, eval_U_scaled, u_sequence_scaled,
                                      _u_sequence_arrays])
    def test_nonfinite_argument_refused(self, func):
        for x in (math.inf, -math.inf):
            with pytest.raises(OverflowError):
                func(3, x)
        with pytest.raises(InvalidParameter):
            func(3, math.nan)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            eval_U(2000, 5.0)


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


class TestUSequence:
    def test_at_one(self):
        seq = u_sequence_scaled(3, 1.0)
        vals = [sv.to_float() for sv in seq]
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0, 4.0], rtol=1e-14)
        m = np.arange(1001)
        for x, parity in ((1.0, 1.0), (-1.0, (-1.0) ** m)):
            signs, logs = _u_sequence_arrays(1000, x)
            assert np.array_equal(signs, parity * np.ones(1001))
            assert np.array_equal(logs, np.log(m + 1.0))

    def test_at_zero(self):
        vals = [sv.to_float() for sv in u_sequence_scaled(2, 0.0)]
        assert vals[0] == 1.0
        assert abs(vals[1]) <= 1e-12
        assert vals[2] == pytest.approx(-1.0, rel=1e-12)

    def test_hyperbolic(self):
        vals = [sv.to_float() for sv in u_sequence_scaled(2, 1.25)]
        np.testing.assert_allclose(vals, [1.0, 2.5, 5.25], rtol=1e-13)

    @pytest.mark.parametrize("x", [-2.5, -0.9, 0.1, 0.9999, 1.0, 1.0001, 2.0,
                                   1.0 + 1e-9, 1.0 - 1e-9, -1.0 - 1e-12,
                                   1.0 + 2.0**-52])
    def test_consistent_with_scalar_path(self, x):
        seq = u_sequence_scaled(40, x)
        for m, sv in enumerate(seq):
            ref = eval_U_scaled(m, x)
            assert sv.sign == ref.sign
            if sv.sign != 0:
                assert sv.log_mag == pytest.approx(ref.log_mag, rel=1e-13, abs=1e-13)


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

    def test_mul(self):
        a = ScaledValue.from_float(-3.0)
        b = ScaledValue.from_float(2.0)
        assert (a * b).to_float() == pytest.approx(-6.0, rel=1e-14)
        zero = ScaledValue.from_float(0.0)
        assert (a * zero).sign == 0


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
    for m, sv in enumerate(u_sequence_scaled(59, x)):
        ref = eval_U_scaled(m, x)
        assert sv.sign == ref.sign
        assert sv.log_mag == pytest.approx(ref.log_mag, rel=1e-13, abs=1e-13)
