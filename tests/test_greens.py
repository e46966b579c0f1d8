import math
import warnings

import numpy as np
import pytest

from helpers import random_invertible_spec, random_symmetrisable_spec, thomas_reference
from tritoep import (
    DimensionMismatch,
    IndexOutOfRange,
    NearSingularPivot,
    NotInGappedRegime,
    SingularMatrix,
    SymmetrisedForm,
    TriToeplitzError,
    apply_inverse,
    apply_matvec,
    build_kernel,
    decay_bound,
    decay_envelope,
    hyperbolic_inverse_entry,
    inverse_dense,
    inverse_entry,
    make_spec,
    symmetrise,
    thomas_solve,
)
from tritoep import greens
from tritoep.greens import _CHUNK, _CHUNKED_MIN_N
from tritoep.oracle import dense_from_spec, dense_inverse, lu_solve


class TestBuildKernel:
    def test_invertible_example(self):
        k = build_kernel(make_spec(1, 2, 1, 2))
        assert k.invertible is True
        assert k.wronskian.to_float() == pytest.approx(3.0, rel=1e-13)
        assert math.isnan(k.wronskian_residual) is False
        assert k.wronskian_residual <= 1e-9

    def test_singular_detected(self):
        k = build_kernel(make_spec(1, 0, 1, 3))
        assert k.invertible is False
        assert abs(k.wronskian.try_float() or 0.0) <= 1e-10

    def test_boundary_sequences(self):
        # index k holds U_{k-1}: U_{-1} = 0, U_0 = 1, U_1 = 2x = 5 = U_n
        k = build_kernel(make_spec(1, 5, 1, 1))
        assert k.u_signs.shape == k.u_logs.shape == (3,)
        assert k.u_signs[0] == 0.0 and k.u_logs[0] == -math.inf
        assert k.u_signs[1] == 1.0 and k.u_logs[1] == pytest.approx(0.0, abs=1e-15)
        assert k.u_signs[2] == 1.0
        assert math.exp(k.u_logs[2]) == pytest.approx(5.0, rel=1e-13)
        assert k.wronskian.to_float() == pytest.approx(5.0, rel=1e-13)

    def test_failed_self_check_raises_singular(self):
        # 1e-13 from the singular point cos(pi/101) passes the invertible
        # flag, but the Wronskian residual is 6e-4
        with pytest.raises(SingularMatrix, match="Wronskian residual"):
            build_kernel(make_spec(1, 2 * math.cos(math.pi / 101) + 1e-13, 1, 100))

    def test_x_just_above_minus_one_builds(self):
        # far from singular (log|U_n| ~ 7.6); the sine branch at x itself
        # lost pi - theta here and the self-check failed
        k = build_kernel(make_spec(1, 2 * (-0.99999999997), 1, 2000))
        assert k.invertible
        assert k.wronskian_residual <= 1e-11

    def test_infinite_chebyshev_argument_raises_overflow(self):
        # about 1e308 * I, but x = b/(2s) = 1e308/2e-150 overflows to inf
        spec = make_spec(1e-150, 1e308, 1e-150, 3)
        with pytest.raises(OverflowError):
            build_kernel(spec)
        np.testing.assert_allclose(thomas_solve(spec, np.array([1.0, 2.0, 3.0])),
                                   [1e-308, 2e-308, 3e-308], rtol=1e-15)

    def test_entry_ops_raise_on_singular(self):
        k = build_kernel(make_spec(1, 0, 1, 3))
        with pytest.raises(SingularMatrix):
            inverse_entry(k, 1, 1)
        with pytest.raises(SingularMatrix):
            apply_inverse(k, np.zeros(3))


class TestInverseEntry:
    def test_symmetric_2x2(self):
        k = build_kernel(make_spec(1, 2, 1, 2))
        assert inverse_entry(k, 1, 1) == pytest.approx(2 / 3, rel=1e-13)
        assert inverse_entry(k, 1, 2) == pytest.approx(-1 / 3, rel=1e-13)

    def test_scalar(self):
        k = build_kernel(make_spec(1, 5, 1, 1))
        assert inverse_entry(k, 1, 1) == pytest.approx(0.2, rel=1e-13)

    def test_asymmetric_2x2(self):
        k = build_kernel(make_spec(10, 11, 1, 2))
        assert inverse_entry(k, 1, 2) == pytest.approx(-1 / 111, rel=1e-12)
        assert inverse_entry(k, 2, 1) == pytest.approx(-10 / 111, rel=1e-12)

    def test_index_validation(self):
        k = build_kernel(make_spec(1, 3, 1, 4))
        with pytest.raises(IndexOutOfRange):
            inverse_entry(k, 0, 1)
        with pytest.raises(IndexOutOfRange):
            inverse_entry(k, 1, 5)

    def test_dense_materialisation_agrees(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            spec, kernel = random_invertible_spec(rng, n_max=25)
            full = inverse_dense(kernel)
            for i in (1, spec.n):
                for j in (1, (spec.n + 1) // 2, spec.n):
                    assert full[i - 1, j - 1] == pytest.approx(
                        inverse_entry(kernel, i, j), rel=1e-13, abs=1e-300
                    )


class TestApplyInverse:
    def test_first_column(self):
        k = build_kernel(make_spec(1, 2, 1, 2))
        np.testing.assert_allclose(apply_inverse(k, [1.0, 0.0]), [2 / 3, -1 / 3],
                                   rtol=1e-13)

    def test_scalar(self):
        k = build_kernel(make_spec(1, 5, 1, 1))
        np.testing.assert_allclose(apply_inverse(k, [10.0]), [2.0], rtol=1e-13)

    def test_middle_basis_column_matches_dense(self):
        spec = make_spec(1, 4, 1, 3)
        k = build_kernel(spec)
        got = apply_inverse(k, np.array([0.0, 1.0, 0.0]))
        want = dense_inverse(dense_from_spec(spec))[:, 1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch(self):
        k = build_kernel(make_spec(1, 4, 1, 3))
        with pytest.raises(DimensionMismatch):
            apply_inverse(k, np.ones(4))

    def test_matches_entrywise_kernel_sum(self):
        rng = np.random.default_rng(67)
        for _ in range(12):
            spec, kernel = random_invertible_spec(rng, n_max=200, q_span=0.5)
            rhs = rng.standard_normal(spec.n)
            got = apply_inverse(kernel, rhs)
            want = inverse_dense(kernel) @ rhs
            scale = max(float(np.max(np.abs(want))), 1e-300)
            assert np.max(np.abs(got - want)) <= 1e-10 * scale

    def test_deterministic(self):
        spec = make_spec(1.3, 4.0, 0.9, 500)
        k = build_kernel(spec)
        rhs = np.random.default_rng(5).standard_normal(500)
        x1 = apply_inverse(k, rhs)
        x2 = apply_inverse(k, rhs)
        assert np.array_equal(x1, x2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smallest_orders_match_dense(self, n):
        # n = 2 is the first order where the suffix sums reach a row
        for spec in (make_spec(0.7, 2.9, 1.3, n), make_spec(-0.5, 0.3, -2.0, n)):
            rhs = np.arange(1.0, n + 1.0)
            want = dense_inverse(dense_from_spec(spec)) @ rhs
            got = apply_inverse(build_kernel(spec), rhs)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_rhs_with_exact_zeros(self):
        spec = make_spec(0.8, -2.7, 1.1, 40)
        rhs = np.zeros(40)
        rhs[[5, 6, 22]] = [1.5, -2.0, 0.25]
        want = inverse_dense(build_kernel(spec)) @ rhs
        got = apply_inverse(build_kernel(spec), rhs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.array_equal(apply_inverse(build_kernel(spec), np.zeros(40)),
                              np.zeros(40))

    def test_block_equals_columns_exactly(self):
        rng = np.random.default_rng(211)
        for n in (1, 2, 37, 500):
            spec, kernel = random_invertible_spec(rng, n_max=n, q_span=0.5)
            n = spec.n
            block = rng.standard_normal((n, 5))
            block[:, 2] = 0.0
            block[n // 2, 4] = 0.0
            got = apply_inverse(kernel, block)
            assert got.shape == (n, 5)
            for col in range(5):
                assert np.array_equal(got[:, col], apply_inverse(kernel, block[:, col]))
            one = apply_inverse(kernel, block[:, :1])
            assert one.shape == (n, 1)
            assert np.array_equal(one[:, 0], got[:, 0])

    def test_block_dimension_mismatch(self):
        k = build_kernel(make_spec(1, 4, 1, 3))
        for bad in (np.ones((4, 2)), np.ones((2, 3)), np.ones((3, 2, 2)), 1.0):
            with pytest.raises(DimensionMismatch):
                apply_inverse(k, bad)

    def test_overflow_raises_like_inverse_entry(self):
        # |q|^(n-1) = 1e1197: entries and solution leave the float range
        kernel = build_kernel(make_spec(1e3, 3, 1e-3, 400))
        with pytest.raises(OverflowError):
            inverse_entry(kernel, 400, 1)
        with pytest.raises(OverflowError):
            apply_inverse(kernel, np.ones(400))

    def test_overflowing_sum_of_finite_terms_raises(self):
        # x_1 = 8.5e307 + 9.5e307 leaves the float range, x_2 does not
        kernel = build_kernel(make_spec(0.1, 2.5, 10, 2))
        rhs = np.array([1.79e308, -0.5e308])
        assert np.all(np.isfinite(apply_inverse(kernel, rhs * [1, 0])))
        assert np.all(np.isfinite(apply_inverse(kernel, rhs * [0, 1])))
        with pytest.raises(OverflowError):
            apply_inverse(kernel, rhs)

    def test_finite_solution_near_overflow_is_returned(self):
        # rhs_1 and rhs_2 cancel in the prefix sum, so the last rows are just
        # below the float range while entry (n, 1) and the prefix sum's
        # scale factor alone are beyond it
        n, x = 60, 1.5
        q = math.exp(768.4 / (n - 1))
        kernel = build_kernel(make_spec(q, 2.0 * x, 1.0 / q, n))
        rhs = np.zeros(n)
        rhs[:2] = [1.0, q * (1.0 - 1e-3) / (2.0 * x)]
        with pytest.raises(OverflowError):
            inverse_entry(kernel, n, 1)
        got = apply_inverse(kernel, rhs)
        assert np.all(np.isfinite(got)) and abs(got[-1]) > 1e305
        np.testing.assert_allclose(got, 1e6 * apply_inverse(kernel, 1e-6 * rhs),
                                   rtol=1e-9)

    def test_nan_rhs_is_not_hidden(self):
        k = build_kernel(make_spec(1, 3, 1, 5))
        with np.errstate(invalid="ignore"):
            got = apply_inverse(k, [1.0, np.nan, 0.0, 0.0, 0.0])
        assert np.all(np.isnan(got))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    def test_infinite_rhs_gives_all_nan_without_warnings(self, entry):
        # thomas_solve gives +-inf entries for the same input
        k = build_kernel(make_spec(1, 2.5, 1, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_inverse(k, [1.0, entry, 0.0, 0.0, 0.0])
        assert np.all(np.isnan(got))


def _growth_spec(x, q_sign, log_growth, n):
    """s = 1, b = 2x and log|q|*(n-1) = log_growth."""
    q = q_sign * math.exp(log_growth / (n - 1))
    return make_spec(q, 2.0 * x, 1.0 / q, n)


@pytest.fixture
def two_level_calls(monkeypatch):
    """The column-grid shapes _scan_two_level is called with, in order."""
    calls = []
    scan = greens._scan_two_level

    def spy(weights, top, cols, col_top):
        calls.append(cols.shape)
        return scan(weights, top, cols, col_top)

    monkeypatch.setattr(greens, "_scan_two_level", spy)
    return calls


class TestTwoLevelScan:
    """The chunked scan of apply_inverse, from _CHUNKED_MIN_N rows on."""

    # the largest log-space order, the smallest chunked one (whole chunks),
    # one row into a new chunk, and a last chunk one row short of full
    @pytest.mark.parametrize("n", [
        _CHUNKED_MIN_N - 1, _CHUNKED_MIN_N, _CHUNKED_MIN_N + 1,
        _CHUNKED_MIN_N + 2 * _CHUNK - 1,
    ])
    @pytest.mark.parametrize("x, q_sign", [(0.35, 1.0), (1.25, -1.0), (2.9, 1.0)])
    def test_chunk_edges(self, n, x, q_sign, two_level_calls):
        spec = _growth_spec(x, q_sign, 30.0, n)
        kernel = build_kernel(spec)
        rhs = np.random.default_rng(n).standard_normal(n)
        got = apply_inverse(kernel, rhs)
        assert len(two_level_calls) == (0 if n < _CHUNKED_MIN_N else 2)
        assert _backward_error(spec, got, rhs) <= 1e-11
        want = thomas_solve(spec, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(227)
        for _ in range(4):
            n = int(rng.integers(_CHUNKED_MIN_N, 2001))
            x = float(rng.choice([rng.uniform(-0.95, 0.95), rng.uniform(1.05, 3.0)]))
            spec = _growth_spec(x, float(rng.choice([-1.0, 1.0])),
                                float(rng.uniform(-40.0, 40.0)), n)
            rhs = rng.standard_normal(n)
            got = apply_inverse(build_kernel(spec), rhs)
            want = np.linalg.solve(dense_from_spec(spec), rhs)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("x, log_growth", [
        (100.0, 0.0), (100.0, 1500.0), (100.0, -1500.0), (-100.0, 1500.0),
    ])
    @pytest.mark.parametrize("q_sign", [1.0, -1.0])
    def test_wide_chunks_take_the_log_scan(self, x, log_growth, q_sign, two_level_calls):
        # each row moves the scan terms by e^4 or more, so every chunk spans
        # far more than _CHUNK_LOG_SPAN e-folds and the column takes the log
        # scan whole
        n = _CHUNKED_MIN_N + _CHUNK // 2
        spec = _growth_spec(x, q_sign, log_growth, n)
        kernel = build_kernel(spec)
        rhs = np.random.default_rng(229).standard_normal(n)
        got = apply_inverse(kernel, rhs)
        assert two_level_calls == []
        assert _backward_error(spec, got, rhs) <= 1e-11
        want = thomas_solve(spec, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("log_growth", [1500.0, -1500.0])
    @pytest.mark.parametrize("q_sign", [1.0, -1.0])
    def test_growth_beyond_the_float_range_overflows(self, log_growth, q_sign):
        # oscillatory x does not damp |q|^(i-j): the far corner is e^1500
        n = _CHUNKED_MIN_N + _CHUNK
        kernel = build_kernel(_growth_spec(0.5, q_sign, log_growth, n))
        with pytest.raises(OverflowError):
            apply_inverse(kernel, np.random.default_rng(233).standard_normal(n))

    def test_rhs_spread_inside_one_chunk(self, two_level_calls):
        # 1e+-300 neighbours put 1380 e-folds into one chunk, so the column
        # takes the log scan whole.  Far from row 301 the 1e300 source has
        # decayed to the size of the other entries' part, so each row is
        # checked against the superposition of the two parts, to rounding of
        # each.
        n = _CHUNKED_MIN_N + 100
        spec = _growth_spec(1.25, 1.0, 20.0, n)
        kernel = build_kernel(spec)
        rest = np.random.default_rng(239).standard_normal(n)
        rest[300:303] = 0.0
        rhs = rest.copy()
        rhs[300:303] = [1e300, -1e-300, 2e-300]
        got = apply_inverse(kernel, rhs)
        assert two_level_calls == []
        e_301 = np.zeros(n)
        e_301[300] = 1.0
        near, far = 1e300 * apply_inverse(kernel, e_301), apply_inverse(kernel, rest)
        assert np.all(np.abs(got - (near + far)) <= 1e-9 * (np.abs(near) + np.abs(far)))

    def test_rhs_spread_in_every_chunk(self, two_level_calls):
        # entries 10^u with u uniform in [-300, 300] span over 650 e-folds in
        # every chunk: the column takes the log scan whole, not chunk by chunk
        n = _CHUNKED_MIN_N + _CHUNK
        spec = _growth_spec(1.25, 1.0, 20.0, n)
        rng = np.random.default_rng(243)
        rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        got = apply_inverse(build_kernel(spec), rhs)
        assert two_level_calls == []
        want = thomas_solve(spec, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_rhs_with_exact_zeros(self):
        # zero chunks, a single nonzero row, and zeros inside live chunks
        n = _CHUNKED_MIN_N + 2 * _CHUNK + 7
        spec = _growth_spec(0.6, -1.0, -25.0, n)
        kernel = build_kernel(spec)
        rhs = np.random.default_rng(241).standard_normal(n)
        rhs[: 2 * _CHUNK] = 0.0
        rhs[::3] = 0.0
        got = apply_inverse(kernel, rhs)
        assert _backward_error(spec, got, rhs) <= 1e-11
        e_j = np.zeros(n)
        e_j[_CHUNK + 5] = 1.0
        col = apply_inverse(kernel, e_j)
        for i in (1, _CHUNK + 6, n):
            assert col[i - 1] == pytest.approx(inverse_entry(kernel, i, _CHUNK + 6),
                                               rel=1e-11)
        assert np.array_equal(apply_inverse(kernel, np.zeros(n)), np.zeros(n))

    def test_nan_rhs_gives_all_nan(self):
        n = _CHUNKED_MIN_N + 3
        kernel = build_kernel(_growth_spec(1.25, 1.0, 10.0, n))
        rhs = np.random.default_rng(251).standard_normal(n)
        rhs[n // 2] = np.nan
        with np.errstate(invalid="ignore"):
            got = apply_inverse(kernel, rhs)
        assert np.all(np.isnan(got))

    def test_infinite_rhs_gives_an_all_nan_column_without_warnings(self):
        n = _CHUNKED_MIN_N + 3
        kernel = build_kernel(_growth_spec(1.25, 1.0, 10.0, n))
        block = np.random.default_rng(253).standard_normal((n, 3))
        block[n // 2, 0] = np.inf
        block[[0, _CHUNK, n - 1], 1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_inverse(kernel, block)
            finite = apply_inverse(kernel, block[:, 2])
        assert np.all(np.isnan(got[:, :2]))
        assert np.array_equal(got[:, 2], finite)

    def test_block_equals_columns_bit_for_bit(self):
        n = _CHUNKED_MIN_N + _CHUNK + 9
        spec = _growth_spec(0.8, -1.0, 15.0, n)
        kernel = build_kernel(spec)
        rng = np.random.default_rng(257)
        block = rng.standard_normal((n, 5))
        block[:, 1] = 0.0
        block[: 3 * _CHUNK, 2] = 0.0
        block[40:42, 3] = [1e300, 1e-300]  # one column falls back in one chunk
        block[:, 4] *= 1e-300
        got = apply_inverse(kernel, block)
        for col in range(5):
            assert np.array_equal(got[:, col], apply_inverse(kernel, block[:, col]))


def _backward_error(spec, x, rhs):
    """Normwise ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)."""
    a_norm = abs(spec.a) + abs(spec.b) + abs(spec.c)
    resid = np.max(np.abs(apply_matvec(spec, x) - rhs))
    return resid / (a_norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))


@pytest.mark.parametrize("x", [0.35, -0.8, 1 + 5e-8, 1.25])
@pytest.mark.parametrize("q_sign", [1.0, -1.0])
@pytest.mark.parametrize("log_growth", [-40.0, 40.0])
def test_apply_inverse_regimes(x, q_sign, log_growth):
    # oscillatory, near-confluent and gapped x; log|q|*(n-1) = +-40
    n = 10_000
    q = q_sign * math.exp(log_growth / (n - 1))
    spec = make_spec(q, 2.0 * x, 1.0 / q, n)
    rhs = np.random.default_rng(223).standard_normal(n)
    xk = apply_inverse(build_kernel(spec), rhs)
    assert _backward_error(spec, xk, rhs) <= 1e-9
    xt = thomas_solve(spec, rhs)
    assert np.max(np.abs(xk - xt)) <= 1e-9 * np.max(np.abs(xt))


class TestThomas:
    def test_examples(self):
        np.testing.assert_allclose(
            thomas_solve(make_spec(1, 2, 1, 2), [1.0, 0.0]), [2 / 3, -1 / 3],
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            thomas_solve(make_spec(10, 11, 1, 2), [1.0, 0.0]), [11 / 111, -10 / 111],
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            thomas_solve(make_spec(1, 5, 1, 1), [10.0]), [2.0], rtol=1e-14
        )

    def test_no_symmetrisability_needed(self):
        spec = make_spec(-1.0, 3.0, 2.0, 6)
        rhs = np.arange(1.0, 7.0)
        got = thomas_solve(spec, rhs)
        want = lu_solve(dense_from_spec(spec), rhs)
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_zero_pivot_escape(self):
        with pytest.raises(NearSingularPivot):
            thomas_solve(make_spec(1, 0, 1, 2), [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            thomas_solve(make_spec(1, 3, 1, 3), [1.0])

    def test_nearly_singular_odd_order_is_ill_conditioned_not_wrong(self):
        # b ~ 0 with n odd is one eigenvalue away from singular; a generic
        # rhs gives a solution ~1e200 whose residual is large relative to
        # ||b|| only, while the normwise backward error is at rounding level
        spec = make_spec(1, 1e-200, 1, 7)
        rhs = np.arange(1.0, 8.0)
        x = thomas_solve(spec, rhs)
        assert np.max(np.abs(x)) > 1e199
        assert _backward_error(spec, x, rhs) <= 1e-15
        want = np.linalg.solve(dense_from_spec(spec), rhs)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    def test_tiny_pivot_with_bounded_solution(self):
        # rhs = 1 has no component along the near-null vector, so the exact
        # solution is (1, 1, 0, 0, 1, 1, 0); elimination through the 1e-200
        # pivot loses it.  Either the bound holds or a typed error is raised.
        spec = make_spec(1, 1e-200, 1, 7)
        rhs = np.ones(7)
        try:
            x = thomas_solve(spec, rhs)
        except TriToeplitzError:
            return
        assert _backward_error(spec, x, rhs) <= 1e-15

    @pytest.mark.parametrize("spec, rhs", [
        # LAPACK gives (-1e-289, 1e10); elimination gave (nan, inf)
        (make_spec(1, 1e-299, 1, 2), [1e10, 0.0]),
        # LAPACK gives a finite vector; elimination gave six NaNs and -inf
        (make_spec(1, 1e-200, 1, 7), np.full(7, 1e120)),
        # an infinite x whose residual is infinite too: inf <= 1e-9 * inf
        (make_spec(1, 1e-299, 1, 1), [1e10]),
    ])
    def test_nonfinite_answer_to_finite_rhs_refused(self, spec, rhs):
        with pytest.raises(NearSingularPivot, match="backward error"):
            thomas_solve(spec, rhs)

    def test_overflowing_solution_raises_overflow_without_warnings(self):
        # well-conditioned: the exact solution (1.5, -2, 1.5) * 1e308 leaves
        # the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="float range"):
                thomas_solve(make_spec(1, 2, 1, 3), [1e308, -1e308, 1e308])
            with pytest.raises(OverflowError, match="float range"):
                thomas_solve(make_spec(1, -2, 1, 3), [1e308, 1e308, 1e308])
            x = thomas_solve(make_spec(1, 2, 1, 3), [1e307, -1e307, 1e307])
        np.testing.assert_allclose(x, [1.5e307, -2e307, 1.5e307], rtol=1e-15)

    def test_overflow_after_a_tiny_pivot_of_a_negative_diagonal_is_near_singular(self):
        # pivots -(1 + 1e-12) and about -2e-12, below 1e-8 times the row
        # scale: the solution of about 5e311 comes from the near-singular
        # matrix, so it is not named an overflow
        with pytest.raises(NearSingularPivot):
            thomas_solve(make_spec(1, -(1 + 1e-12), 1, 2), [1e300, 0.0])

    @pytest.mark.parametrize("rhs", [[1e-320, 3e-321], [5e-324, 5e-324]])
    def test_subnormal_rhs_is_solved(self, rhs):
        # rounding in the subnormal range is absolute: the residual is a few
        # 2^-1074 steps, far above 1e-9 of the values themselves
        spec = make_spec(1, 3, 1, 2)
        x = thomas_solve(spec, rhs)
        resid = np.max(np.abs(apply_matvec(spec, x) - rhs))
        assert resid <= 4 * spec.row_scale() * 2.0**-1074
        exact = np.linalg.solve(dense_from_spec(spec), np.array(rhs) * 2.0**600)
        assert np.max(np.abs(x - exact * 2.0**-600)) <= 2 * 2.0**-1074

    def test_nan_rhs_gives_nan_solution(self):
        x = thomas_solve(make_spec(1, 2.5, 1, 4), [1.0, np.nan, 0.0, 0.0])
        assert np.all(np.isnan(x))

    def test_finite_solution_near_the_float_range_is_accepted(self):
        # row_scale max|x| + max|rhs| is past the float range, the bound is
        # not; (5e307, -6.25e307, 6.5625e307) is the exact solution, which
        # the log-space kernel scan meets to about |log 1e308| * eps
        spec = make_spec(0.5, 2, 1e-300, 3)
        rhs = [1e308, -1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = thomas_solve(spec, rhs)
            via_kernel = apply_inverse(build_kernel(spec), rhs)
        np.testing.assert_allclose(x, [5e307, -6.25e307, 6.5625e307], rtol=1e-15)
        np.testing.assert_allclose(x, via_kernel, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 300, 2000])
    def test_bit_identical_to_indexed_reference(self, n):
        rng = np.random.default_rng(9000 + n)
        negative_zeros = 0
        # both off-diagonal signs each (q < 0 when a, c < 0), both diagonal signs
        for sa, sc, sb in np.ndindex(2, 2, 2):
            a = (-1.0) ** sa * math.exp(rng.uniform(-0.5, 0.5))
            c = (-1.0) ** sc * math.exp(rng.uniform(-0.5, 0.5))
            b = (-1.0) ** sb * (abs(a) + abs(c)) * rng.uniform(1.05, 3.0)
            spec = make_spec(a, b, c, n)
            general = rng.standard_normal(n)
            general[rng.random(n) < 0.25] = 0.0
            general[rng.random(n) < 0.25] = -0.0
            signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            for rhs in (general, signed_zeros):
                rhs[0] = -0.0
                want = thomas_reference(spec, rhs)
                assert thomas_solve(spec, rhs).tobytes() == want.tobytes()
                negative_zeros += int(np.sum((want == 0.0) & np.signbit(want)))
        assert negative_zeros > 0

    def test_bit_identical_to_indexed_reference_on_nan_rhs(self):
        spec = make_spec(-1.0, 2.5, 1.5, 17)
        rhs = np.random.default_rng(9100).standard_normal(17)
        rhs[5] = np.nan
        want = thomas_reference(spec, rhs)
        got = thomas_solve(spec, rhs)
        assert np.isnan(want).all()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec, row", [
        (make_spec(1, 0, 1, 2), 1),
        # b^2 = ac: the second pivot is b - a c / b = 0
        (make_spec(1, 1, 1, 3), 2),
    ])
    def test_pivot_refusal_matches_indexed_reference(self, spec, row):
        rhs = np.ones(spec.n)
        with pytest.raises(NearSingularPivot) as want:
            thomas_reference(spec, rhs)
        with pytest.raises(NearSingularPivot) as got:
            thomas_solve(spec, rhs)
        assert str(got.value) == str(want.value)
        assert f"at row {row} " in str(got.value)

    def test_agrees_with_apply_inverse_large(self):
        spec = make_spec(1.0, 2.5, 1.0, 10_000)
        rhs = np.random.default_rng(71).standard_normal(10_000)
        xk = apply_inverse(build_kernel(spec), rhs)
        xt = thomas_solve(spec, rhs)
        scale = float(np.max(np.abs(xt)))
        assert np.max(np.abs(xk - xt)) <= 1e-9 * scale

    def test_agrees_with_apply_inverse_random_gapped(self):
        rng = np.random.default_rng(151)
        for n in (10, 100, 1000, 10_000):
            sign = -1.0 if rng.random() < 0.5 else 1.0
            a = sign * math.exp(rng.uniform(-0.3, 0.3))
            c = sign * math.exp(rng.uniform(-0.3, 0.3))
            s = math.sqrt(a * c)
            spec = make_spec(a, 2.0 * s * rng.uniform(1.05, 2.5), c, n)
            rhs = rng.standard_normal(n)
            xk = apply_inverse(build_kernel(spec), rhs)
            xt = thomas_solve(spec, rhs)
            scale = float(np.max(np.abs(xt)))
            assert np.max(np.abs(xk - xt)) <= 1e-9 * scale


class TestDecay:
    def test_bound_values(self):
        spec = make_spec(1, 2.5, 1, 10)
        assert decay_bound(spec, 1, 4) == pytest.approx(1 / 6, rel=1e-13)
        assert decay_bound(spec, 3, 3) == pytest.approx(4 / 3, rel=1e-13)
        env = decay_envelope(spec)
        assert env.eta == pytest.approx(2.0, rel=1e-14)
        assert env.prefactor == pytest.approx(4 / 3, rel=1e-13)

    def test_regime_gate(self):
        with pytest.raises(NotInGappedRegime):
            decay_bound(make_spec(1, 2, 1, 3), 1, 1)
        with pytest.raises(NotInGappedRegime):
            decay_envelope(make_spec(1, 0.5, 1, 3))

    def test_dominates_inverse_entries(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            spec = random_symmetrisable_spec(rng, n_max=120, x_range=(1.05, 3.0))
            kernel = build_kernel(spec)
            assert kernel.invertible
            inv = inverse_dense(kernel)
            n = spec.n
            idx = np.arange(1, n + 1)
            form = symmetrise(spec)
            gamma = math.acosh(form.x)
            log_env = (
                math.log(2.0 / form.s)
                - math.log(2.0 * math.sinh(gamma))
                + np.subtract.outer(idx, idx) * math.log(abs(form.q))
                - np.abs(np.subtract.outer(idx, idx)) * gamma
            )
            bound = np.exp(log_env)
            assert np.all(np.abs(inv) <= bound * (1.0 + 1e-12))
            # spot-check the scalar op against the vectorised envelope
            assert decay_bound(spec, 1, min(3, n)) == pytest.approx(
                float(bound[0, min(3, n) - 1]), rel=1e-12
            )


class TestHyperbolicEntries:
    def test_2x2_values(self):
        form = SymmetrisedForm(s=1.0, q=1.0, x=1.25, n=2)
        assert hyperbolic_inverse_entry(form, 1, 1) == pytest.approx(10 / 21, rel=1e-12)
        assert hyperbolic_inverse_entry(form, 1, 2) == pytest.approx(-4 / 21, rel=1e-12)
        assert hyperbolic_inverse_entry(form, 2, 1) == pytest.approx(-4 / 21, rel=1e-12)

    def test_scalar_reciprocal(self):
        form = symmetrise(make_spec(1, 7, 1, 1))
        assert hyperbolic_inverse_entry(form, 1, 1) == pytest.approx(1 / 7, rel=1e-13)

    def test_regime_gate(self):
        with pytest.raises(NotInGappedRegime):
            hyperbolic_inverse_entry(SymmetrisedForm(1.0, 1.0, 1.0, 3), 1, 1)

    def test_agrees_with_kernel_when_symmetric(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            n = int(rng.integers(1, 60))
            x = float(rng.uniform(1.01, 3.0))
            spec = make_spec(1.0, 2.0 * x, 1.0, n)
            kernel = build_kernel(spec)
            form = symmetrise(spec)
            for i in (1, (n + 1) // 2, n):
                for j in (1, n):
                    assert hyperbolic_inverse_entry(form, i, j) == pytest.approx(
                        inverse_entry(kernel, i, j), rel=1e-11
                    )


def test_wronskian_constancy_sampled():
    # oscillatory x at mid-gap angles, hyperbolic x in (1, 3), n up to 500
    rng = np.random.default_rng(83)
    for _ in range(12):
        n = int(rng.integers(2, 501))
        if rng.random() < 0.5:
            theta = rng.uniform(0.45, math.pi - 0.45)
            k_star = round(theta * (n + 1) / math.pi)
            theta = (min(max(k_star, 1), n) + 0.5) * math.pi / (n + 1)
            x = math.cos(theta)
        else:
            x = rng.uniform(1.001, 3.0)
        spec = make_spec(1.0, 2.0 * x, 1.0, n)
        kernel = build_kernel(spec)
        if not kernel.invertible:
            continue
        assert kernel.wronskian_residual <= 1e-9


def test_inverse_columns_satisfy_system():
    # absolute residual against e_j, so the samples must be comfortably
    # invertible and keep q^n moderate, or the Euclidean inverse scale
    # alone eats the budget; skewed q is covered by the relative tests
    rng = np.random.default_rng(89)
    for _ in range(15):
        spec, kernel = random_invertible_spec(rng, n_max=100, q_span=0.08,
                                              margin=1e-3)
        n = spec.n
        for j in (1, (n + 1) // 2, n):
            col = np.array([inverse_entry(kernel, i, j) for i in range(1, n + 1)])
            e_j = np.zeros(n)
            e_j[j - 1] = 1.0
            resid = np.max(np.abs(apply_matvec(spec, col) - e_j))
            assert resid <= 1e-9


def test_weighted_symmetry_of_inverse():
    rng = np.random.default_rng(97)
    for _ in range(15):
        spec, kernel = random_invertible_spec(rng, n_max=60, q_span=0.4)
        q2 = kernel.q * kernel.q
        n = spec.n
        for i in (1, (n + 1) // 2, n):
            for j in (1, (2 * n) // 3 + 1, n):
                lhs = inverse_entry(kernel, i, j)
                rhs = q2 ** (i - j) * inverse_entry(kernel, j, i)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-280)


def test_kernel_inverse_matches_dense_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        spec, kernel = random_invertible_spec(rng, n_max=50, q_span=0.6)
        got = inverse_dense(kernel)
        want = dense_inverse(dense_from_spec(spec))
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-9 * scale
