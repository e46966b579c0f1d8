import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (inverse_exact, random_invertible_spec, random_symmetrisable_spec,
                     thomas_reference)
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
from tritoep.greens import _CHUNK, _CHUNK_LOG_SPAN
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
        assert k.v.shape == (3,) and k.gamma == math.acosh(2.5)
        assert k.v[0] == 0.0
        assert k.v[1] == pytest.approx(1.0, abs=1e-15)
        assert k.v[2] * math.exp(k.gamma) == pytest.approx(5.0, rel=1e-13)
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
        with pytest.raises(OverflowError, match=r"^inverse entry \(400,1\) has log-magnitude"):
            inverse_entry(kernel, 400, 1)
        # the array exits name their largest entry the same way
        beyond = r"\(400,1\) has log-magnitude 2371\.\d+, beyond the float range$"
        with pytest.raises(OverflowError, match="^inverse entry " + beyond):
            inverse_dense(kernel)
        with pytest.raises(OverflowError, match="^solution term " + beyond):
            apply_inverse(kernel, np.ones(400))

    def test_overflowing_sum_of_finite_terms_raises(self):
        # x_1 = 8.5e307 + 9.5e307 leaves the float range, x_2 does not
        kernel = build_kernel(make_spec(0.1, 2.5, 10, 2))
        rhs = np.array([1.79e308, -0.5e308])
        assert np.all(np.isfinite(apply_inverse(kernel, rhs * [1, 0])))
        assert np.all(np.isfinite(apply_inverse(kernel, rhs * [0, 1])))
        with pytest.raises(OverflowError,
                           match=r"^solution entry \(1,1\) has log-magnitude 709\.787, beyond"):
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
        # thomas_solve gives the same all-NaN answer (TestThomas)
        k = build_kernel(make_spec(1, 2.5, 1, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_inverse(k, [1.0, entry, 0.0, 0.0, 0.0])
        assert np.all(np.isnan(got))


def _growth_spec(x, q_sign, log_growth, n):
    """s = 1, b = 2x and log|q|*(n-1) = log_growth (log|q| = log_growth for n = 1)."""
    q = q_sign * math.exp(log_growth / max(n - 1, 1))
    return make_spec(q, 2.0 * x, 1.0 / q, n)


def _rate_spec(x, q_sign, log_q, n):
    """s = 1, b = 2x and log|q| = log_q per row, so the rows per chunk do not depend on n."""
    q = q_sign * math.exp(log_q)
    return make_spec(q, 2.0 * x, 1.0 / q, n)


def _cap(kernel):
    """The most rows a chunk of kernel's apply may hold: _CHUNK, and under
    _CHUNK_LOG_SPAN e-folds of row weights, gamma + |log|q|| each."""
    per_row = kernel.gamma + abs(math.log(abs(kernel.q)))
    if _CHUNK * per_row <= _CHUNK_LOG_SPAN:
        return _CHUNK
    return max(1, int(_CHUNK_LOG_SPAN / per_row))


def _grid(n, cap):
    """The term-grid shape of one column: n rows in as few chunks of at most
    cap rows as hold them, each ceil(n / chunks) rows, padded."""
    chunks = -(-n // cap)
    return (2, 1, chunks, -(-n // chunks))


def _unit(n, j, scale=1.0):
    """Column j (1-based) of scale times the n x n identity."""
    e = np.zeros(n)
    e[j - 1] = scale
    return e


@pytest.fixture
def fused_calls(monkeypatch):
    """The term-grid shapes _fused is called with, in order."""
    calls = []
    fused = greens._fused

    def spy(kernel, terms, *args):
        calls.append(terms.shape)
        return fused(kernel, terms, *args)

    monkeypatch.setattr(greens, "_fused", spy)
    return calls


@pytest.fixture
def scan_calls(monkeypatch):
    """The shapes of the log-space scans, the chunk carries' and the wide chunks', in order."""
    calls = []
    scan = greens._scan_scaled

    def spy(negative, pos):
        calls.append(pos.shape)
        return scan(negative, pos)

    monkeypatch.setattr(greens, "_scan_scaled", spy)
    return calls


# x, the sign of q, the per-row log|q| (about 30 e-folds over three chunks) and
# the cap: 4096 rows where gamma + |log|q|| <= 650 / 4096, else
# floor(650 / (gamma + |log|q||))
_RATE_KERNELS = [(0.35, 1.0, 0.0025, 4096), (1.25, -1.0, 0.01, 924), (2.9, 1.0, 0.025, 371),
                 (100.0, -1.0, 0.0, 122)]


class TestTwoLevelScan:
    """The chunked linear-space apply of apply_inverse, at every n."""

    # chunk edges at each kernel's cap L: 1, 2, L - 1 and L rows (one chunk,
    # no padding, no carry scan), L + 1, 2L - 1, 2L + 1 and 3L + 1 rows (one
    # row into a new chunk: the chunks are evened out), 2L and 3L rows (whole
    # chunks), 3L - 1 and 3L - 2 rows (a last chunk one and two rows short)
    @pytest.mark.parametrize("edge", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, -1), (2, 0),
                                      (2, 1), (3, -2), (3, -1), (3, 0), (3, 1)],
                             ids=lambda e: f"{e[0]}L{e[1]:+d}")
    @pytest.mark.parametrize("x, q_sign, log_q, cap", _RATE_KERNELS)
    def test_cap_edges(self, edge, x, q_sign, log_q, cap, fused_calls, scan_calls):
        n = edge[0] * cap + edge[1]
        spec = _rate_spec(x, q_sign, log_q, n)
        rhs = np.random.default_rng(n).standard_normal(n)
        got = apply_inverse(build_kernel(spec), rhs)
        grid = _grid(n, cap)
        assert fused_calls == [grid]
        assert grid[2] == max(1, edge[0] + (edge[1] > 0)) and 0 <= grid[2] * grid[3] - n < grid[2]
        assert scan_calls == ([] if n <= cap else [grid[:3]])
        assert _backward_error(spec, got, rhs) <= 1e-11
        want = thomas_solve(spec, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    # orders that were chunk edges of the former 256-row cap (n = 0, 1, 254
    # and 255 mod 256): one chunk now at x = 0.35, two at x = 1.25, four or
    # five at x = 2.9
    @pytest.mark.parametrize("n", [1279, 1280, 1281, 1791, 1534, 1536, 1537])
    @pytest.mark.parametrize("x, q_sign", [(0.35, 1.0), (1.25, -1.0), (2.9, 1.0)])
    def test_chunk_edges(self, n, x, q_sign, fused_calls):
        spec = _growth_spec(x, q_sign, 30.0, n)
        kernel = build_kernel(spec)
        rhs = np.random.default_rng(n).standard_normal(n)
        got = apply_inverse(kernel, rhs)
        assert fused_calls == [_grid(n, _cap(kernel))]
        assert _backward_error(spec, got, rhs) <= 1e-11
        want = thomas_solve(spec, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    # about the former cap of 256 rows, and 122 rows at x = 100 (gamma =
    # 5.298), where the cap is still 122: at n <= L one chunk with no padding
    # and no carry scan
    @pytest.mark.parametrize("edge", ["1", "2", "L-1", "L", "L+1", "2L-1", "2L+1"])
    @pytest.mark.parametrize("x, q_sign, log_growth, length", [
        (0.35, 1.0, 30.0, 256), (1.25, -1.0, 30.0, 256), (2.9, 1.0, 30.0, 256),
        (100.0, -1.0, 0.0, 122),
    ])
    def test_chunk_rule(self, edge, x, q_sign, log_growth, length, fused_calls, scan_calls):
        n = {"1": 1, "2": 2, "L-1": length - 1, "L": length, "L+1": length + 1,
             "2L-1": 2 * length - 1, "2L+1": 2 * length + 1}[edge]
        spec = _growth_spec(x, q_sign, log_growth, n)
        kernel = build_kernel(spec)
        rhs = np.random.default_rng(n).standard_normal(n)
        got = apply_inverse(kernel, rhs)
        rows = _cap(kernel)
        assert (rows == 122) if x == 100.0 else (n <= 2 or rows > 256)
        assert fused_calls == [_grid(n, rows)]
        assert scan_calls == ([] if n <= rows else [_grid(n, rows)[:3]])
        assert _backward_error(spec, got, rhs) <= 1e-11
        want = thomas_solve(spec, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(227)
        for _ in range(4):
            n = int(rng.integers(1, 2001))
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
    def test_wide_chunks_take_the_log_scan(self, x, log_growth, q_sign, fused_calls):
        # each row moves the scan terms by e^4 or more, so a chunk of 256
        # rows would span far more than _CHUNK_LOG_SPAN e-folds: the chunks
        # are cut to at most 650 e-folds, and more of the sum runs through
        # the log-space scan of the chunk carries
        n = 1408
        spec = _growth_spec(x, q_sign, log_growth, n)
        kernel = build_kernel(spec)
        rhs = np.random.default_rng(229).standard_normal(n)
        got = apply_inverse(kernel, rhs)
        per_row = math.acosh(abs(x)) + abs(log_growth) / (n - 1)
        assert fused_calls == [_grid(n, int(_CHUNK_LOG_SPAN / per_row))]
        assert _backward_error(spec, got, rhs) <= 1e-11
        want = thomas_solve(spec, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("log_growth", [1500.0, -1500.0])
    @pytest.mark.parametrize("q_sign", [1.0, -1.0])
    def test_growth_beyond_the_float_range_overflows(self, log_growth, q_sign, fused_calls):
        # oscillatory x does not damp |q|^(i-j): the far corner is e^1500
        n = 1536
        kernel = build_kernel(_growth_spec(0.5, q_sign, log_growth, n))
        with pytest.raises(OverflowError, match=r"^solution term \(\d+,1\) has log-magnitude"):
            apply_inverse(kernel, np.random.default_rng(233).standard_normal(n))
        assert fused_calls == [(2, 1, 3, 512)]

    @pytest.mark.parametrize("x, q_sign", [(1.25, 1.0), (-1.5, -1.0)])
    def test_finite_solution_near_the_float_range(self, x, q_sign, fused_calls):
        # a rhs near 1e306 puts every chunk's bound past the float range, so
        # the rows leave log space one by one; they are still finite
        n = 1537
        kernel = build_kernel(_growth_spec(x, q_sign, 10.0, n))
        j = n // 2
        col = apply_inverse(kernel, _unit(n, j, 1e306))
        assert fused_calls[0][2] > 1
        for i in (1, j - 1, j, j + 300, n):
            assert col[i - 1] == pytest.approx(1e306 * inverse_entry(kernel, i, j), rel=1e-11)
        rhs = np.random.default_rng(271).standard_normal(n)
        got = apply_inverse(kernel, 1e305 * rhs)
        assert np.all(np.isfinite(got)) and np.max(np.abs(got)) > 1e304
        np.testing.assert_allclose(got, 1e305 * apply_inverse(kernel, rhs), rtol=1e-11,
                                   atol=1e-11 * np.max(np.abs(got)))

    @pytest.mark.parametrize("scale", [1e20, 1e100, 1e240])
    def test_scaled_rhs_gives_the_scaled_solution(self, scale, fused_calls):
        # the chunk sums take their back-weights before alpha: alpha times the
        # sums before them would overflow from about 1e10 on, on four chunks
        n = 3000
        kernel = build_kernel(make_spec(1.0, 2.5, 1.0, n))
        rhs = np.random.default_rng(283).standard_normal(n)
        got = apply_inverse(kernel, scale * rhs)
        assert fused_calls[0] == (2, 1, 4, 750)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, scale * apply_inverse(kernel, rhs), rtol=1e-11,
                                   atol=1e-11 * np.max(np.abs(got)))

    @pytest.mark.parametrize("log_growth, last", [(-1400.0, False), (1400.0, True)])
    @pytest.mark.parametrize("x, q_sign", [(0.5, 1.0), (0.5, -1.0), (1.25, 1.0)])
    def test_far_rows_underflow(self, x, q_sign, log_growth, last, fused_calls):
        # |log q| (n-1) = 1400: column 1 of the inverse falls through the
        # subnormals to 0 for log|q| < 0, column n rises out of them for
        # log|q| > 0; each agrees with inverse_entry, zeros and subnormals
        # included.  The chunks hold 685 rows at x = 0.5 and 411 at x = 1.25
        n = 2053
        kernel = build_kernel(_growth_spec(x, q_sign, log_growth, n))
        j = n if last else 1
        col = apply_inverse(kernel, _unit(n, j))
        assert fused_calls == [_grid(n, _cap(kernel))] and fused_calls[0][2] in (3, 5)
        want = np.array([inverse_entry(kernel, i, j) for i in range(1, n + 1)])
        assert np.all(np.abs(col - want) <= 1e-11 * np.abs(want) + 2.0**-1070)
        assert (want == 0.0).any() and ((want != 0.0) & (np.abs(want) < 1e-308)).any()

    @pytest.mark.parametrize("q_sign", [1.0, -1.0])
    def test_subnormal_rhs_under_growing_rows(self, q_sign, fused_calls):
        # log|q| = 2, s = 3 and x = 0.5: rows grow by e^2 below a source, so
        # a subnormal rhs entry yields normal solution rows.  Its chunk's
        # alpha, about 1e-320 / 3, has too few bits to scale by, so the rows
        # leave log space one by one; they match inverse_entry to rounding
        n = 1792
        q = q_sign * math.exp(2.0)
        kernel = build_kernel(make_spec(3.0 * q, 3.0, 3.0 / q, n))
        j = n - 150
        tiny = 1e-320
        col = apply_inverse(kernel, _unit(n, j, tiny))
        assert fused_calls == [(2, 1, 6, 299)]
        for i in (j - 1, j, j + 75, j + 120, n):
            want = tiny * inverse_entry(kernel, i, j)
            assert abs(want) > 1e-300 or i <= j
            assert col[i - 1] == pytest.approx(want, rel=1e-11, abs=2.0**-1070)

    def test_wide_row_factors_shorten_the_chunks(self, fused_calls):
        # at x = 100 a chunk of 256 rows would span over 1300 e-folds of row
        # factors, so the chunks hold 122 rows (646 e-folds); the zero column
        # runs on the same grid, with the same zeros
        n = 5000
        kernel = build_kernel(_growth_spec(100.0, 1.0, 0.0, n))
        block = np.random.default_rng(263).standard_normal((n, 2))
        block[:, 1] = 0.0
        got = apply_inverse(kernel, block)
        assert fused_calls[0] == (2, 2, -(-n // 122), 122)
        assert np.array_equal(got[:, 0], apply_inverse(kernel, block[:, 0]))
        assert np.array_equal(got[:, 1], np.zeros(n))

    def test_rhs_spread_inside_one_chunk(self, fused_calls, scan_calls):
        # 1e+-300 neighbours put 1380 e-folds into one chunk, so that chunk,
        # and its mirror in the suffix sums, sum in log space and leave it
        # row by row; the column's other chunks stay linear.  Far from row
        # 301 the 1e300 source has decayed to the size of the other entries'
        # part, so each row is checked against the superposition of the two
        # parts, to rounding of each.
        n = 1380
        spec = _growth_spec(1.25, 1.0, 20.0, n)
        kernel = build_kernel(spec)
        rest = np.random.default_rng(239).standard_normal(n)
        rest[300:303] = 0.0
        rhs = rest.copy()
        rhs[300:303] = [1e300, -1e-300, 2e-300]
        got = apply_inverse(kernel, rhs)
        grid = _grid(n, _cap(kernel))
        assert fused_calls == [grid] and grid[2] == 2
        assert scan_calls == [(2, grid[3]), grid[:3]]
        e_301 = np.zeros(n)
        e_301[300] = 1.0
        near, far = 1e300 * apply_inverse(kernel, e_301), apply_inverse(kernel, rest)
        assert np.all(np.abs(got - (near + far)) <= 1e-9 * (np.abs(near) + np.abs(far)))

    def test_rhs_spread_in_every_chunk(self, fused_calls, scan_calls):
        # entries 10^u with u uniform in [-300, 300] span over 650 e-folds in
        # every chunk: every chunk of both sums takes the log-space path
        n = 1536
        spec = _growth_spec(1.25, 1.0, 20.0, n)
        kernel = build_kernel(spec)
        rng = np.random.default_rng(243)
        rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        got = apply_inverse(kernel, rhs)
        grid = _grid(n, _cap(kernel))
        assert fused_calls == [grid] and grid[2] == 2
        assert scan_calls == [(2 * grid[2], grid[3]), grid[:3]]
        want = thomas_solve(spec, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_rhs_with_exact_zeros(self, fused_calls):
        # zero chunks, a single nonzero row, and zeros inside live chunks
        n = 2 * _CHUNK + 7
        spec = _growth_spec(0.6, -1.0, -25.0, n)
        kernel = build_kernel(spec)
        length = _grid(n, _cap(kernel))[3]
        rhs = np.random.default_rng(241).standard_normal(n)
        rhs[: 2 * length] = 0.0
        rhs[::3] = 0.0
        got = apply_inverse(kernel, rhs)
        assert fused_calls == [(2, 1, 3, length)]
        assert _backward_error(spec, got, rhs) <= 1e-11
        col = apply_inverse(kernel, _unit(n, length + 6))
        for i in (1, length + 6, n):
            assert col[i - 1] == pytest.approx(inverse_entry(kernel, i, length + 6),
                                               rel=1e-11)
        assert np.array_equal(apply_inverse(kernel, np.zeros(n)), np.zeros(n))

    def test_nan_rhs_gives_all_nan(self):
        n = 1283
        kernel = build_kernel(_growth_spec(1.25, 1.0, 10.0, n))
        rhs = np.random.default_rng(251).standard_normal(n)
        rhs[n // 2] = np.nan
        with np.errstate(invalid="ignore"):
            got = apply_inverse(kernel, rhs)
        assert np.all(np.isnan(got))

    def test_infinite_rhs_gives_an_all_nan_column_without_warnings(self):
        # -inf on the first rows of both chunks and the last row
        n = 1283
        kernel = build_kernel(_growth_spec(1.25, 1.0, 10.0, n))
        block = np.random.default_rng(253).standard_normal((n, 3))
        block[n // 2, 0] = np.inf
        block[[0, _grid(n, _cap(kernel))[3], n - 1], 1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_inverse(kernel, block)
            finite = apply_inverse(kernel, block[:, 2])
        assert np.all(np.isnan(got[:, :2]))
        assert np.array_equal(got[:, 2], finite)

    def test_block_equals_columns_bit_for_bit(self, fused_calls):
        n = 2 * _CHUNK + 9
        spec = _growth_spec(0.8, -1.0, 15.0, n)
        kernel = build_kernel(spec)
        rng = np.random.default_rng(257)
        block = rng.standard_normal((n, 5))
        block[:, 1] = 0.0
        block[: 2 * _CHUNK, 2] = 0.0
        block[40:42, 3] = [1e300, 1e-300]  # one column falls back in one chunk
        block[:, 4] *= 1e-300
        got = apply_inverse(kernel, block)
        assert fused_calls[0] == (2, 5, 3, 2734)
        for col in range(5):
            assert np.array_equal(got[:, col], apply_inverse(kernel, block[:, col]))


def _peak_arrays(fn, n):
    """tracemalloc peak of fn(), in arrays of n floats, over what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (8 * n)


def test_allocation_budget():
    # the kernel array plus one scratch array for build_kernel (the m + 1 of
    # the sequence, or its second outer product in the sine regime, then the
    # self-check's two half-length products); for
    # apply_inverse the padded row weights plus, per column, the two-part
    # term grid, whose prefix part holds the solution, and its |rhs| > 0
    # mask.  A temporary per numpy operation would go past these (9 arrays
    # of n for build_kernel and 11 for one column before the in-place
    # rewrite, 7.2 and 36.5 for the two-level scan, 4.0 for build_kernel
    # with sign and log arrays).
    n = 20_000
    spec = _growth_spec(1.25, 1.0, 30.0, n)
    kernel = build_kernel(spec)
    rng = np.random.default_rng(269)
    rhs, block = rng.standard_normal(n), rng.standard_normal((n, 8))
    assert _peak_arrays(lambda: build_kernel(spec), n) <= 2.5
    # the sine regime's two outer products share the one scratch array
    sine = _growth_spec(0.35, 1.0, 30.0, n)
    assert _peak_arrays(lambda: build_kernel(sine), n) <= 2.5
    assert _peak_arrays(lambda: apply_inverse(kernel, rhs), n) <= 4.0
    assert _peak_arrays(lambda: apply_inverse(kernel, block), n) <= 2.0 + 2.1 * 8


def _backward_error(spec, x, rhs):
    """Normwise ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)."""
    a_norm = abs(spec.a) + abs(spec.b) + abs(spec.c)
    resid = np.max(np.abs(apply_matvec(spec, x) - rhs))
    return resid / (a_norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))


def test_sine_regime_kernel_at_a_million():
    # x = 0.35: sin of the rounded (m+1) theta gave a Wronskian residual of
    # 2.2e-9 here, and the build refused a matrix of weighted condition 1.5e7
    n = 10**6
    spec = make_spec(1, 0.7, 1, n)
    kernel = build_kernel(spec)
    assert kernel.wronskian_residual <= 1e-13
    rhs = np.random.default_rng(331).standard_normal(n)
    assert _backward_error(spec, apply_inverse(kernel, rhs), rhs) <= 1e-13


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


@pytest.mark.parametrize("x, n", [(1.25, 10**5), (2.5, 10**5), (-2.5, 10**5), (100.0, 10**6)])
def test_hyperbolic_wronskian_residual_at_rounding_level(x, n):
    # the self-check multiplies the bounded v_m = U_m e^(-m gamma), so the
    # exponents m gamma never enter it (2e-11 to 7e-10 with log-magnitudes)
    assert build_kernel(make_spec(1.0, 2.0 * x, 1.0, n)).wronskian_residual <= 1e-14


@pytest.mark.parametrize("b, n, bound", [(-5.0, 66_084, 4.0e-12), (5.0, 10**5, 1.2e-11)])
def test_gapped_apply_backward_error(b, n, bound):
    # the bounds are the log-magnitude kernel's errors; the v kernel gives
    # 4.9e-13 and 9.7e-13, what is left being the chunk exponents' n gamma eps
    spec = make_spec(1.0, b, 1.0, n)
    rhs = np.random.default_rng(1).standard_normal(n)
    assert _backward_error(spec, apply_inverse(build_kernel(spec), rhs), rhs) <= bound


def _edge_order(x, growth, chunks, offset):
    """n = chunks * L + offset, L the cap of the kernel _growth_spec(x, ., growth, n) gets.

    The cap depends on n through log|q| = growth / (n - 1), so n is iterated
    to a fixed point; where none is reached in a few steps, the last n is
    within a few rows of an edge.
    """
    gamma = math.acosh(abs(x)) if abs(x) > 1.0 else 0.0
    n = chunks * _CHUNK + offset
    for _ in range(6):
        per_row = gamma + abs(_clamped_growth(growth, n)) / max(n - 1, 1)
        cap = (_CHUNK if _CHUNK * per_row <= _CHUNK_LOG_SPAN
               else max(1, int(_CHUNK_LOG_SPAN / per_row)))
        n, last = max(1, chunks * cap + offset), n
        if n == last:
            break
    return n


def _clamped_growth(growth, n):
    """growth capped at 50 e-folds per row."""
    return max(-50.0 * max(n - 1, 1), min(growth, 50.0 * max(n - 1, 1)))


# right-hand side scales: the three extremes, and 10^u for u uniform in [-300, 300]
_RHS_SCALES = st.one_of(st.sampled_from([1.0, 1e300, 1e-300]),
                        st.floats(-300.0, 300.0).map(lambda u: 10.0**u))


@st.composite
def _apply_cases(draw):
    """A spec and a right-hand side from every regime apply_inverse serves.

    n is any order up to 6000, or one at the edge of one, two or five full
    chunks (L - 1, L, L + 1, ...) of the kernel drawn.
    """
    x = draw(st.one_of(
        st.floats(-0.999, 0.999),
        st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-1e-9, 1e-9)).map(
            lambda t: t[0] * (1.0 + t[1])),
        st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 50.0)).map(
            lambda t: t[0] * (1.0 + t[1]))))
    # log|q| (n - 1) up to +-1500, at most 50 e-folds per row
    growth = draw(st.floats(-1500.0, 1500.0))
    edge = draw(st.one_of(st.none(), st.tuples(st.sampled_from([1, 2, 5]),
                                               st.sampled_from([-1, 0, 1]))))
    n = (draw(st.one_of(st.integers(1, 300), st.integers(2, 6000))) if edge is None
         else _edge_order(x, growth, *edge))
    spec = _growth_spec(x, draw(st.sampled_from([1.0, -1.0])), _clamped_growth(growth, n), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rhs = rng.standard_normal(n) * draw(_RHS_SCALES)
    if draw(st.booleans()):
        rhs[rng.random(n) < 0.5] = 0.0
    for entry in draw(st.lists(st.sampled_from([1e300, 1e-300, 0.0, np.nan, np.inf, -np.inf]),
                               max_size=2)):
        rhs[rng.integers(n)] = entry
    return spec, rhs


@given(_apply_cases())
def test_apply_inverse_property(case):
    # each answer meets the backward-error bound against apply_matvec or is a
    # typed refusal; a NaN or inf entry gives an all-NaN solution; no warnings
    spec, rhs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = apply_inverse(build_kernel(spec), rhs)
        except (TriToeplitzError, OverflowError):
            return
    if not np.isfinite(rhs).all() or not rhs.any():
        assert np.all(np.isnan(got)) if rhs.any() else not got.any()
        return
    # on x and rhs times 2^-e, so that A x cannot overflow (a power of two
    # scales exactly), with Thomas's floor for rounding among the subnormals
    e = math.frexp(max(np.max(np.abs(got)), np.max(np.abs(rhs))))[1]
    xs, rs = np.ldexp(got, -e), np.ldexp(rhs, -e)
    a_norm = abs(spec.a) + abs(spec.b) + abs(spec.c)
    resid = np.max(np.abs(apply_matvec(spec, xs) - rs))
    assert resid <= (1e-9 * (a_norm * np.max(np.abs(xs)) + np.max(np.abs(rs)))
                     + 4 * a_norm * 2.0 ** (-1074 - e))


# the extreme grid of |a| and |c|, or moderate magnitudes
_OFF_DIAGONALS = st.one_of(
    st.sampled_from([1e-300, 1e-200, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e200, 1e300]),
    st.floats(0.05, 20.0))


@st.composite
def _thomas_cases(draw):
    """Any spec, symmetrisable or not, with a rhs like apply_inverse's cases."""
    n = draw(st.integers(1, 100))
    a = draw(st.sampled_from([1.0, -1.0])) * draw(_OFF_DIAGONALS)
    c = draw(st.sampled_from([1.0, -1.0])) * draw(_OFF_DIAGONALS)
    # b = 2 x sqrt|ac|: oscillatory, near |x| = 1, gapped, or b = 1e-200
    x = draw(st.one_of(
        st.floats(-0.999, 0.999),
        st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-1e-9, 1e-9)).map(
            lambda t: t[0] * (1.0 + t[1])),
        st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 50.0)).map(
            lambda t: t[0] * (1.0 + t[1])),
        st.just(None)))
    b = 1e-200 if x is None else 2.0 * x * math.sqrt(abs(a)) * math.sqrt(abs(c))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rhs = rng.standard_normal(n) * draw(_RHS_SCALES)
    if draw(st.booleans()):
        rhs[rng.random(n) < 0.5] = 0.0
    for entry in draw(st.lists(st.sampled_from([1e300, 1e-300, 0.0, np.nan, np.inf, -np.inf]),
                               max_size=2)):
        rhs[rng.integers(n)] = entry
    return make_spec(a, b, c, n), rhs


@given(_thomas_cases())
def test_thomas_solve_property(case):
    # each answer meets thomas_solve's stated backward-error bound against
    # apply_matvec or is a typed refusal; a NaN or inf entry gives an all-NaN
    # solution; no warnings; where apply_inverse answers too, the two differ
    # by at most ||A^-1|| times the sum of their residual bounds
    spec, rhs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = thomas_solve(spec, rhs)
        except (TriToeplitzError, OverflowError):
            return
    if not np.isfinite(rhs).all():
        assert np.all(np.isnan(got))
        return
    assert np.all(np.isfinite(got))
    # on x and rhs times 2^-e, as thomas_solve checks itself: A x cannot overflow
    row_scale = spec.row_scale()
    e = math.frexp(max(np.max(np.abs(got)), np.max(np.abs(rhs))))[1]
    xs, rs = np.ldexp(got, -e), np.ldexp(rhs, -e)

    def bound(x):
        return (1e-9 * (row_scale * np.max(np.abs(x)) + np.max(np.abs(rs)))
                + 4 * row_scale * 2.0 ** (-1074 - e))

    assert np.max(np.abs(apply_matvec(spec, xs) - rs)) <= bound(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            other = np.ldexp(apply_inverse(build_kernel(spec), rhs), -e)
        except (TriToeplitzError, OverflowError):
            return
    with np.errstate(all="ignore"):
        try:
            inv_norm = np.max(np.sum(np.abs(np.linalg.inv(dense_from_spec(spec))), axis=1))
        except np.linalg.LinAlgError:
            return
    if np.isfinite(inv_norm):
        assert np.max(np.abs(xs - other)) <= 2 * inv_norm * (bound(xs) + bound(other))


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

    def test_residual_of_a_finite_solution_near_the_float_range_is_finite(self):
        # b * x overflows for x = (8e307, 8e307); the residual runs on x and
        # rhs scaled by 2^-1024, exactly
        spec = make_spec(-1, 2.5, -1, 2)
        rhs = [1.2e308, 1.2e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = thomas_solve(spec, rhs)
            via_kernel = apply_inverse(build_kernel(spec), rhs)
        np.testing.assert_allclose(x, [8e307, 8e307], rtol=1e-15)
        np.testing.assert_allclose(x, via_kernel, rtol=1e-12)

    def test_nan_rhs_gives_nan_solution(self):
        x = thomas_solve(make_spec(1, 2.5, 1, 4), [1.0, np.nan, 0.0, 0.0])
        assert np.all(np.isnan(x))

    @pytest.mark.parametrize("rhs", [[1.0, np.inf, 0.0, 0.0, 0.0],
                                     [1.0, -np.inf, 0.0, 0.0, 0.0],
                                     [np.inf, 0.0, 0.0, 0.0, -np.inf],
                                     [1.0, np.inf, 0.0, np.nan, 0.0]])
    def test_infinite_rhs_gives_all_nan_as_apply_inverse_does(self, rhs):
        # elimination alone leaves +-inf entries, whose residual would warn
        spec = make_spec(1, 2.5, 1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = thomas_solve(spec, rhs)
            via_kernel = apply_inverse(build_kernel(spec), rhs)
        assert np.all(np.isnan(x))
        assert np.all(np.isnan(via_kernel))

    def test_pivot_classification_cannot_overflow(self):
        # pivots about 0.3, below 1e-8 times the row scale 1e200; the test
        # |c| >= 1e-8 row_scale max|w| has a product past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearSingularPivot, match="non-finite solution"):
                thomas_solve(make_spec(1e-300, 0.3, 1e200, 3), [1.0, 2.0, 3.0])

    def test_finite_solution_near_the_float_range_is_accepted(self):
        # row_scale max|x| + max|rhs| is past the float range, so the residual
        # and its bound run on x and rhs times 2^-1023, where neither is;
        # (5e307, -6.25e307, 6.5625e307) is the exact solution, which
        # the log-space kernel scan meets to about |log 1e308| * eps
        spec = make_spec(0.5, 2, 1e-300, 3)
        rhs = [1e308, -1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = thomas_solve(spec, rhs)
            via_kernel = apply_inverse(build_kernel(spec), rhs)
        np.testing.assert_allclose(x, [5e307, -6.25e307, 6.5625e307], rtol=1e-15)
        np.testing.assert_allclose(x, via_kernel, rtol=1e-12)

    def test_bound_where_the_scale_leaves_the_float_range(self, monkeypatch):
        # row_scale max|x| + max|rhs| = 2 * 1.683e308 is past the float range,
        # and max|x| = 0.99 is not rescaled: the tolerance goes on each term
        spec = make_spec(1e-300, 1.7e308, 1e-300, 1)
        rhs = [1.7e308 * 0.99]
        assert thomas_solve(spec, rhs).tolist() == [0.99]
        # a residual past that bound is refused with a finite backward error,
        # 1e300 over the 2 * 1.683e308 that the scale would have been
        monkeypatch.setattr(greens, "_matvec", lambda spec, x: x * spec.b + 1e300)
        with pytest.raises(NearSingularPivot, match=r"^backward error 2\.971e-09 exceeds 1e-09$"):
            thomas_solve(spec, rhs)

    def test_row_scale_past_the_float_range(self):
        # |a| + |b| + |c| = 3.3e308 made the pivot floor inf, so every pivot
        # read as below tolerance; Thomas now gives the exact solution of the
        # float matrix to the last place of its subnormal entries
        spec = make_spec(8e307, 1.7e308, 8e307, 3)
        rhs = np.array([1.0, 2.0, 3.0])
        a, b, c = Fraction(spec.a), Fraction(spec.b), Fraction(spec.c)
        # elimination in exact arithmetic: w_k = c / pivot_k, z_k as in Thomas
        w, z = [c / b], [1 / b]
        for r in rhs[1:]:
            piv = b - a * w[-1]
            w.append(c / piv)
            z.append((Fraction(r) - a * z[-1]) / piv)
        for k in (1, 0):
            z[k] -= w[k] * z[k + 1]
        x = thomas_solve(spec, rhs)
        # each entry is subnormal, where the last place is 2^-1074
        np.testing.assert_allclose(x, [float(v) for v in z], rtol=0.0, atol=2.0**-1074)
        # the kernel's log-space assembly meets it normwise
        via_kernel = apply_inverse(build_kernel(spec), rhs)
        np.testing.assert_allclose(via_kernel, x, rtol=0.0, atol=1e-12 * np.max(np.abs(x)))
        # a = 5e-324 quarters to 0, which no spec may hold; the exact
        # solution is (2, -1, 3) / b to far below the last place
        np.testing.assert_allclose(thomas_solve(make_spec(5e-324, 1.7e308, 1.7e308, 3), rhs),
                                   [float(2 / b), float(-1 / b), float(3 / b)],
                                   rtol=0.0, atol=2.0**-1074)
        # a zero pivot is still refused, now for what it is
        with pytest.raises(NearSingularPivot, match="pivot 0.0 at row 1"):
            thomas_solve(make_spec(1e308, 0.0, 1e308, 3), rhs)

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

    def test_prefactor_beyond_the_float_range(self):
        # s = 1e-306 and x just above 1: 2 / (s (eta - 1/eta)) is about 6e308
        with pytest.raises(OverflowError, match="^decay prefactor has log-magnitude"):
            decay_envelope(make_spec(1e-306, 2.0000001e-306, 1e-306, 3))

    def test_prefactor_for_s_below_the_reciprocal_of_the_float_range(self):
        # s = 1e-308, x = 1.5: 2/s overflows, but the prefactor
        # 1/(s sinh(gamma)) = 2/(sqrt(5) s) is 8.94e307
        spec = make_spec(1e-308, 3e-308, 1e-308, 5)
        want = 2.0 / math.sqrt(5.0) * 1e308
        assert decay_envelope(spec).prefactor == pytest.approx(want, rel=1e-14)
        assert decay_bound(spec, 1, 1) == pytest.approx(want, rel=1e-14)

    def test_bound_beyond_the_float_range(self):
        # q = 1000: the bound on entry (400, 1) carries q^399 eta^-399
        with pytest.raises(OverflowError, match=r"^decay bound \(400,1\) has log-magnitude"):
            decay_bound(make_spec(1e3, 3, 1e-3, 400), 400, 1)

    @pytest.mark.parametrize("x", [1e10, 1.2e154, 1.4e154, 1.5e299, 4e307])
    def test_eta_for_x_whose_square_overflows(self, x):
        # (x - 1)(x + 1) overflows from x ~ 1.3e154; eta is then about 2x
        env = decay_envelope(make_spec(0.5, x, 0.5, 3))
        assert env.eta == 2.0 * x
        assert env.prefactor == pytest.approx(2.0 / x, rel=1e-13, abs=0.0)

    def test_eta_beyond_the_float_range(self):
        # x = 9e307: eta = 2x is past the float range
        with pytest.raises(OverflowError, match="^decay base eta has log-magnitude"):
            decay_envelope(make_spec(0.5, 9e307, 0.5, 3))

    def test_x_beyond_the_float_range(self):
        # b/(2s) overflows: refused as every Chebyshev evaluation refuses it
        spec = make_spec(1e-150, 1e308, 1e-150, 3)
        for call in (lambda: decay_envelope(spec), lambda: decay_bound(spec, 1, 1),
                     lambda: hyperbolic_inverse_entry(symmetrise(spec), 1, 1)):
            with pytest.raises(OverflowError, match="^Chebyshev argument x = inf"):
                call()

    def test_one_regime_gate_wording(self):
        spec = make_spec(1, 2, 1, 3)
        for call in (lambda: decay_envelope(spec), lambda: decay_bound(spec, 1, 1),
                     lambda: hyperbolic_inverse_entry(symmetrise(spec), 1, 1)):
            with pytest.raises(NotInGappedRegime, match=r"^x = b/\(2s\) = 1.0 is not > 1$"):
                call()

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

    def test_entry_beyond_the_float_range(self):
        # n = 1: the entry is 1 / (2 x s) = 3.3e308
        with pytest.raises(OverflowError, match=r"^inverse entry \(1,1\) has log-magnitude"):
            hyperbolic_inverse_entry(SymmetrisedForm(1e-309, 1.0, 1.5, 1), 1, 1)

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


@st.composite
def _gapped_entries(draw):
    """A symmetric gapped spec, n <= 2000 and x in (1, 1e3], and one entry (i, j)."""
    n = draw(st.integers(1, 2000))
    x = draw(st.one_of(st.floats(1.0, 1e3, exclude_min=True),
                       st.floats(-15.5, 0.0).map(lambda e: 1.0 + 10.0**e)))
    s = 10.0 ** draw(st.floats(-3.0, 3.0))
    return make_spec(s, 2.0 * s * x, s, n), draw(st.integers(1, n)), draw(st.integers(1, n))


@given(_gapped_entries())
def test_hyperbolic_entry_matches_the_kernel(case):
    # Both forms leave log space once, so their relative error is the absolute
    # error of a log-magnitude that sums rounded terms, each within a few ulps
    # of its size: the hyperbolic form three log U_m = m gamma + log(1 -
    # e^(-2(m+1) gamma)) - log(1 - e^(-2 gamma)) and log s, the kernel three
    # log v_m <= log(n + 1), (hi - lo + 1) gamma and log s.  In units of
    # n gamma + |log(1 - e^(-2 gamma))| + log(n + 1) + |log s| + 1, each form is
    # within about 12 eps (2n gamma, six log(1 - e^(-t)) terms, two ulps
    # each), so the two differ by about 24 at most: C = 32.  The exp that
    # leaves log space adds half an ulp, or half a subnormal step, to each
    spec, i, j = case
    form = symmetrise(spec)
    gamma = math.acosh(form.x)
    units = (spec.n * gamma + abs(math.log(-math.expm1(-2.0 * gamma)))
             + math.log(spec.n + 1) + abs(math.log(form.s)) + 1.0)
    want = inverse_entry(build_kernel(spec), i, j)
    got = hyperbolic_inverse_entry(form, i, j)
    assert abs(got - want) <= 32 * 2.0**-52 * units * abs(want) + 2.0**-1074


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


@st.composite
def _small_specs(draw):
    """Specs up to n = 40 in every regime, near the singular points too."""
    n = draw(st.integers(1, 40))
    s = 10.0 ** draw(st.floats(-3.0, 3.0))
    q = draw(st.sampled_from([1.0, -1.0])) * math.exp(draw(st.floats(-1.0, 1.0)))
    near_one = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-14.0, -4.0))
    x = draw(st.one_of(
        st.floats(-0.999, 0.999),
        near_one.map(lambda t: 1.0 + t[0] * 10.0 ** t[1]),
        st.floats(-3.0, 1.7).map(lambda e: 1.0 + 10.0**e),
        st.tuples(st.integers(1, n), st.sampled_from([1.0, -1.0]), st.floats(-15.0, -6.0)).map(
            lambda t: math.cos(t[0] * math.pi / (n + 1)) + t[1] * 10.0 ** t[2])))
    return make_spec(q * s, 2.0 * s * draw(st.sampled_from([1.0, -1.0])) * x, s / q, n)


@given(_small_specs())
def test_entries_against_the_exact_inverse(spec):
    # inverse_entry and inverse_dense meet an eps bound against the exact
    # inverse of the float matrix, or raise; no NaN, inf or warning.  The
    # bound is the rounding of the log-magnitudes (the exponents (|i-j|+1)
    # gamma and |i-j| log|q|, log s, log|v|) plus a perturbation of the
    # matrix by eps ||A|| in each band entry, to second order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            kernel = build_kernel(spec)
            dense = inverse_dense(kernel)
            entries = np.array([[inverse_entry(kernel, i, j) for j in range(1, spec.n + 1)]
                                for i in range(1, spec.n + 1)])
        except (TriToeplitzError, OverflowError):
            return
    exact = inverse_exact(spec)
    assert exact is not None and np.isfinite(exact).all()
    n, form = spec.n, symmetrise(spec)
    gamma = math.acosh(abs(form.x)) if abs(form.x) > 1.0 else 0.0
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    log_scale = (1.0 + (d + 1) * gamma + d * abs(math.log(abs(form.q)))
                 + abs(math.log(form.s)) + 2.0 * math.log(n + 1))
    band = (abs(spec.a) + abs(spec.b) + abs(spec.c)) * dense_from_spec(make_spec(1, 1, 1, n))
    first = np.abs(exact) @ band @ np.abs(exact)
    tol = 16 * 2.0**-52
    bound = tol * (log_scale * np.abs(exact) + first) + tol**2 * (first @ band @ np.abs(exact))
    for got in (dense, entries):
        assert np.isfinite(got).all()
        assert (np.abs(got - exact) <= bound).all()
