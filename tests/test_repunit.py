import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import inverse_entry_alt_scaling, log_abs_fraction, repunit_fraction
from tritoep import (
    InvalidBase,
    NotInGappedRegime,
    build_kernel,
    cheb_repunit_identity_residual,
    cosine_product,
    cosine_product_log,
    decay_bound,
    inverse_entry,
    log_repunit,
    make_spec,
    repunit,
    repunit_condition,
    repunit_det_exact,
    repunit_inverse_entry,
    repunit_matrix_spec,
    symmetrise,
    weighted_condition,
)
from tritoep.oracle import dense_from_spec, dense_inverse


class TestRepunitValue:
    def test_examples(self):
        assert repunit(4, 10).exact_value == 1111
        assert repunit(5, 1).exact_value == 5
        assert repunit(5, 1).float_value == 5.0
        assert repunit(3, 2).exact_value == 7

    def test_float_base(self):
        rv = repunit(6, 0.5)
        assert rv.exact_value is None
        assert rv.float_value == pytest.approx((1 - 0.5**6) / 0.5, rel=1e-14)

    def test_float_base_past_the_float_range(self):
        # 1.5^3000 overflows the float power: the value is inf, not an error
        rv = repunit(3000, 1.5)
        assert rv.exact_value is None
        assert rv.float_value == math.inf

    @pytest.mark.parametrize("d", [np.float32(1.0), np.longdouble(1.0)])
    def test_float_base_one(self, d):
        # a numpy float other than float64 is no Python float, so d = 1 takes
        # the float path, where (d^m - 1)/(d - 1) would divide 0 by 0
        rv = repunit(5, d)
        assert (rv.d, rv.m, rv.exact_value, rv.float_value) == (1.0, 5, None, 5.0)
        assert type(rv.d) is float
        assert log_repunit(5, d) == math.log(5)

    def test_invalid_base(self):
        with pytest.raises(InvalidBase):
            repunit(3, 0.0)
        with pytest.raises(InvalidBase):
            repunit(3, -2)

    @pytest.mark.parametrize("d", [1 + 2j, "2", True, None])
    def test_non_real_base(self, d):
        with pytest.raises(InvalidBase, match="positive real"):
            repunit(3, d)

    def test_base_near_one(self):
        # (d^m - 1)/(d - 1) cancelled where d^m is near 1: R_10(1 + 1e-9)
        # printed as 10.0, with a relative error of 4.5e-9
        with mpmath.workdps(40):
            for d in (1 + 1e-9, 1 - 3e-13, 1 + 2.0**-52, 0.999, 1.0004):
                for m in (2, 10, 1000, 10**4):
                    dm = mpmath.mpf(d)
                    ref = float((dm**m - 1) / (dm - 1))
                    assert repunit(m, d).float_value == pytest.approx(ref, rel=1e-15)
        assert repunit(10, 1.000000001).float_value == pytest.approx(10.000000045, rel=1e-15)
        # R_1 = 1 exactly, whatever d
        assert {repunit(1, d).float_value for d in (1 + 1e-9, 1.3, 0.7, 2.5)} == {1.0}

    def test_float_agrees_with_exact(self):
        for d in (1, 2, 3, 10, 16):
            for m in (1, 2, 7, 40):
                rv = repunit(m, d)
                assert rv.float_value == pytest.approx(float(rv.exact_value), rel=1e-14)

    def test_log_repunit(self):
        assert log_repunit(4, 10) == pytest.approx(math.log(1111.0), rel=1e-14)
        assert log_repunit(9, 1.0) == pytest.approx(math.log(9.0), rel=1e-14)
        for d in (0.5, 0.99, 1.37, 100.0):
            for m in (1, 5, 37, 300):
                ref = log_abs_fraction(repunit_fraction(m, Fraction(d)))
                assert log_repunit(m, d) == pytest.approx(ref, rel=1e-12, abs=1e-12)


    @pytest.mark.parametrize("d", [1e-300, 1e-15, 0.5])
    def test_log_repunit_small_base(self, d):
        # d - 1 rounds to -1 below about 1.1e-16, and log R_m is about d there
        for m in (1, 2, 3, 5, 40):
            ref = math.log1p(float(repunit_fraction(m, Fraction(d)) - 1))
            assert log_repunit(m, d) == pytest.approx(ref, rel=1e-15, abs=0.0)


class TestRepunitMatrixSpec:
    def test_examples(self):
        spec = repunit_matrix_spec(10, 3)
        assert (spec.a, spec.b, spec.c, spec.n) == (10.0, 11.0, 1.0, 3)
        assert symmetrise(spec).s == pytest.approx(math.sqrt(10.0), rel=1e-15)

        spec = repunit_matrix_spec(1, 5)
        assert symmetrise(spec).x == 1.0

        spec = repunit_matrix_spec(4, 2)
        assert symmetrise(spec).q == pytest.approx(2.0, rel=1e-15)

    def test_x_at_least_one(self):
        for d in (0.2, 0.9, 1.0, 3.7, 50.0):
            assert symmetrise(repunit_matrix_spec(d, 4)).x >= 1.0


class TestExactDeterminant:
    def test_examples(self):
        assert repunit_det_exact(10, 3) == 1111
        assert repunit_det_exact(1, 4) == 5
        assert repunit_det_exact(2, 5) == 63

    def test_equals_repunit_sum(self):
        for d in (1, 2, 3, 10, 16):
            for n in range(1, 65):
                assert repunit_det_exact(d, n) == repunit(n + 1, d).exact_value

    def test_invalid_base(self):
        with pytest.raises(InvalidBase):
            repunit_det_exact(0.5, 3)


class TestCosineProduct:
    def test_examples(self):
        assert cosine_product(10, 3) == pytest.approx(1111.0, rel=1e-10)
        assert cosine_product(1, 4) == pytest.approx(5.0, rel=1e-12)
        assert cosine_product(2, 1) == pytest.approx(3.0, rel=1e-13)

    def test_log_accuracy_against_exact(self):
        for d in (0.5, 1.0, 2.0, 10.0):
            for n in (1, 7, 64, 200):
                ref = log_abs_fraction(repunit_fraction(n + 1, Fraction(d)))
                assert abs(cosine_product_log(d, n) - ref) <= 1e-10 * (n + 1)

    def test_log_accessor_survives_overflow(self):
        lv = cosine_product_log(10, 400)
        assert lv == pytest.approx(log_repunit(401, 10), rel=1e-12)
        with pytest.raises(OverflowError, match="^cosine product has log-magnitude 92"):
            cosine_product(10, 400)


class TestRepunitCondition:
    def test_examples(self):
        assert repunit_condition(4, 2) == pytest.approx(7 / 3, rel=1e-14)
        assert repunit_condition(1, 1) == pytest.approx(1.0, rel=1e-14)
        # edge term is 2*sqrt(10)*cos(pi/4) = sqrt(20); cross-checked below
        # against a dense eigensolve of the symmetrised 3x3
        edge = 2.0 * math.sqrt(10.0) * math.cos(math.pi / 4)
        assert edge == pytest.approx(math.sqrt(20.0), rel=1e-14)
        assert repunit_condition(10, 3) == pytest.approx(
            (11 + edge) / (11 - edge), rel=1e-14
        )
        s = math.sqrt(10.0)
        lam = np.linalg.eigvalsh(dense_from_spec(make_spec(s, 11.0, s, 3)))
        assert repunit_condition(10, 3) == pytest.approx(
            float(lam[-1] / lam[0]), rel=1e-12
        )

    def test_matches_conditioning_module(self):
        for d in (0.5, 1, 2, 10):
            for n in (1, 2, 9, 30):
                got = repunit_condition(d, n)
                rep = weighted_condition(repunit_matrix_spec(d, n))
                assert got == pytest.approx(rep.cond_weighted, rel=1e-12)


class TestInverseEntries:
    def test_examples(self):
        assert repunit_inverse_entry(10, 2, 1, 2).value == Fraction(-1, 111)
        assert repunit_inverse_entry(10, 2, 2, 1).value == Fraction(-10, 111)
        assert repunit_inverse_entry(1, 2, 1, 1).value == Fraction(2, 3)

    def test_weighted_symmetry_is_exact(self):
        for d in (2, 10):
            for n in (2, 5, 9):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        lhs = repunit_inverse_entry(d, n, i, j).value
                        rhs = Fraction(d) ** (i - j) * repunit_inverse_entry(d, n, j, i).value
                        assert lhs == rhs

    def test_exact_inverse_times_matrix_is_identity(self):
        for d in (1, 2, 10):
            for n in (1, 3, 7, 12):
                inv = [
                    [repunit_inverse_entry(d, n, i, j).value for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
                for r in range(n):
                    for col in range(n):
                        acc = Fraction(0)
                        # row r of the repunit matrix: d at r-1, d+1 at r, 1 at r+1
                        if r > 0:
                            acc += d * inv[r - 1][col]
                        acc += (d + 1) * inv[r][col]
                        if r < n - 1:
                            acc += inv[r + 1][col]
                        assert acc == (1 if r == col else 0)

    def test_floats_match_green_kernel(self):
        for d in (1, 2, 10):
            for n in (1, 4, 9):
                kernel = build_kernel(repunit_matrix_spec(d, n))
                for i in (1, (n + 1) // 2, n):
                    for j in (1, n):
                        exact = repunit_inverse_entry(d, n, i, j)
                        assert inverse_entry(kernel, i, j) == pytest.approx(
                            exact.float_value, rel=1e-10
                        )

    def test_entry_past_the_float_range_is_signed_inf(self):
        # |entry| <= n, so only base 1, where R_m(1) = m costs nothing, reaches
        # past the float range: entry (i, j), i <= j, is i (n + 1 - j) / (n + 1)
        n, half = 10**309, 5 * 10**308
        for j, sign in ((half, 1), (half + 1, -1)):
            entry = repunit_inverse_entry(1, n, half, j)
            assert entry.value == sign * Fraction(half * (n + 1 - j), n + 1)
            assert entry.float_value == sign * math.inf

    def test_alt_scaling_documents_discrepancy(self):
        # the d^((i-j)/2)/sqrt(d) prefactor variant gives -1/1110 where the
        # dense inverse has -1/111; it is not the inverse
        assert inverse_entry_alt_scaling(10, 2, 1, 2) == Fraction(-1, 1110)
        dense = dense_inverse(dense_from_spec(repunit_matrix_spec(10, 2)))
        assert dense[0, 1] == pytest.approx(-1 / 111, rel=1e-12)
        assert inverse_entry_alt_scaling(10, 2, 1, 2) != repunit_inverse_entry(
            10, 2, 1, 2
        ).value

    def test_alt_scaling_below_the_diagonal(self):
        # (3, 1) of the inverse of [[11, 1, 0], [10, 11, 1], [0, 10, 11]]: the
        # cofactor of (1, 3) over the determinant 1111
        exact = Fraction(10 * 10 - 11 * 0, 11 * (11 * 11 - 1 * 10) - 1 * (10 * 11 - 1 * 0))
        assert exact == repunit_inverse_entry(10, 3, 3, 1).value == Fraction(100, 1111)
        # below the diagonal the variant drops d^(i - j), and its odd exponent
        # i - j - 1 = 1 leaves the float d^(1/2)
        value = inverse_entry_alt_scaling(10, 3, 3, 1)
        assert type(value) is float
        assert value == float(exact / 10**2) * 10**0.5 == 0.0028463345276043017


class TestChebIdentity:
    def test_examples(self):
        assert cheb_repunit_identity_residual(10, 2) <= 1e-12
        assert cheb_repunit_identity_residual(1, 5) <= 1e-13
        assert cheb_repunit_identity_residual(4, 1) <= 1e-13

    def test_contract_over_grid(self):
        rng = np.random.default_rng(113)
        for _ in range(40):
            d = float(math.exp(rng.uniform(math.log(0.1), math.log(100.0))))
            m = int(rng.integers(0, 301))
            assert cheb_repunit_identity_residual(d, m) <= 1e-10

    def test_argument_is_at_least_one_in_floats(self):
        # fl(d + 1) >= fl(2 sqrt d) = 2 fl(sqrt d), as rounding is monotone, so
        # U_m is positive at the rounded argument too, however large m
        rng = np.random.default_rng(4177)
        near = 1.0 + rng.uniform(-1e-7, 1e-7, 2000)
        for d in [*near, *np.exp(rng.uniform(-700.0, 700.0, 2000)), 5e-324, 1.7976931348623157e308]:
            d = float(d)
            assert (d + 1.0) / (2.0 * math.sqrt(d)) >= 1.0
        assert cheb_repunit_identity_residual(1.0 + 2**-52, 10**9) <= 1e-10


class TestBoundaryBase:
    def test_d_one_is_on_the_gap_boundary(self):
        spec = repunit_matrix_spec(1, 6)
        assert symmetrise(spec).x == 1.0
        with pytest.raises(NotInGappedRegime):
            decay_bound(spec, 1, 3)
        # inverse entries remain finite and correct there
        kernel = build_kernel(spec)
        assert kernel.invertible
        dense = dense_inverse(dense_from_spec(spec))
        for i in (1, 4, 6):
            for j in (2, 6):
                assert inverse_entry(kernel, i, j) == pytest.approx(
                    dense[i - 1, j - 1], rel=1e-11
                )
