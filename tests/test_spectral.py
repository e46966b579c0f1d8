import math
import warnings

import numpy as np
import pytest

from helpers import eigenvalues_by_bisection, random_symmetrisable_spec
from tritoep import (
    IndexOutOfRange,
    InvalidParameter,
    NotSymmetrisable,
    apply_matvec,
    char_poly_eval,
    determinant,
    determinant_continuant,
    eigen_pair,
    eigenvalues,
    eigenvector,
    extremal_eigenvalues,
    make_spec,
    symmetrise,
    weight_vector,
    weighted_condition,
    weighted_inner,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestEigenvalues:
    def test_examples(self):
        np.testing.assert_allclose(eigenvalues(make_spec(1, 0, 1, 2)), [1.0, -1.0],
                                   atol=1e-15)
        np.testing.assert_allclose(
            eigenvalues(make_spec(1, 2, 1, 3)), [2 + SQRT2, 2.0, 2 - SQRT2], rtol=1e-14
        )
        assert eigenvalues(make_spec(3, 7, 2, 1))[0] == pytest.approx(7.0, abs=1e-14)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            lam = eigenvalues(random_symmetrisable_spec(rng, n_max=80, n_min=2))
            assert np.all(np.diff(lam) < 0)

    def test_not_symmetrisable(self):
        with pytest.raises(NotSymmetrisable):
            eigenvalues(make_spec(1, 2, -1, 3))


class TestEigenvector:
    def test_symmetric_case(self):
        v = eigenvector(make_spec(1, 0, 1, 2), 1)
        np.testing.assert_allclose(v, [SQRT3 / 2, SQRT3 / 2], rtol=1e-14)

    def test_q_scaling(self):
        v = eigenvector(make_spec(4, 5, 1, 2), 1)
        np.testing.assert_allclose(v, [SQRT3 / 2, SQRT3], rtol=1e-14)

    def test_single_entry_euclidean(self):
        v = eigenvector(make_spec(2, 9, 3, 1), 1, "unit_euclidean")
        np.testing.assert_allclose(v, [1.0])

    def test_normalizations(self):
        spec = make_spec(4, 5, 1, 6)
        w = weight_vector(spec)
        vw = eigenvector(spec, 2, "unit_weighted")
        assert weighted_inner(w, vw, vw) == pytest.approx(1.0, rel=1e-12)
        ve = eigenvector(spec, 2, "unit_euclidean")
        assert np.linalg.norm(ve) == pytest.approx(1.0, rel=1e-12)
        assert ve[np.nonzero(ve)[0][0]] > 0

    def test_index_and_policy_validation(self):
        spec = make_spec(1, 2, 1, 3)
        with pytest.raises(IndexOutOfRange):
            eigenvector(spec, 0)
        with pytest.raises(IndexOutOfRange):
            eigenvector(spec, 4)
        with pytest.raises(ValueError):
            eigenvector(spec, 1, "fancy")

    @pytest.mark.parametrize("norm", ["raw", "unit_weighted", "unit_euclidean"])
    def test_overflowing_q_power_raises(self, norm):
        # q = 100 and n = 200: q^(n-1) = 1e398 leaves the float range
        spec = make_spec(100, 2, 0.01, 200)
        with pytest.raises(OverflowError):
            eigenvector(spec, 1, norm)
        with pytest.raises(OverflowError):
            eigen_pair(spec, 1)

    @pytest.mark.parametrize("k", [1, 100, 201])
    def test_unit_euclidean_when_the_norm_overflows(self, k):
        # q = 10 and n = 201: the entries reach 1e200, their squares overflow
        spec = make_spec(100, 2, 1, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = eigenvector(spec, k, "unit_euclidean")
        assert np.all(np.isfinite(vec))
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-14)
        assert vec[np.nonzero(vec)[0][0]] > 0
        raw = eigenvector(spec, k)
        scaled = np.abs(raw) / np.max(np.abs(raw))
        np.testing.assert_allclose(np.abs(vec), scaled / np.linalg.norm(scaled),
                                   rtol=1e-13)

    def test_eigen_pair_transport(self):
        spec = make_spec(4, 5, 1, 7)
        form = symmetrise(spec)
        pair = eigen_pair(spec, 3)
        d = np.power(form.q, np.arange(spec.n))
        np.testing.assert_allclose(pair.right_vector, d * pair.symmetric_vector,
                                   rtol=1e-13)
        assert pair.value == pytest.approx(eigenvalues(spec)[2], rel=1e-14)


class TestExtremal:
    def test_examples(self):
        s = extremal_eigenvalues(make_spec(1, 4, 1, 3))
        assert s.lambda_max == pytest.approx(4 + SQRT2, rel=1e-14)
        assert s.lambda_min == pytest.approx(4 - SQRT2, rel=1e-14)
        assert s.positive_definite is True

        s = extremal_eigenvalues(make_spec(1, 0, 1, 3))
        assert s.lambda_max == pytest.approx(SQRT2, rel=1e-14)
        assert s.lambda_min == pytest.approx(-SQRT2, rel=1e-14)
        assert s.positive_definite is False

        s = extremal_eigenvalues(make_spec(1, 5, 1, 1))
        assert s.lambda_max == pytest.approx(5.0, abs=1e-14)
        assert s.lambda_min == pytest.approx(5.0, abs=1e-14)
        assert s.positive_definite is True

    def test_matches_eigenvalue_array(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            spec = random_symmetrisable_spec(rng, n_max=60)
            lam = eigenvalues(spec)
            s = extremal_eigenvalues(spec)
            assert s.lambda_max == pytest.approx(lam[0], rel=1e-13, abs=1e-13)
            assert s.lambda_min == pytest.approx(lam[-1], rel=1e-13, abs=1e-13)


class TestDeterminant:
    def test_examples(self):
        assert determinant(make_spec(1, 2, 1, 2)).to_float() == pytest.approx(3.0, rel=1e-13)
        assert determinant(make_spec(10, 11, 1, 3)).to_float() == pytest.approx(1111.0, rel=1e-12)
        assert determinant(make_spec(1, 0, 1, 2)).to_float() == pytest.approx(-1.0, rel=1e-13)

    def test_continuant_examples(self):
        assert determinant_continuant(make_spec(1, 2, 1, 2)).to_float() == pytest.approx(3.0)
        assert determinant_continuant(make_spec(1, 7, 1, 1)).to_float() == pytest.approx(7.0, rel=1e-13)
        assert determinant_continuant(make_spec(10, 11, 1, 3)).to_float() == pytest.approx(1111.0, rel=1e-12)

    def test_closed_vs_continuant_large_n(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 501))
            spec = random_symmetrisable_spec(rng, n_max=n, n_min=n)
            d1 = determinant(spec)
            d2 = determinant_continuant(spec)
            if d1.sign == 0 or d2.sign == 0:
                # both must then be tiny relative to the s^n scale
                scale = spec.n * math.log(symmetrise(spec).s)
                for d in (d1, d2):
                    assert d.sign == 0 or d.log_mag - scale < math.log(1e-8)
                continue
            assert d1.sign == d2.sign
            assert abs(d1.log_mag - d2.log_mag) <= 1e-10 * max(1.0, abs(d1.log_mag))

    def test_equals_product_of_eigenvalues(self):
        rng = np.random.default_rng(43)
        done = 0
        while done < 25:
            spec = random_symmetrisable_spec(rng, n_max=150)
            lam = eigenvalues(spec)
            if np.min(np.abs(lam)) <= 1e-8:
                continue
            done += 1
            d = determinant(spec)
            assert abs(d.log_mag - float(np.sum(np.log(np.abs(lam))))) <= 1e-9
            assert d.sign == (1 if np.prod(np.sign(lam)) > 0 else -1)

    def test_infinite_chebyshev_argument_raises_overflow(self):
        # about 1e308 * I, but x = b/(2s) = 1e308/2e-150 overflows to inf;
        # the eigenvalues and the condition number need no U_n
        spec = make_spec(1e-150, 1e308, 1e-150, 3)
        with pytest.raises(OverflowError):
            determinant(spec)
        np.testing.assert_array_equal(eigenvalues(spec), [1e308] * 3)
        assert weighted_condition(spec).cond_weighted == 1.0


class TestCharPoly:
    def test_nan_point_refused(self):
        with pytest.raises(InvalidParameter):
            char_poly_eval(make_spec(1, 2.5, 1, 3), math.nan)

    def test_examples(self):
        assert char_poly_eval(make_spec(1, 0, 1, 2), 0.0).to_float() == pytest.approx(-1.0, rel=1e-13)
        assert char_poly_eval(make_spec(1, 3, 1, 1), 5.0).to_float() == pytest.approx(2.0, rel=1e-13)
        assert char_poly_eval(make_spec(1, 2, 1, 3), 2.0).sign == 0

    def test_vanishes_at_eigenvalues(self):
        rng = np.random.default_rng(47)
        for n in (3, 8, 40, 120, 200):
            spec = random_symmetrisable_spec(rng, n_max=n, n_min=n)
            log_scale = spec.n * math.log(symmetrise(spec).s)
            for lam in eigenvalues(spec):
                sv = char_poly_eval(spec, float(lam))
                assert sv.sign == 0 or sv.log_mag - log_scale <= math.log(1e-9)

    def test_nonzero_away_from_spectrum(self):
        spec = make_spec(1, 2, 1, 5)
        sv = char_poly_eval(spec, 100.0)
        assert sv.sign == 1 and sv.log_mag > 0


def test_eigen_residuals_via_matvec():
    rng = np.random.default_rng(53)
    for _ in range(40):
        spec = random_symmetrisable_spec(rng, n_max=200, q_span=0.5)
        lam = eigenvalues(spec)
        scale = spec.row_scale()
        for k in (1, (spec.n + 1) // 2, spec.n):
            r = eigenvector(spec, k)
            resid = np.max(np.abs(apply_matvec(spec, r) - lam[k - 1] * r))
            assert resid <= 1e-11 * scale * np.max(np.abs(r))


def test_w_orthogonality():
    rng = np.random.default_rng(59)
    for _ in range(20):
        spec = random_symmetrisable_spec(rng, n_max=60, n_min=2, q_span=0.4)
        w = weight_vector(spec)
        ks = sorted(set([1, int(rng.integers(1, spec.n + 1)), spec.n]))
        vecs = {k: eigenvector(spec, k) for k in ks}
        norms = {k: math.sqrt(weighted_inner(w, vecs[k], vecs[k])) for k in ks}
        for k in ks:
            for l in ks:
                if k < l:
                    inner = weighted_inner(w, vecs[k], vecs[l])
                    assert abs(inner) <= 1e-10 * norms[k] * norms[l]


@pytest.mark.parametrize(
    "spec",
    [
        make_spec(1, 2, 1, 5),
        make_spec(10, 11, 1, 6),
        make_spec(-2.0, 1.0, -0.5, 7),
        make_spec(4, 5, 1, 12),
    ],
)
def test_matches_dense_bisection_oracle(spec):
    closed = np.sort(eigenvalues(spec))
    oracle = eigenvalues_by_bisection(spec)
    assert len(oracle) == spec.n
    scale = max(1.0, float(np.max(np.abs(closed))))
    np.testing.assert_allclose(closed, oracle, atol=1e-9 * scale)
