import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import eigenvalues_by_bisection, log_abs_fraction, random_symmetrisable_spec
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
from tritoep import ScaledValue, spectral
from tritoep.oracle import dense_from_spec
from tritoep.spectral import _eigenvalue, _extremes

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
MAGNITUDES = (1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e200, 1e300, 1e308)


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

    def test_offdiagonal_product_beyond_the_float_range(self):
        # a*c = 1e400 overflows; the eigenvalues are 1 + 2e200 cos(k pi/4)
        lam = eigenvalues(make_spec(1e200, 1, 1e200, 3))
        assert np.all(np.isfinite(lam))
        np.testing.assert_allclose(lam, [1 + SQRT2 * 1e200, 1.0, 1 - SQRT2 * 1e200],
                                   rtol=1e-15, atol=1e-15 * SQRT2 * 1e200)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 2000, 4096])
    def test_python_float_eigenvalue_is_the_array_entry(self, n):
        # `tritoep eig` lists _eigenvalue over k = 1..n and perfbench checks
        # the listing against eigenvalues: each value must be the array's
        # entry bit for bit (the sign of a zero too), and a spectrum past the
        # float range refused by _extremes with the array's own message;
        # x straddles cos(k pi/(n+1)) and +-1, and q < 0 on half the specs
        xs = [1.0 - 2.0**-40, 1.0 + 2.0**-40, -1.0 - 2.0**-40, -1.0 + 2.0**-40]
        for k in sorted({1, (n + 1) // 2}):
            c = math.cos(k * math.pi / (n + 1))
            xs += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
        # every |a| against every |c| at small n; each magnitude on both
        # sides, with its mirror, at n = 2000 and 4096
        pairs = (itertools.product(MAGNITUDES, MAGNITUDES) if n <= 50 else
                 [*zip(MAGNITUDES, MAGNITUDES), *zip(MAGNITUDES, MAGNITUDES[::-1])])
        refused = 0
        for (ma, mc), sign, x in itertools.product(pairs, (1.0, -1.0), xs):
            b = 2.0 * math.sqrt(ma) * math.sqrt(mc) * x
            b = b if math.isfinite(b) else math.copysign(1.7976931348623157e308, x)
            spec = make_spec(sign * ma, b, sign * mc, n)
            s = symmetrise(spec).s
            try:
                want = eigenvalues(spec)
            except OverflowError as exc:
                refused += 1
                with pytest.raises(OverflowError, match=re.escape(str(exc))):
                    _extremes(spec, s)
                continue
            _extremes(spec, s)
            got = np.array([_eigenvalue(spec, s, k) for k in range(1, n + 1)])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert refused > 0

    @staticmethod
    def _extreme_pairs():
        # 1,000 seeded specs, n in 1..5000, a and c in U(0.1, 3), b in U(-5, 5);
        # the first spec's two lambda_n read 0.06949195169519129 (eigenvalues)
        # and 0.06949195169519118 (extremal_eigenvalues)
        rnd = random.Random(1)
        specs = [make_spec(0.29725472741502035, 0.8703184282516627, 0.5428867319210992, 38)]
        for _ in range(1000):
            n = rnd.randint(1, 5000)
            a, c, b = rnd.uniform(0.1, 3), rnd.uniform(0.1, 3), rnd.uniform(-5, 5)
            specs.append(make_spec(a, b, c, n))
        return [(eigenvalues(spec), extremal_eigenvalues(spec)) for spec in specs]

    def test_largest_eigenvalue_is_the_extreme_bit_for_bit(self):
        # lambda_1 = b + 2s cos(pi/(n+1)) in both, the same operations
        for lam, ext in self._extreme_pairs():
            assert lam[0] == ext.lambda_max

    @pytest.mark.xfail(strict=True, reason=(
        "lambda_n has two expressions: eigenvalues takes b + 2s cos(n pi/(n+1)), "
        "extremal_eigenvalues the paper's b - 2s cos(pi/(n+1)); they differ in the last "
        "bit on some specs until the eigen phase is folded by symmetry"))
    def test_smallest_eigenvalue_is_the_extreme_bit_for_bit(self):
        for lam, ext in self._extreme_pairs():
            assert lam[-1] == ext.lambda_min


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

    def test_unknown_normalization_is_a_typed_error(self):
        with pytest.raises(InvalidParameter, match="normalization must be one of"):
            eigenvector(make_spec(1, 2, 1, 3), 1, "fancy")

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

    @pytest.mark.parametrize("b, k", [(1.7e308, 1), (-1.7e308, 3)])
    def test_eigenvalue_past_the_float_range_refused(self, b, k):
        # |lambda| = 1.7e308 + 1.6e308 cos(pi/4) = 2.83e308: it read inf, or
        # nan/None in json, with a RuntimeWarning
        spec = make_spec(8e307, b, 8e307, 3)
        msg = rf"eigenvalue lambda_{k} has log-magnitude 710.237, beyond"
        for call in (eigenvalues, extremal_eigenvalues, weighted_condition,
                     lambda sp: eigen_pair(sp, 2)):
            with pytest.raises(OverflowError, match=msg):
                call(spec)

    def test_two_s_past_the_float_range(self):
        # s = 1e308: the largest eigenvalue, 1.7e308 + 1e308 sqrt(2), is
        # past the float range; at b = 1e307 none is
        with pytest.raises(OverflowError, match="lambda_1"):
            extremal_eigenvalues(make_spec(1e308, 1.7e308, 1e308, 3))
        s = extremal_eigenvalues(make_spec(1e308, 1e307, 1e308, 2))
        assert s.lambda_max == pytest.approx(1.1e308, rel=1e-15)
        assert s.lambda_min == pytest.approx(-9e307, rel=1e-15)
        assert s.positive_definite is False
        np.testing.assert_allclose(eigenvalues(make_spec(1e308, 1e307, 1e308, 2)),
                                   [1.1e308, -9e307], rtol=1e-15)

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

    @pytest.mark.parametrize("s", [1e-300, 1.0, 1e300])
    def test_zero_chebyshev_value_gives_zero(self, monkeypatch, s):
        # no spec is known whose U_n rounds to exactly 0; if one does, the
        # one return gives sign 0 and log -inf, as n log s is finite
        monkeypatch.setattr(spectral, "eval_U_scaled", lambda m, x: ScaledValue(0, -math.inf))
        assert determinant(make_spec(s, 3.0, s, 7)) == ScaledValue(0, -math.inf)

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

    def test_offdiagonal_product_below_the_float_range(self):
        # a*c = 1e-400 underflows to 0; the determinant is 1 - 2e-400
        d = determinant(make_spec(1e-200, 1, 1e-200, 3))
        assert d.to_float() == pytest.approx(1.0, rel=1e-15)

    def test_infinite_chebyshev_argument_raises_overflow(self):
        # about 1e308 * I, but x = b/(2s) = 1e308/2e-150 overflows to inf;
        # the eigenvalues and the condition number need no U_n
        spec = make_spec(1e-150, 1e308, 1e-150, 3)
        with pytest.raises(OverflowError):
            determinant(spec)
        np.testing.assert_array_equal(eigenvalues(spec), [1e308] * 3)
        assert weighted_condition(spec).cond_weighted == 1.0

    @pytest.mark.parametrize("mag", [1e-300, 1e-200, 1e200, 1e300])
    @pytest.mark.parametrize("x", [0.3, -0.8, 1.5, 1e5])
    def test_continuant_at_extreme_scales(self, mag, x):
        # run in units of s^k, the continuant forms no s^2 (1e+-400 or
        # 1e+-600 here), so it agrees with the closed form at any scale
        for n in (4, 50):
            spec = make_spec(mag, 2.0 * mag * x, mag, n)
            d1, d2 = determinant(spec), determinant_continuant(spec)
            assert d1.sign == d2.sign
            assert abs(d1.log_mag - d2.log_mag) <= 1e-13 * abs(d1.log_mag)

    def test_continuant_refuses_b_over_s_past_the_float_range(self):
        # b/s = 1e608, as determinant refuses x = b/(2s)
        spec = make_spec(1e-300, 1e308, 1e-300, 3)
        for det in (determinant, determinant_continuant):
            with pytest.raises(OverflowError, match="Chebyshev argument"):
                det(spec)

    def test_two_s_past_the_float_range(self):
        # s = 1e308: 2s overflowed, so x came out 0 instead of 0.85 and the
        # determinant read sign -1, log 2091.64 instead of sign 1, 2128.0027
        spec = make_spec(1e308, 1.7e308, 1e308, 3)
        assert symmetrise(spec).x == 0.85
        d = determinant(spec)
        a, b = Fraction(1e308), Fraction(1.7e308)
        want = b * (b * b - a * a) - a * a * b
        assert d.sign == 1
        assert d.log_mag == pytest.approx(log_abs_fraction(want), rel=1e-15)
        assert determinant_continuant(spec).log_mag == pytest.approx(d.log_mag, rel=1e-15)


class TestCharPoly:
    def test_two_s_past_the_float_range(self):
        # at t = 0, det(-A) = -det(A); with 2s overflowed it read as an exact 0
        spec = make_spec(1e308, 1.7e308, 1e308, 3)
        chi = char_poly_eval(spec, 0.0)
        assert chi.sign == -1
        assert chi.log_mag == pytest.approx(determinant(spec).log_mag, rel=1e-15)

    def test_nan_point_refused(self):
        with pytest.raises(InvalidParameter):
            char_poly_eval(make_spec(1, 2.5, 1, 3), math.nan)

    def test_examples(self):
        assert char_poly_eval(make_spec(1, 0, 1, 2), 0.0).to_float() == pytest.approx(-1.0, rel=1e-13)
        assert char_poly_eval(make_spec(1, 3, 1, 1), 5.0).to_float() == pytest.approx(2.0, rel=1e-13)
        assert char_poly_eval(make_spec(1, 2, 1, 3), 2.0).sign == 0

    def test_sine_regime_value_is_the_correctly_rounded_one(self):
        # det(0.5 I - A) = prod(0.5 - 2 - 2 cos(k pi/6)) = 1.40625 exactly, at
        # x = -0.75; the CLI golden `charpoly -a 1 -b 2 -c 1 -n 5 -t 0.5` prints
        # this value and log, which 40-digit mpmath rounds to (sin of the
        # rounded 6 theta gave 1.4062500000000002 and 0.34092658697059336)
        chi = char_poly_eval(make_spec(1, 2, 1, 5), 0.5)
        assert chi.to_float() == 1.40625
        assert chi.log_mag == 0.3409265869705932

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


# The normwise contract of the closed forms (also in the docstrings of
# eigenvalues and weighted_condition): an eigenvalue carries an absolute
# error of a few eps times |b| + 2s, the norm of the matrix, not a relative
# one; LAPACK's eigvalsh has the same.  So the middle eigenvalue of
# make_spec(1e200, 1, 1e200, 3), exactly 1, may come out near 1.2e184.
# Draws: n <= 60, s in 10^(+-3), x = b/(2s) in [-3, 3],
# |log q|(n-1) <= 600, q < 0 on some draws.
EPS = np.finfo(float).eps


@st.composite
def _eigen_specs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    s = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    log_q = draw(st.floats(min_value=-600.0, max_value=600.0)) / max(n - 1, 1)
    q = math.exp(log_q) * draw(st.sampled_from([1.0, -1.0]))
    x = draw(st.floats(min_value=-3.0, max_value=3.0))
    return make_spec(s * q, 2.0 * s * x, s / q, n)


@given(_eigen_specs())
def test_eigenvalues_match_eigvalsh_normwise(spec):
    # the closed form rounds theta_k, the cosine and b + 2s cos to a few eps
    # of |b| + 2s, and eigvalsh is backward stable with a small multiple of
    # eps times the norm at n <= 60: C = 32
    s = symmetrise(spec).s
    dense = np.linalg.eigvalsh(dense_from_spec(make_spec(s, spec.b, s, spec.n)))
    err = np.max(np.abs(np.sort(eigenvalues(spec)) - dense))
    assert err <= 32 * EPS * (abs(spec.b) + 2.0 * s)


@given(_eigen_specs())
def test_eigen_pair_residual_normwise(spec):
    # theta_k is rounded, so sin((n+1) theta_k) is about k pi eps, not 0: the
    # row n+1 term the matrix leaves out makes the residual up to about
    # (n+1)^2 eps of row_scale times max|v| when the last entry dominates
    # (|q| >= 2, k = n); C = 4096 covers (n+1)^2 at n <= 60
    dense = dense_from_spec(spec)
    for k in range(1, spec.n + 1):
        pair = eigen_pair(spec, k)
        v = pair.right_vector
        # divided by max|v| first: row_scale times max|v| can pass the float range
        resid = np.max(np.abs(dense @ v - pair.value * v)) / np.max(np.abs(v))
        assert resid <= 4096 * EPS * spec.row_scale()
