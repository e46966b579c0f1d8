import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_symmetrisable_spec
from tritoep import (
    ConditionReport,
    DimensionMismatch,
    InvalidParameter,
    SingularMatrix,
    TriToeplitzError,
    apply_matvec,
    build_kernel,
    eigenvalues,
    eigenvector,
    extremal_eigenvalues,
    make_spec,
    weight_vector,
    weighted_condition,
    weighted_inner,
    weighted_norm,
)
from tritoep.oracle import dense_from_spec


class TestInnerAndNorm:
    def test_inner_examples(self):
        assert weighted_inner([1, 1], [1, 0], [0, 1]) == 0.0
        assert weighted_inner([1, 0.25], [1, 2], [1, 2]) == pytest.approx(2.0)
        assert weighted_inner([1, 2], [3, 1], [1, 1]) == pytest.approx(5.0)

    def test_norm_examples(self):
        assert weighted_norm([1, 1, 1], [3, 4, 0]) == pytest.approx(5.0)
        assert weighted_norm([1, 0.25], [0, 4]) == pytest.approx(2.0)
        assert weighted_norm([1, 2, 3], [0, 0, 0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_inner([1, 1], [1], [1, 2])
        with pytest.raises(DimensionMismatch):
            weighted_norm([1, 1, 1], [1, 2])

    def test_matrix_input_rejected(self):
        with pytest.raises(DimensionMismatch, match="expected a vector"):
            weighted_inner([1, 1], [[1, 0], [0, 1]], [1, 1])

    def test_no_intermediate_overflow_or_underflow(self):
        # the plain sums gave inf with a RuntimeWarning (w u = 1e400), nan
        # (1e600 - 1e600) and 0.0 (w u^2 = 1e-340)
        assert weighted_inner([1e200], [1e200], [1e-200]) == 1e200
        assert weighted_inner([1e200, 1e200], [1e200, 1e200], [1e200, -1e200]) == 0.0
        assert weighted_norm([1e-300, 1e-300], [1e-20, 1e-20]) == pytest.approx(
            math.sqrt(2.0) * 1e-170, rel=1e-15)

    def test_terms_of_any_range_against_the_exact_sum(self):
        # each term is rounded twice on the way (w u, then times v) and the
        # sum n - 1 times at most: within gamma_(n+1) sum|terms|
        rng = np.random.default_rng(241)
        eps = sys.float_info.epsilon
        for _ in range(200):
            n = int(rng.integers(1, 40))
            w, u, v = (rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n) for _ in "wuv")
            w = np.abs(w)
            terms = [Fraction(x) * Fraction(y) * Fraction(z) for x, y, z in zip(w, u, v)]
            exact, size = sum(terms), sum(abs(t) for t in terms)
            if not Fraction(sys.float_info.min) <= size <= Fraction(sys.float_info.max):
                continue
            got = weighted_inner(w, u, v)
            assert abs(Fraction(got) - exact) <= (n + 1) * eps * size
            # the exact norm in units of 2^e, which may be past the float range
            norm2 = sum(Fraction(x) * Fraction(y) ** 2 for x, y in zip(w, u))
            e = (norm2.numerator.bit_length() - norm2.denominator.bit_length()) // 2
            if not norm2 or abs(e) > 1000:
                continue
            exact_norm = math.ldexp(math.sqrt(norm2 / Fraction(2) ** (2 * e)), e)
            assert weighted_norm(w, u) == pytest.approx(exact_norm, rel=4 * eps)

    def test_sum_past_the_float_range_is_refused(self):
        # 2e308 is past the range
        with pytest.raises(OverflowError,
                           match="weighted inner product has log-magnitude 709.889, beyond"):
            weighted_inner([1, 1], [1, 1], [1e308, 1e308])
        # 1e300 (1e160)^2 = 1e620, whose square root 1e310 is past the range
        with pytest.raises(OverflowError, match="weighted norm has log-magnitude 713.801, beyond"):
            weighted_norm([1e300], [1e160])
        assert weighted_norm([1e300], [1e-160]) == pytest.approx(1e-10, rel=1e-15)

    @pytest.mark.parametrize("weight", [-1.0, -1e-300, math.inf, math.nan])
    def test_weights_must_be_finite_and_nonnegative(self, weight):
        # a negative weight raised a plain ValueError from the norm's sqrt
        with pytest.raises(InvalidParameter, match=re.escape(f"got w_2 = {weight!r}")):
            weighted_inner([1.0, weight], [1.0, 2.0], [1.0, 2.0])
        with pytest.raises(InvalidParameter, match="weights must be finite and nonnegative"):
            weighted_norm([1.0, weight], [1.0, 2.0])


class TestWeightedCondition:
    def test_examples(self):
        assert weighted_condition(make_spec(4, 5, 1, 2)).cond_weighted == pytest.approx(
            7 / 3, rel=1e-14
        )
        assert weighted_condition(make_spec(1, 5, 1, 1)).cond_weighted == pytest.approx(
            1.0, rel=1e-14
        )
        with pytest.raises(SingularMatrix):
            weighted_condition(make_spec(1, 0, 1, 3))

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan])
    @pytest.mark.parametrize("routine", [weighted_condition, build_kernel])
    def test_singular_tol_must_be_positive(self, routine, tol):
        with pytest.raises(TriToeplitzError, match="singular_tol must be positive"):
            routine(make_spec(1, 0, 1, 3), singular_tol=tol)

    def test_report_fields(self):
        rep = weighted_condition(make_spec(4, 5, 1, 2))
        assert rep.positive_definite is True
        assert rep.formula_value == rep.cond_weighted
        assert rep.lambda_max == pytest.approx(7.0, rel=1e-14)
        assert rep.lambda_min == pytest.approx(3.0, rel=1e-14)

    def test_indefinite_uses_abs_ratio(self):
        rep = weighted_condition(make_spec(1, 0.5, 1, 5))
        assert rep.positive_definite is False
        assert rep.formula_value is None
        lam_abs = np.abs(np.linalg.eigvalsh(dense_from_spec(make_spec(1, 0.5, 1, 5))))
        assert rep.cond_weighted == pytest.approx(
            float(np.max(lam_abs) / np.min(lam_abs)), rel=1e-12
        )

    def test_oracle_equality_positive_definite(self):
        rng = np.random.default_rng(103)
        done = 0
        while done < 25:
            spec = random_symmetrisable_spec(rng, n_max=50, x_range=(1.01, 3.0))
            done += 1
            rep = weighted_condition(spec)
            assert rep.positive_definite
            s = math.sqrt(spec.a * spec.c)
            sym = dense_from_spec(make_spec(s, spec.b, s, spec.n))
            lam = np.linalg.eigvalsh(sym)
            assert rep.cond_weighted == pytest.approx(
                float(lam[-1] / lam[0]), rel=1e-10
            )

    def test_extremes_equal_full_spectrum(self):
        # min|lambda| and max|lambda| come from a few candidate indices; they
        # must equal the extremes of the whole eigenvalue array exactly, as
        # seen through the singularity check and the indefinite ratio
        rng = np.random.default_rng(113)
        for t in range(600):
            n = (1, 2)[t % 2] if t < 100 else int(rng.integers(3, 300))
            sign = -1.0 if rng.random() < 0.5 else 1.0
            a = sign * math.exp(rng.uniform(-2.0, 2.0))
            c = sign * math.exp(rng.uniform(-2.0, 2.0))
            kind = t % 3
            if kind == 0:
                x = rng.uniform(-2.0, 2.0)
            elif kind == 1:
                x = (-1.0) ** t * (1.0 + rng.uniform(-1e-9, 1e-9))
            else:
                k = int(rng.integers(1, n + 1))
                x = -math.cos(k * math.pi / (n + 1)) + rng.choice([0.0, 1e-15, -1e-13])
            spec = make_spec(a, 2.0 * math.sqrt(a * c) * x, c, n)
            lam = np.abs(eigenvalues(spec))
            lam_min, lam_max = float(np.min(lam)), float(np.max(lam))
            if lam_min <= 1e-12 * (abs(spec.b) + 2.0 * math.sqrt(a * c)):
                with pytest.raises(SingularMatrix, match=re.escape(repr(lam_min))):
                    weighted_condition(spec)
                continue
            rep = weighted_condition(spec)
            if not rep.positive_definite:
                assert rep.cond_weighted == lam_max / lam_min

    # (n, side, k): the abs_min that the refusals 2 ulps below, at and 2 ulps
    # above x = -cos(k pi/(n+1)) quoted when the candidates were evaluated
    # on a numpy array, before the Python floats; side indexes _SIDES
    _SIDES = ((1e-300, 1e-300), (1e300, 1e-300), (-1e300, -1e300))
    _REFUSED = {
        (1, 0, 1): ("0.0", "0.0", "0.0"),
        (1, 1, 1): ("4.930380657631324e-32", "0.0", "4.930380657631324e-32"),
        (1, 2, 1): ("4.952761229396862e+268", "0.0", "4.952761229396862e+268"),
        (2, 0, 1): ("4.97342764e-316", "0.0", "3.3156184e-316"),
        (2, 0, 2): ("1.6578092e-316", "0.0", "3.3156184e-316"),
        (2, 1, 1): ("4.440892098500626e-16", "0.0", "4.440892098500626e-16"),
        (2, 1, 2): ("2.220446049250313e-16", "0.0", "2.220446049250313e-16"),
        (2, 2, 1): ("4.461050725433349e+284", "0.0", "2.974033816955566e+284"),
        (2, 2, 2): ("1.487016908477783e+284", "0.0", "2.974033816955566e+284"),
        (3, 0, 1): ("4.97342764e-316", "0.0", "4.97342764e-316"),
        (3, 0, 2): ("0.0", "0.0", "0.0"),
        (3, 1, 1): ("4.440892098500626e-16", "0.0", "4.440892098500626e-16"),
        (3, 1, 2): ("4.930380657631324e-32", "0.0", "4.930380657631324e-32"),
        (3, 2, 1): ("5.948067633911132e+284", "0.0", "2.974033816955566e+284"),
        (3, 2, 2): ("4.952761229396862e+268", "0.0", "4.952761229396862e+268"),
        (50, 0, 1): ("3.3156184e-316", "0.0", "6.63123685e-316"),
        (50, 0, 26): ("1.036131e-317", "0.0", "1.036131e-317"),
        (50, 1, 1): ("4.440892098500626e-16", "0.0", "4.440892098500626e-16"),
        (50, 1, 26): ("1.3877787807814457e-17", "0.0", "1.3877787807814457e-17"),
        (50, 2, 1): ("5.948067633911132e+284", "0.0", "2.974033816955566e+284"),
        (50, 2, 26): ("1.858771135597229e+283", "0.0", "9.293855677986144e+282"),
        (4096, 0, 1): ("3.3156184e-316", "0.0", "3.3156184e-316"),
        (4096, 0, 2049): ("1.61895e-319", "0.0", "3.2379e-319"),
        (4096, 1, 1): ("4.440892098500626e-16", "0.0", "4.440892098500626e-16"),
        (4096, 1, 2049): ("2.168404344971009e-19", "0.0", "2.168404344971009e-19"),
        (4096, 2, 1): ("2.974033816955566e+284", "0.0", "5.948067633911132e+284"),
        (4096, 2, 2049): ("1.452164949685335e+281", "0.0", "2.90432989937067e+281"),
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 4096])
    def test_one_eigenvalue_expression_across_singular_points(self, n):
        # the candidates are evaluated on Python floats by the expression that
        # eigenvalues runs on arrays: an indefinite ratio equals the one over
        # the whole spectrum bit for bit, and a refusal quotes the same abs_min
        pd = 0
        for side, (a, c) in enumerate(self._SIDES):
            s = math.sqrt(abs(a)) * math.sqrt(abs(c))
            for k in sorted({1, n // 2 + 1}):
                x0 = -math.cos(k * math.pi / (n + 1))
                quarter_gap = 0.25 * math.pi / (n + 1)
                for step, abs_min in zip((-2, 0, 2), self._REFUSED[n, side, k]):
                    spec = make_spec(a, 2.0 * s * (x0 + step * math.ulp(x0)), c, n)
                    message = f"smallest eigenvalue magnitude {abs_min} is below"
                    with pytest.raises(SingularMatrix, match=re.escape(message)):
                        weighted_condition(spec)
                for x in (x0 - quarter_gap, x0 + quarter_gap, 1.5, -1.5):
                    spec = make_spec(a, 2.0 * s * x, c, n)
                    rep = weighted_condition(spec)
                    lam = np.abs(eigenvalues(spec))
                    if rep.positive_definite:
                        pd += 1
                        assert rep.cond_weighted == rep.lambda_max / rep.lambda_min
                    else:
                        assert rep.cond_weighted == float(lam.max()) / float(lam.min())
        assert pd >= len(self._SIDES)

    def test_monotone_blowup(self):
        n, s = 8, 1.0
        edge = 2.0 * s * math.cos(math.pi / (n + 1))
        conds = [
            weighted_condition(make_spec(1, edge + gap, 1, n)).cond_weighted
            for gap in (1.0, 0.5, 0.25, 0.1, 0.05, 0.01, 0.003)
        ]
        assert all(c2 > c1 for c1, c2 in zip(conds, conds[1:]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            spec = random_symmetrisable_spec(rng, n_max=40)
            try:
                base = weighted_condition(spec).cond_weighted
            except SingularMatrix:
                continue
            for t in (2.0, 0.125, 37.5):
                scaled = make_spec(t * spec.a, t * spec.b, t * spec.c, spec.n)
                assert weighted_condition(scaled).cond_weighted == pytest.approx(
                    base, rel=1e-12
                )


    def test_small_matrix_is_not_singular(self):
        # every eigenvalue is below 1e-19, but min|lambda| is 0.13 of |b| + 2s
        rep = weighted_condition(make_spec(1e-20, 2.5e-20, 1e-20, 10))
        assert rep.cond_weighted == pytest.approx(7.605643832801831, rel=1e-14)
        # the zero 1 x 1 matrix, whose closed-form eigenvalue is 2s cos(pi/2) = 1.2e-36
        with pytest.raises(SingularMatrix, match="1.2246467991473531e-36"):
            weighted_condition(make_spec(1e-20, 0.0, 1e-20, 1))

    def test_spread_past_the_float_range(self):
        # |b| + 2s = 2e308 overflowed, so the refusal scale was inf and the
        # spec read as singular; its condition number is 3 + 2 sqrt(2)
        rep = weighted_condition(make_spec(5e307, 1e308, 5e307, 3))
        assert rep.cond_weighted == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-15)
        assert rep.positive_definite
        with pytest.raises(SingularMatrix):
            weighted_condition(make_spec(5e307, 1e308, 5e307, 3), singular_tol=0.2)


@st.composite
def _scaled_specs(draw):
    """A spec in every regime, near-singular ones included, and k with a c 4^k normal."""
    n = draw(st.integers(1, 300))
    s = 10.0 ** draw(st.floats(-5.0, 5.0))
    q = draw(st.sampled_from([1.0, -1.0])) * math.exp(draw(st.floats(-2.0, 2.0)))
    k_sing = draw(st.integers(1, n))
    x = draw(st.one_of(
        st.floats(-3.0, 3.0),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-1e-12, 1e-12).map(lambda d: d - math.cos(k_sing * math.pi / (n + 1)))))
    spec = make_spec(s * q, 2.0 * s * x, s / q, n)
    return spec, draw(st.integers(-450, 450))


@given(_scaled_specs())
def test_scaling_by_a_power_of_two_keeps_the_report(case):
    # the refusal compares min|lambda| with |b| + 2s, and a spec times 2^k,
    # where a c 4^k stays normal, scales both exactly: it gets the same
    # decision and its eigenvalues times 2^k, bit for bit
    spec, k = case
    assert sys.float_info.min <= math.ldexp(spec.a * spec.c, 2 * k) < math.inf
    scaled = make_spec(math.ldexp(spec.a, k), math.ldexp(spec.b, k),
                       math.ldexp(spec.c, k), spec.n)
    try:
        rep = weighted_condition(spec)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            weighted_condition(scaled)
        return
    assert weighted_condition(scaled) == ConditionReport(
        math.ldexp(rep.lambda_max, k), math.ldexp(rep.lambda_min, k),
        rep.positive_definite, rep.cond_weighted, rep.formula_value)


def _operator_norm(spec):
    """The weighted operator norm, max(|lambda_max|, |lambda_min|)."""
    ext = extremal_eigenvalues(spec)
    return max(abs(ext.lambda_max), abs(ext.lambda_min))


class TestOperatorNorm:
    def test_examples(self):
        assert _operator_norm(make_spec(1, 0, 1, 3)) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )
        assert _operator_norm(make_spec(2, -3, 2, 1)) == pytest.approx(3.0)
        assert _operator_norm(make_spec(4, 5, 1, 2)) == pytest.approx(
            7.0, rel=1e-14
        )

    def test_rayleigh_quotients_never_exceed(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            spec = random_symmetrisable_spec(rng, n_max=100, n_min=2, q_span=0.3)
            if spec.b <= 0:
                spec = make_spec(spec.a, abs(spec.b) + 0.1, spec.c, spec.n)
            w = weight_vector(spec)
            norm = _operator_norm(spec)
            sup = 0.0
            for _ in range(200):
                v = rng.standard_normal(spec.n)
                sup = max(
                    sup,
                    weighted_norm(w, apply_matvec(spec, v)) / weighted_norm(w, v),
                )
            assert sup <= norm * (1.0 + 1e-10)
            # the top eigenvector attains the norm (b > 0 puts it at k = 1)
            v1 = eigenvector(spec, 1)
            attained = weighted_norm(w, apply_matvec(spec, v1)) / weighted_norm(w, v1)
            assert attained == pytest.approx(norm, rel=1e-6)
