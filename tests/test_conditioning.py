import math
import re

import numpy as np
import pytest

from helpers import random_symmetrisable_spec
from tritoep import (
    DimensionMismatch,
    SingularMatrix,
    TriToeplitzError,
    apply_matvec,
    build_kernel,
    eigenvalues,
    eigenvector,
    make_spec,
    weight_vector,
    weighted_condition,
    weighted_inner,
    weighted_norm,
    weighted_operator_norm,
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
            if lam_min <= 1e-12 * max(1.0, lam_max):
                with pytest.raises(SingularMatrix, match=re.escape(repr(lam_min))):
                    weighted_condition(spec)
                continue
            rep = weighted_condition(spec)
            if not rep.positive_definite:
                assert rep.cond_weighted == lam_max / lam_min

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


class TestOperatorNorm:
    def test_examples(self):
        assert weighted_operator_norm(make_spec(1, 0, 1, 3)) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )
        assert weighted_operator_norm(make_spec(2, -3, 2, 1)) == pytest.approx(3.0)
        assert weighted_operator_norm(make_spec(4, 5, 1, 2)) == pytest.approx(
            7.0, rel=1e-14
        )

    def test_rayleigh_quotients_never_exceed(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            spec = random_symmetrisable_spec(rng, n_max=100, n_min=2, q_span=0.3)
            if spec.b <= 0:
                spec = make_spec(spec.a, abs(spec.b) + 0.1, spec.c, spec.n)
            w = weight_vector(spec)
            norm = weighted_operator_norm(spec)
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
