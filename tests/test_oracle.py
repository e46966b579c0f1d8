import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_symmetrisable_spec
from tritoep import ScaledValue, determinant, make_spec, symmetrise
from tritoep.errors import DimensionMismatch, SingularMatrix
from tritoep.oracle import (
    dense_from_spec,
    dense_inverse,
    lu_det,
    lu_solve,
    verify_checks,
)
from tritoep.spectral import EigenPair


class TestDenseFromSpec:
    def test_layout(self):
        np.testing.assert_array_equal(
            dense_from_spec(make_spec(10, 11, 1, 2)), [[11.0, 1.0], [10.0, 11.0]]
        )
        np.testing.assert_array_equal(dense_from_spec(make_spec(2, 5, 3, 1)), [[5.0]])
        np.testing.assert_array_equal(
            dense_from_spec(make_spec(1, 2, 1, 3)),
            [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]],
        )


class TestLuSolve:
    def test_hand_case(self):
        np.testing.assert_allclose(
            lu_solve([[2.0, 1.0], [1.0, 2.0]], [1.0, 0.0]), [2 / 3, -1 / 3],
            rtol=1e-14,
        )

    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.5])
        np.testing.assert_array_equal(lu_solve(np.eye(3), rhs), rhs)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            lu_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])

    def test_non_square_matrix_refused(self):
        with pytest.raises(DimensionMismatch, match="expected a square matrix"):
            lu_solve([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 0.0])

    def test_rhs_of_the_wrong_length_refused(self):
        with pytest.raises(DimensionMismatch, match="does not match matrix order 2"):
            lu_solve(np.eye(2), [1.0, 0.0, 0.0])

    def test_scaled_matrix_gives_the_scaled_answer_bit_for_bit(self):
        # the pivot rule n eps max|m| has no floor, so m * 2^-70 (entries
        # near 1e-21, all refused under a floor of 1) solves as m does
        rng = np.random.default_rng(137)
        for _ in range(30):
            n = int(rng.integers(1, 21))
            m = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            rhs = rng.standard_normal(n)
            tiny = np.ldexp(m, -70)
            np.testing.assert_array_equal(lu_solve(tiny, rhs), np.ldexp(lu_solve(m, rhs), 70))
            np.testing.assert_array_equal(dense_inverse(tiny), np.ldexp(dense_inverse(m), 70))


class TestLuDet:
    def test_values(self):
        assert lu_det([[11.0, 1.0], [10.0, 11.0]]) == pytest.approx(111.0, rel=1e-14)
        assert lu_det(np.eye(5)) == 1.0
        assert lu_det([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0, rel=1e-14)

    def test_singular_gives_zero(self):
        assert lu_det([[1.0, 1.0], [1.0, 1.0]]) == 0.0

    def test_matches_closed_form_determinant(self):
        rng = np.random.default_rng(127)
        for _ in range(25):
            spec = random_symmetrisable_spec(rng, n_max=50)
            d = determinant(spec)
            o = lu_det(dense_from_spec(spec))
            if d.sign == 0 or o == 0.0:
                continue
            assert math.copysign(1.0, o) == d.sign
            assert math.log(abs(o)) == pytest.approx(
                d.log_mag, rel=1e-9, abs=1e-9
            )


class TestDenseInverse:
    def test_hand_case(self):
        np.testing.assert_allclose(
            dense_inverse([[2.0, 1.0], [1.0, 2.0]]),
            np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0,
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            dense_inverse([[11.0, 1.0], [10.0, 11.0]]),
            np.array([[11.0, -1.0], [-10.0, 11.0]]) / 111.0,
            rtol=1e-14,
        )

    def test_identity(self):
        np.testing.assert_array_equal(dense_inverse(np.eye(4)), np.eye(4))

    def test_matrix_with_entries_below_n_eps(self):
        # every entry of the spec is below n eps = 2.2e-15: min|lambda| is
        # 0.13 of |b| + 2s, far from singular
        m = dense_from_spec(make_spec(1e-20, 2.5e-20, 1e-20, 10))
        assert np.max(np.abs(dense_inverse(m) @ m - np.eye(10))) <= 1e-14

    def test_inverse_past_the_float_range_refused(self):
        # no pivot floor: a tiny matrix is solved, and an inverse past the
        # float range is refused, with no RuntimeWarning, not returned as inf
        np.testing.assert_array_equal(dense_inverse([[1e-300]]), [[1.0 / 1e-300]])
        with pytest.raises(OverflowError, match="float range"):
            dense_inverse([[1e-310]])
        with pytest.raises(OverflowError, match="float range"):
            lu_solve(np.eye(2) * 1e-310, [1.0, 1.0])

    def test_self_consistency_random(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            n = int(rng.integers(1, 51))
            m = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            prod = dense_inverse(m) @ m
            assert np.max(np.abs(prod - np.eye(n))) <= 1e-10


def test_verify_skips_an_inverse_past_the_float_range():
    # q = 1e300: the kernel's entry (3, 1) is about q^2
    checks = {ch["name"]: ch for ch in verify_checks(make_spec(1e300, 1.0, 1e-300, 3), 1e-12)}
    assert checks["inverse"]["status"] == "SKIP (kernel: OverflowError)"
    assert checks["wronskian"]["status"] == "PASS"


def test_verify_fails_determinants_of_opposite_signs(monkeypatch):
    # the closed form and the continuant are both exact in sign; a continuant
    # of the other sign, stubbed here, must fail the check, not pass on |det|
    from tritoep import spectral

    continuant = spectral.determinant_continuant

    def flipped(spec):
        det = continuant(spec)
        return ScaledValue(-det.sign, det.log_mag)

    monkeypatch.setattr(spectral, "determinant_continuant", flipped)
    checks = {ch["name"]: ch for ch in verify_checks(make_spec(1.0, 2.5, 1.0, 5), 1e-12)}
    assert (checks["determinant"]["status"], checks["determinant"]["residual"]) == (
        "FAIL", math.inf)


# the eigen check on A = [[2, 1], [1, 2]]: eigenvalues 3 and 1 (k = 1, 2),
# eigenvectors along (1, 1) and (1, -1), row scale 4
_EIGEN_SPEC = make_spec(1.0, 2.0, 1.0, 2)


def _eigen_check(spec=_EIGEN_SPEC):
    return next(ch for ch in verify_checks(spec, 1e-12) if ch["name"] == "eigen")


def _stub_right_vectors(monkeypatch, vector):
    """Make ``eigen_pair`` return ``vector(k, right_vector)`` as pair k's right vector."""
    from tritoep import spectral

    pair_of = spectral.eigen_pair

    def stub(spec, k):
        p = pair_of(spec, k)
        return EigenPair(p.k, p.theta, p.value, vector(k, p.right_vector), p.symmetric_vector)

    monkeypatch.setattr(spectral, "eigen_pair", stub)


def test_verify_passes_the_closed_form_eigenpairs():
    check = _eigen_check()
    assert check["status"] == "PASS"
    assert check["residual"] <= 2.0**-52


def test_verify_fails_a_vector_that_is_not_an_eigenvector(monkeypatch):
    # (1, 0) for lambda = 3: A v - 3 v = (-1, 1), over the row scale 4 times max|v| = 1
    _stub_right_vectors(monkeypatch, lambda k, v: np.array([1.0, 0.0]) if k == 1 else v)
    check = _eigen_check()
    assert (check["status"], check["residual"]) == ("FAIL", 0.25)


def test_verify_measures_vectors_on_the_symmetrised_matrix_by_its_row_scale(monkeypatch):
    # q^2 = 1e600: the vectors are checked on the symmetrised matrix, whose
    # entries are s = 1 and b = 1, not on A's |a| + |c| = 1e300.  (1, 0, 0) for
    # lambda_1 = 1 + sqrt(2) leaves the residual (sqrt(2), 1, 0) over the row
    # scale 3, not a PASS at 1e-300
    spec = make_spec(1e300, 1.0, 1e-300, 3)
    check = _eigen_check(spec)
    assert check["status"] == "PASS" and check["residual"] <= 2.0**-52
    _stub_right_vectors(monkeypatch, lambda k, v: np.array([1.0, 0.0, 0.0]) if k == 1 else v)
    check = _eigen_check(spec)
    assert check["status"] == "FAIL"
    assert check["residual"] == pytest.approx(2.0**0.5 / 3, rel=1e-15)


def test_verify_measures_each_eigenvector_against_its_own_size(monkeypatch):
    # scaling one vector by 2^600 and the other by 2^-600 is exact, and each
    # residual is divided by its own vector's max|v|, so nothing moves
    exact = _eigen_check()["residual"]
    _stub_right_vectors(monkeypatch, lambda k, v: v * 2.0 ** (600 if k == 1 else -600))
    assert _eigen_check()["residual"] == exact


# verify_checks at a spec times 2^k.  Every closed form and every dense
# routine it compares is exact under the scaling or scales with it, so the
# verdicts must not move, provided k keeps every entry and |a| + |b| + |c|
# normal and finite.  The determinant's anchor max(1, |log det|) is not
# scale-free, so a check that sits at its tolerance could still move: the
# draws keep the rounding bound n eps (|b| + 2s) / min|lambda| below 1e-11.
# The repunit row is left out: only scale 1 is a repunit matrix.
@st.composite
def _scaled_pair(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    sign = draw(st.sampled_from([1.0, -1.0]))
    a = sign * 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    c = sign * 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    x = draw(st.one_of(st.floats(min_value=-0.999, max_value=0.999),
                       st.floats(min_value=1.001, max_value=3.0),
                       st.floats(min_value=-3.0, max_value=-1.001)))
    spec = make_spec(a, 2.0 * symmetrise(make_spec(a, 1.0, c, n)).s * x, c, n)
    k = draw(st.integers(min_value=-450, max_value=450))
    f = 2.0**k
    scaled = make_spec(a * f, spec.b * f, c * f, n)
    return spec, scaled


def _statuses(spec):
    return [(ch["name"], ch["status"]) for ch in verify_checks(spec, 1e-12)
            if ch["name"] != "repunit"]


@settings(max_examples=40)  # two verify runs per example: about 0.3 s
@given(_scaled_pair())
def test_verify_gives_a_spec_times_2_to_the_k_the_same_verdicts(pair):
    spec, scaled = pair
    assume(spec.b == 0.0 or abs(spec.b) >= 2.0**-1022 * 2.0**450)
    s = symmetrise(spec).s
    lam = np.abs(np.linalg.eigvalsh(dense_from_spec(make_spec(s, spec.b, s, spec.n))))
    assume(spec.n * 2.0**-52 * (abs(spec.b) + 2.0 * s) < 1e-11 * np.min(lam))
    assert _statuses(scaled) == _statuses(spec)
