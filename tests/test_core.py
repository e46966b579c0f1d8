import json
import math
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_symmetrisable_spec
from tritoep import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidOrder,
    InvalidParameter,
    NotSymmetrisable,
    TriToeplitzSpec,
    ZeroOffDiagonal,
    apply_matvec,
    make_spec,
    symmetrise,
    weight_vector,
    weighted_selfadjoint_residual,
)
from tritoep.cheby import _check_x
from tritoep.core import _check_int, _check_log_mags
from tritoep.oracle import dense_from_spec


class TestMakeSpec:
    def test_symmetrisable_flag(self):
        assert make_spec(1, 2, 1, 4).symmetrisable is True
        assert make_spec(-1, 0, 3, 2).symmetrisable is False
        assert make_spec(-1, 0, -2, 2).symmetrisable is True

    def test_zero_offdiagonal_rejected(self):
        with pytest.raises(ZeroOffDiagonal):
            make_spec(0, 1, 1, 2)
        with pytest.raises(ZeroOffDiagonal):
            make_spec(1, 1, 0.0, 2)

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidOrder):
            make_spec(1, 2, 1, 0)
        with pytest.raises(InvalidOrder):
            make_spec(1, 2, 1, -3)

    def test_direct_construction_validates_too(self):
        with pytest.raises(ZeroOffDiagonal):
            TriToeplitzSpec(0.0, 1.0, 1.0, 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", True])
    @pytest.mark.parametrize("field", ["a", "b", "c"])
    def test_coefficient_not_a_finite_real_rejected(self, field, value):
        coeffs = {"a": 1.0, "b": 2.0, "c": 1.0, field: value}
        with pytest.raises(InvalidParameter, match=f"^{field} must be"):
            make_spec(coeffs["a"], coeffs["b"], coeffs["c"], 3)

    def test_float_order_rejected(self):
        with pytest.raises(InvalidOrder):
            make_spec(1, 2, 1, 3.0)


class TestSymmetrise:
    def test_positive_offdiagonals(self):
        form = symmetrise(make_spec(4, 5, 1, 2))
        assert form.s == pytest.approx(2.0, rel=1e-15)
        assert form.q == pytest.approx(2.0, rel=1e-15)
        assert form.x == pytest.approx(1.25, rel=1e-15)

    def test_conjugation_gives_dense_symmetric(self):
        spec = make_spec(4, 5, 1, 2)
        form = symmetrise(spec)
        d = np.power(form.q, np.arange(spec.n))
        conj = dense_from_spec(spec) * np.outer(1.0 / d, d)
        np.testing.assert_allclose(conj, [[5.0, 2.0], [2.0, 5.0]], rtol=1e-14)

    def test_already_symmetric(self):
        form = symmetrise(make_spec(1, 7.5, 1, 6))
        assert form.s == 1.0
        assert form.q == 1.0
        assert form.x == pytest.approx(3.75)

    def test_negative_branch(self):
        form = symmetrise(make_spec(-1, 0, -2, 2))
        assert form.s == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert form.q == pytest.approx(-math.sqrt(2.0) / 2.0, rel=1e-15)
        assert form.x == 0.0
        assert form.q**2 == pytest.approx(0.5, rel=1e-14)
        assert -2.0 * form.q == pytest.approx(form.s, rel=1e-14)

    def test_not_symmetrisable(self):
        with pytest.raises(NotSymmetrisable):
            symmetrise(make_spec(-1, 0, 3, 2))

    @pytest.mark.parametrize("a, c, s, q", [
        # a*c overflows to inf, or underflows to 0 or to a subnormal
        (1e200, 1e200, 1e200, 1.0),
        (-1e200, -1e200, 1e200, -1.0),
        (1e-200, 1e-200, 1e-200, 1.0),
        (4e-160, 1e-160, 2e-160, 2.0),
    ])
    def test_product_outside_the_normal_range(self, a, c, s, q):
        spec = make_spec(a, 1.0, c, 3)
        assert spec.symmetrisable
        form = symmetrise(spec)
        assert form.s == pytest.approx(s, rel=1e-15)
        assert form.q == pytest.approx(q, rel=1e-15)
        assert form.x == pytest.approx(0.5 / s, rel=1e-15)

    @pytest.mark.parametrize("a, b", [
        # 2s overflows from s = 2^1023 on, where x read 0; the last case is
        # below it, and the subnormal x is one rounding of b/(2s) throughout
        (1e308, 1.7e308), (-1e308, 1e-10), (2.0**1023, -1.0), (2.0**1022, 3e-300),
    ])
    def test_x_where_two_s_is_past_the_float_range(self, a, b):
        assert symmetrise(make_spec(a, b, a, 3)).x == float(Fraction(b) / (2 * Fraction(abs(a))))

    def test_signs_decide_symmetrisability(self):
        # a*c underflows to -0.0: still refused
        spec = make_spec(1e-200, 1.0, -1e-200, 3)
        assert not spec.symmetrisable
        with pytest.raises(NotSymmetrisable):
            symmetrise(spec)


class TestWeightVector:
    def test_examples(self):
        np.testing.assert_allclose(
            weight_vector(make_spec(4, 5, 1, 3)), [1.0, 0.25, 0.0625], rtol=1e-14
        )
        np.testing.assert_allclose(weight_vector(make_spec(1, 2, 1, 3)), np.ones(3))
        np.testing.assert_allclose(
            weight_vector(make_spec(-1, 0, -2, 2)), [1.0, 2.0], rtol=1e-14
        )

    def test_overflow_refused(self):
        # q = 0.1 and n = 201: w_n = 1e400 leaves the float range
        spec = make_spec(1, 2, 100, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^weight w_n has log-magnitude 921"):
                weight_vector(spec)
            with pytest.raises(OverflowError, match="^weight w_n has log-magnitude"):
                weighted_selfadjoint_residual(spec)

    def test_underflow_to_zero(self):
        # q = 10 and n = 201: w_j = 1e-2(j-1) rounds to 0.0 from w_163 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = weight_vector(make_spec(100, 2, 1, 201))
        assert w[0] == 1.0 and w[-1] == 0.0 and np.all(w >= 0.0)

    def test_first_entry_is_one_and_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = weight_vector(random_symmetrisable_spec(rng, n_max=30))
            assert w[0] == 1.0
            assert np.all(w > 0)


class TestApplyMatvec:
    def test_examples(self):
        np.testing.assert_allclose(
            apply_matvec(make_spec(1, 2, 1, 2), [1.0, 0.0]), [2.0, 1.0]
        )
        np.testing.assert_allclose(
            apply_matvec(make_spec(1, 0, 1, 3), np.ones(3)), [1.0, 2.0, 1.0]
        )
        np.testing.assert_allclose(apply_matvec(make_spec(5, 7, 3, 1), [2.0]), [14.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_matvec(make_spec(1, 2, 1, 3), [1.0, 2.0])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            spec = random_symmetrisable_spec(rng, n_max=100)
            v = rng.standard_normal(spec.n)
            got = apply_matvec(spec, v)
            want = dense_from_spec(spec) @ v
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_finite_product_near_the_float_range(self):
        # 2.5 * 8e307 overflows, the product (1.2e308, 1.2e308) does not
        got = apply_matvec(make_spec(-1, 2.5, -1, 2), [8e307, 8e307])
        np.testing.assert_array_equal(got, [1.5 * 8e307, 1.5 * 8e307])

    def test_product_past_the_float_range_refused(self):
        # rows 2 and 3 are 3.3e308 and 2.8e308: the larger is named
        with pytest.raises(OverflowError, match=r"^product entry \(2,1\) has log-magnitude 710.39,"):
            apply_matvec(make_spec(1, 2.5, 1.5, 3), [1e307, 8e307, 8e307])

    def test_finite_entry_of_an_overflowing_term_keeps_its_bits(self):
        # row 2 is 1.7e308 - 1.995e308: c v_3 alone is past the float range.
        # Taken again on v / 2^1026, v_3 = -(1.5 + 2^-49) became a subnormal
        # that lost its last bit, and row 2 was 42.6 of its ulps off
        # (5.8e-16 of its terms' magnitudes, past 3u)
        a, b, c = 1.7, 1.0, 1.33e308
        v = [1e308, 1e-300, -(1.5 + 2.0**-49)]
        got = apply_matvec(make_spec(a, b, c, 3), v)
        fa, fb, fc, *fv = map(Fraction, (a, b, c, *v))
        rows = [(fb * fv[0], fc * fv[1]), (fa * fv[0], fb * fv[1], fc * fv[2]),
                (fa * fv[1], fb * fv[2])]
        for g, terms in zip(got, rows):
            assert abs(Fraction(g) - sum(terms)) <= _GAMMA3 * sum(map(abs, terms))


_U = Fraction(1, 2**53)
_GAMMA3 = 3 * _U / (1 - 3 * _U)


def _any_float(mant_exp):
    # a float of either sign, any binary exponent and a full significand
    return math.ldexp(*mant_exp)


_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.max, -sys.float_info.max]),
    st.tuples(st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
              st.integers(-1074, 1023)).map(_any_float),
    st.floats(allow_nan=False, allow_infinity=False))


@given(_FINITE.filter(bool), _FINITE, _FINITE.filter(bool), st.lists(_FINITE, min_size=1,
                                                                    max_size=40))
def test_matvec_against_the_exact_product(a, b, c, v):
    # entrywise, as the docstring states: each entry within 3u/(1 - 3u) of the
    # magnitudes of its three terms, plus three subnormal steps, of the exact
    # Fraction product; or OverflowError where an exact entry is at the edge
    # of the float range or past it
    n = len(v)
    ex = [Fraction(0), *map(Fraction, v), Fraction(0)]
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
    exact = [fa * ex[j - 1] + fb * ex[j] + fc * ex[j + 1] for j in range(1, n + 1)]
    mags = [abs(fa * ex[j - 1]) + abs(fb * ex[j]) + abs(fc * ex[j + 1]) for j in range(1, n + 1)]
    try:
        got = apply_matvec(make_spec(a, b, c, n), v)
    except OverflowError:
        assert max(map(abs, exact)) > Fraction(sys.float_info.max) * (1 - 4 * _U)
        return
    assert np.isfinite(got).all()
    for g, e, m in zip(got, exact, mags):
        assert abs(Fraction(g) - e) <= _GAMMA3 * m + Fraction(3, 2**1074)


class TestWeightedSelfAdjointness:
    def test_symmetric_case_exact_zero(self):
        assert weighted_selfadjoint_residual(make_spec(1, 2, 1, 3)) == 0.0

    def test_examples_small(self):
        assert weighted_selfadjoint_residual(make_spec(4, 5, 1, 3)) <= 1e-12
        assert weighted_selfadjoint_residual(make_spec(-1, 0, -2, 2)) <= 1e-12

    def test_not_symmetrisable(self):
        with pytest.raises(NotSymmetrisable):
            weighted_selfadjoint_residual(make_spec(1, 2, -1, 3))

    def test_term_overflow_refused(self):
        # q = 0.1 and n = 155: w_n = 1e308 is finite, but a*w_n = 1e309 is not
        spec = make_spec(10, 2, 1000, 155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weight_vector(spec)[-1] == pytest.approx(1e308, rel=1e-12)
            with pytest.raises(OverflowError, match=r"^term c\*w_\(n-1\) has log-magnitude 711"):
                weighted_selfadjoint_residual(spec)

    def test_order_one(self):
        # no off-diagonal, so no residual; symmetrisability is still required
        assert weighted_selfadjoint_residual(make_spec(4, 5, 1, 1)) == 0.0
        with pytest.raises(NotSymmetrisable):
            weighted_selfadjoint_residual(make_spec(1, 2, -1, 1))

    def test_cross_ratio_identity(self):
        # a * w_{i+1} = c * w_i row by row
        rng = np.random.default_rng(3)
        for _ in range(30):
            spec = random_symmetrisable_spec(rng, n_max=60)
            w = weight_vector(spec)
            lhs = spec.a * w[1:]
            rhs = spec.c * w[:-1]
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_symmetrisation_consistency_random():
    # conjugating the dense matrix by diag(q^(j-1)) lands on the dense
    # symmetric Toeplitz with off-diagonal s, including the q < 0 branch
    rng = np.random.default_rng(2024)
    for _ in range(50):
        spec = random_symmetrisable_spec(rng, n_max=50)
        form = symmetrise(spec)
        d = np.power(form.q, np.arange(spec.n, dtype=float))
        conj = dense_from_spec(spec) * np.outer(1.0 / d, d)
        sym = dense_from_spec(make_spec(form.s, spec.b, form.s, spec.n))
        scale = max(abs(spec.b), form.s)
        assert np.max(np.abs(conj - sym)) <= 1e-12 * scale


def test_residual_contract_scales_with_weights():
    rng = np.random.default_rng(5)
    for _ in range(30):
        spec = random_symmetrisable_spec(rng, n_max=40)
        w = weight_vector(spec)
        bound = 64 * np.finfo(float).eps * spec.row_scale() * float(np.max(w))
        assert weighted_selfadjoint_residual(spec) <= bound


def test_array_overflow_exit_names_the_largest_entry():
    log_mag = np.array([[0.0, 720.0], [-np.inf, np.nan], [800.0, 1.0]])
    with pytest.raises(OverflowError, match=r"^solution term \(3,1\) has log-magnitude 800, "):
        _check_log_mags(log_mag, "solution term")
    # entries marked as past the range are named even at the range's edge
    beyond = np.zeros(log_mag.shape, dtype=bool)
    beyond[0, 0] = True
    with pytest.raises(OverflowError, match=r"^entry \(1,1\) has log-magnitude 0, beyond"):
        _check_log_mags(log_mag, "entry", beyond)
    _check_log_mags(np.array([[709.0, -np.inf, np.nan]]), "solution term")


_SCALAR_TYPES = """
import json, sys
from fractions import Fraction
from tritoep import make_spec, repunit
from tritoep.core import _check_int

def verdicts(values):
    out = []
    for v in values:
        for f in (lambda: make_spec(v, 3, 1, 2), lambda: _check_int(v, "n", 1),
                  lambda: repunit(2, v)):
            try:
                f()
                out.append("ok")
            except ValueError as exc:
                out.append(type(exc).__name__)
    return out

plain = [True, "1", Fraction(1, 2), 2, 2.0]
before = ("numpy" in sys.modules, verdicts(plain))
import numpy as np
after = verdicts([*plain, np.float64(2.0), np.int64(2)])
print(json.dumps({"before": before, "after": after}))
"""


def test_numpy_scalars_accepted_before_and_after_numpy_loads():
    # the scalar paths run without numpy, and the type checks look it up
    # only once it is loaded: the same values are accepted and refused
    run = subprocess.run([sys.executable, "-c", _SCALAR_TYPES], capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    refused = ["InvalidParameter", "InvalidOrder", "InvalidBase"]
    plain = [*refused * 3, "ok", "ok", "ok", "ok", "InvalidOrder", "ok"]
    assert json.loads(run.stdout) == {
        "before": [False, plain],
        "after": [*plain, "ok", "InvalidOrder", "ok", "ok", "ok", "ok"],
    }


# The validators' verdicts over a grid of input types, pinned class and
# message.  Each row: label, value, verdict in a coefficient field (a, b
# or c), in the order n, from _check_int(v, "n", 1), from
# _check_int(v, "index", 1, 5, IndexOutOfRange) and from cheby._check_x.
# A verdict is None (accepted), "zero" (a finite zero: refused as an
# off-diagonal a or c, accepted as b) or (class, message), where {f} is
# the field's name, {r} repr(value) and {s} str(value).
_REAL = (InvalidParameter, "{f} must be a real number, got {r}")
_FINITE = (InvalidParameter, "{f} must be finite, got {r}")
_HUGE = (OverflowError, "int too large to convert to float")
_N_INT = (InvalidOrder, "order n must be an integer, got {r}")
_INT = (InvalidOrder, "n must be an integer, got {r}")
_INDEX = (IndexOutOfRange, "index must be an integer, got {r}")
_OUTSIDE = (IndexOutOfRange, "index {s} outside 1..5")
_X_NAN = (InvalidParameter, "Chebyshev argument x must be a number, got {r}")
_X_INF = (OverflowError, "Chebyshev argument x = {r} is beyond the float range")
_NOT_REAL = (TypeError, "must be real number, not {t}")
_PAST = (OverflowError, "{f} = {r} is beyond the float range")
_VALIDATOR_GRID = [
    ("bool", True, _REAL, _N_INT, _INT, _INDEX, None),
    ("np.bool_", np.bool_(True), _REAL, _N_INT, _INT, _INDEX, None),
    ("int", 2, None, None, None, None, None),
    ("int zero", 0, "zero", (InvalidOrder, "order n must be >= 1, got 0"),
     (InvalidOrder, "n must be >= 1, got 0"), (IndexOutOfRange, "index 0 outside 1..5"), None),
    ("int above hi", 7, None, None, None, _OUTSIDE, None),
    ("negative int", -3, None, (InvalidOrder, "order n must be >= 1, got -3"),
     (InvalidOrder, "n must be >= 1, got -3"), (IndexOutOfRange, "index -3 outside 1..5"), None),
    ("10**400", 10**400, _HUGE, None, None, _OUTSIDE, _HUGE),
    ("float", 2.5, None, _N_INT, _INT, _INDEX, None),
    ("integral float", 2.0, None, _N_INT, _INT, _INDEX, None),
    ("-0.0", -0.0, "zero", _N_INT, _INT, _INDEX, None),
    ("nan", math.nan, _FINITE, _N_INT, _INT, _INDEX, _X_NAN),
    ("inf", math.inf, _FINITE, _N_INT, _INT, _INDEX, _X_INF),
    ("-inf", -math.inf, _FINITE, _N_INT, _INT, _INDEX, _X_INF),
    ("np.float64", np.float64(2.5), None, _N_INT, _INT, _INDEX, None),
    ("np.float64 nan", np.float64(math.nan), _FINITE, _N_INT, _INT, _INDEX, _X_NAN),
    ("np.float64 inf", np.float64(math.inf), _FINITE, _N_INT, _INT, _INDEX, _X_INF),
    ("np.int64", np.int64(2), None, None, None, None, None),
    ("np.int64 above hi", np.int64(7), None, None, None, _OUTSIDE, None),
    ("Fraction", Fraction(1, 2), _REAL, _N_INT, _INT, _INDEX, None),
    ("Decimal", Decimal("1.5"), _REAL, _N_INT, _INT, _INDEX, None),
    ("str", "1", _REAL, _N_INT, _INT, _INDEX, _NOT_REAL),
    ("None", None, _REAL, _N_INT, _INT, _INDEX, _NOT_REAL),
]
if np.finfo(np.longdouble).maxexp > np.finfo(float).maxexp:
    # a spec is checked on the floats it stores: a nonzero longdouble that
    # rounds to 0.0, and a finite one past the float range
    _VALIDATOR_GRID += [
        ("longdouble below the floats", np.longdouble(2.0)**-1100, "zero", _N_INT, _INT, _INDEX,
         None),
        ("longdouble past the floats", np.longdouble(10)**331, _PAST, _N_INT, _INT, _INDEX,
         _X_INF),
    ]
_GRID = {row[0]: row for row in _VALIDATOR_GRID}
_GRID_IDS = list(_GRID)
_GOOD = {"a": 1.5, "b": 2.5, "c": 0.5, "n": 3}


def _verdict(call):
    try:
        return call()
    except Exception as exc:  # the verdict under test is the exception itself
        return type(exc), str(exc)


def _expected(verdict, value, field="n"):
    if verdict in (None, "zero"):
        return verdict
    cls, message = verdict
    return cls, message.format(f=field, r=repr(value), s=str(value), t=type(value).__name__)


def _spec_verdict(fields):
    """The expected verdict of a spec: a, b, c in order (real, then finite),
    then a zero off-diagonal, then n."""
    rows = {f: _GRID[label] for f, label in fields.items()}
    for f in "abc":
        if f in rows and rows[f][2] not in (None, "zero"):
            return _expected(rows[f][2], rows[f][1], f)
    if any(f in rows and rows[f][2] == "zero" for f in "ac"):
        return ZeroOffDiagonal, "off-diagonal entries a and c must be nonzero"
    if "n" in rows and rows["n"][3] is not None:
        return _expected(rows["n"][3], rows["n"][1])
    return None


_CONSTRUCTORS = (make_spec, TriToeplitzSpec,
                 lambda a, b, c, n: TriToeplitzSpec(a=a, b=b, c=c, n=n))


class TestValidatorGrid:
    @pytest.mark.parametrize("field", "abcn")
    @pytest.mark.parametrize("label", _GRID_IDS)
    def test_one_field(self, label, field):
        value = _GRID[label][1]
        expected = _spec_verdict({field: label})
        for construct in _CONSTRUCTORS:
            got = _verdict(lambda: construct(**{**_GOOD, field: value}))
            if expected is not None:
                assert got == expected
                continue
            assert isinstance(got, TriToeplitzSpec)
            assert type(got.a) is float and type(got.b) is float and type(got.c) is float
            assert type(got.n) is int
            if field == "n":
                assert got.n == value
            else:
                assert math.copysign(1.0, getattr(got, field)) == math.copysign(1.0, value)
                assert getattr(got, field) == float(value)

    @pytest.mark.parametrize("fields", ["ab", "ac", "bc", "an", "bn", "cn"])
    def test_two_fields_name_the_first_bad_one(self, fields):
        for first, second in [(x, y) for x in _GRID_IDS for y in _GRID_IDS]:
            labels = dict(zip(fields, (first, second)))
            values = {f: _GRID[lab][1] for f, lab in labels.items()}
            expected = _spec_verdict(labels)
            for construct in _CONSTRUCTORS:
                got = _verdict(lambda: construct(**{**_GOOD, **values}))
                if expected is None:
                    assert isinstance(got, TriToeplitzSpec), (labels, got)
                else:
                    assert got == expected, labels

    def test_pinned_combinations(self):
        assert _verdict(lambda: make_spec("x", math.nan, 0.0, 0)) == (
            InvalidParameter, "a must be a real number, got 'x'")
        assert _verdict(lambda: make_spec(0.0, math.nan, "x", 0)) == (
            InvalidParameter, "b must be finite, got nan")
        assert _verdict(lambda: make_spec(0.0, 1.0, None, 0)) == (
            InvalidParameter, "c must be a real number, got None")
        assert _verdict(lambda: make_spec(1.0, 1.0, -0.0, 0)) == (
            ZeroOffDiagonal, "off-diagonal entries a and c must be nonzero")
        assert _verdict(lambda: make_spec(10**400, math.inf, 1.0, 2)) == _HUGE
        assert _verdict(lambda: make_spec(1.0, 1.0, 1.0, True)) == (
            InvalidOrder, "order n must be an integer, got True")

    @pytest.mark.parametrize("value", [2, np.float64(2.5), np.int64(2), np.float32(0.5)])
    def test_fields_come_out_as_builtin_types(self, value):
        spec = make_spec(value, value, value, 2)
        assert (type(spec.a), type(spec.b), type(spec.c)) == (float, float, float)
        assert spec.a == spec.b == spec.c == float(value)
        for n in (2, np.int64(2), np.int32(2), np.uint8(2)):
            spec = make_spec(1.0, 2.0, 1.0, n)
            assert type(spec.n) is int and spec.n == 2

    @pytest.mark.parametrize("label", _GRID_IDS)
    def test_check_int(self, label):
        _, value, _, _, open_verdict, index_verdict, _ = _GRID[label]
        for got, verdict in ((_verdict(lambda: _check_int(value, "n", 1)), open_verdict),
                             (_verdict(lambda: _check_int(value, "index", 1, 5,
                                                          IndexOutOfRange)), index_verdict)):
            if verdict is None:
                assert type(got) is int and got == value
            else:
                assert got == _expected(verdict, value)

    def test_check_int_bounds(self):
        assert _verdict(lambda: _check_int(-1, "degree m", 0)) == (
            InvalidOrder, "degree m must be a nonnegative integer, got -1")
        assert _verdict(lambda: _check_int(np.int64(-1), "degree m", 0)) == (
            InvalidOrder, "degree m must be a nonnegative integer, got -1")
        assert _check_int(0, "degree m", 0) == 0
        assert _check_int(5, "index", 1, 5) == 5 and _check_int(1, "index", 1, 5) == 1
        assert _verdict(lambda: _check_int(6, "index", 1, 5)) == (
            InvalidOrder, "index 6 outside 1..5")
        assert _verdict(lambda: _check_int(3, "k", 4, 2)) == (InvalidOrder, "k 3 outside 4..2")
        big = 10**400
        assert _check_int(big, "n", 1) is big

    @pytest.mark.parametrize("label", _GRID_IDS)
    def test_check_x(self, label):
        _, value, *_, verdict = _GRID[label]
        assert _verdict(lambda: _check_x(value)) == _expected(verdict, value)
