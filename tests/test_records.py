"""The API of the package's frozen records, one table over all ten.

Each record is a frozen dataclass: its fields (names and order), its
constructor by position and by keyword, ``replace`` (which validates as the
constructor does), ``asdict``, the refusal of assignment and deletion,
``repr``, ``==``, ``hash``, pickling and copying are pinned here, whatever
``__init__`` the class carries.
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import numpy as np
import pytest

from tritoep import (ZeroOffDiagonal, decay_envelope, eigen_pair, extremal_eigenvalues,
                     make_spec, repunit, repunit_inverse_entry, symmetrise, weighted_condition)
from tritoep.cheby import ScaledValue
from tritoep.conditioning import ConditionReport
from tritoep.core import SymmetrisedForm, TriToeplitzSpec
from tritoep.decay import DecayEnvelope
from tritoep.greens import GreenKernel, build_kernel
from tritoep.repunit import RepunitInverseEntry, RepunitValue
from tritoep.spectral import EigenPair, SpectrumSummary, determinant

# how == and hash behave: "value" compares and hashes the fields, "array"
# compares them but holds an unhashable array, "identity" is object identity
RECORDS = {
    "TriToeplitzSpec": (TriToeplitzSpec, lambda: make_spec(1.0, 2.5, 3.0, 5),
                        ("a", "b", "c", "n"), "value",
                        "TriToeplitzSpec(a=1.0, b=2.5, c=3.0, n=5)"),
    "SymmetrisedForm": (SymmetrisedForm, lambda: symmetrise(make_spec(4.0, 5.0, 1.0, 3)),
                        ("s", "q", "x", "n"), "value",
                        "SymmetrisedForm(s=2.0, q=2.0, x=1.25, n=3)"),
    "ScaledValue": (ScaledValue, lambda: determinant(make_spec(1.0, 2.5, 1.0, 4)),
                    ("sign", "log_mag"), "value",
                    "ScaledValue(sign=1, log_mag=3.0592937550437354)"),
    "EigenPair": (EigenPair, lambda: eigen_pair(make_spec(1.0, 2.0, 1.0, 3), 2),
                  ("k", "theta", "value", "right_vector", "symmetric_vector"), "array",
                  "EigenPair(k=2, theta=1.5707963267948966, value=2.0, right_vector=array("),
    "SpectrumSummary": (SpectrumSummary,
                        lambda: extremal_eigenvalues(make_spec(1.0, 2.0, 1.0, 3)),
                        ("lambda_min", "lambda_max", "positive_definite"), "value",
                        "SpectrumSummary(lambda_min=0.5857864376269049, "
                        "lambda_max=3.414213562373095, positive_definite=True)"),
    "ConditionReport": (ConditionReport, lambda: weighted_condition(make_spec(1.0, 0.0, 1.0, 4)),
                        ("lambda_max", "lambda_min", "positive_definite", "cond_weighted",
                         "formula_value"), "value",
                        "ConditionReport(lambda_max=1.618033988749895, "
                        "lambda_min=-1.618033988749895, positive_definite=False, "
                        "cond_weighted=2.618033988749896, formula_value=None)"),
    "DecayEnvelope": (DecayEnvelope, lambda: decay_envelope(make_spec(1.0, 5.0, 1.0, 4)),
                      ("eta", "prefactor"), "value",
                      "DecayEnvelope(eta=4.7912878474779195, prefactor=0.4364357804719847)"),
    "RepunitValue": (RepunitValue, lambda: repunit(3, 2), ("d", "m", "exact_value", "float_value"),
                     "value", "RepunitValue(d=2.0, m=3, exact_value=7, float_value=7.0)"),
    "RepunitInverseEntry": (RepunitInverseEntry, lambda: repunit_inverse_entry(2, 3, 1, 2),
                            ("i", "j", "sign", "rational_part", "float_value"), "value",
                            "RepunitInverseEntry(i=1, j=2, sign=-1, rational_part=Fraction(1, 5), "
                            "float_value=-0.2)"),
    "GreenKernel": (GreenKernel, lambda: build_kernel(make_spec(1.0, 2.5, 1.0, 4)),
                    ("n", "s", "q", "x", "v", "gamma", "wronskian", "invertible",
                     "wronskian_residual", "singular_tol"), "identity",
                    "GreenKernel(n=4, s=1.0, q=1.0, x=1.25, v=array([0.        , 1.        , "),
}
NAMES = list(RECORDS)


def _values(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _same(x, y) -> bool:
    """Field by field: arrays by dtype and bits, records recursively, the rest by ==."""
    if isinstance(x, np.ndarray):
        return (type(y) is np.ndarray and x.dtype == y.dtype and x.shape == y.shape
                and x.tobytes() == y.tobytes())
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(map(_same, _values(x), _values(y)))
    return type(x) is type(y) and x == y


@pytest.mark.parametrize("name", NAMES)
class TestRecord:
    def test_is_a_frozen_dataclass_with_its_fields_in_order(self, name):
        cls, make, names, _, _ = RECORDS[name]
        record = make()
        assert type(record) is cls and cls.__name__ == name
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert all(f.init for f in dataclasses.fields(cls))
        assert cls.__dataclass_params__.frozen
        assert cls.__match_args__ == names

    def test_constructor_takes_each_field_by_position_or_keyword(self, name):
        cls, make, names, _, _ = RECORDS[name]
        params = inspect.signature(cls).parameters
        assert tuple(params) == names
        assert all(p.default is inspect.Parameter.empty for p in params.values())
        record = make()
        values = _values(record)
        assert _same(cls(*values), record)
        assert _same(cls(**dict(zip(names, values))), record)
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, extra=1)

    def test_replace(self, name):
        cls, make, names, _, _ = RECORDS[name]
        record = make()
        assert _same(dataclasses.replace(record), record)
        last = names[-1]
        changed = dataclasses.replace(record, **{last: getattr(record, last)})
        assert changed is not record and _same(changed, record)

    def test_asdict(self, name):
        cls, make, names, _, _ = RECORDS[name]
        record = make()
        got = dataclasses.asdict(record)
        assert list(got) == list(names)
        for field, value in zip(names, _values(record)):
            if dataclasses.is_dataclass(value):
                assert got[field] == dataclasses.asdict(value)
            elif isinstance(value, np.ndarray):
                assert got[field] is not value and _same(got[field], value)
            else:
                assert got[field] == value

    def test_assignment_and_deletion_refused(self, name):
        cls, make, names, _, _ = RECORDS[name]
        record = make()
        before = _values(record)
        for field in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.unknown = 0
        assert all(map(_same, _values(record), before))

    def test_repr(self, name):
        cls, make, names, _, pinned = RECORDS[name]
        record = make()
        text = repr(record)
        assert text.startswith(pinned)
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(names, _values(record)))
        assert text == f"{name}({shown})"

    def test_equality_and_hash(self, name):
        cls, make, names, eq, _ = RECORDS[name]
        record, twin = make(), make()
        shallow = copy.copy(record)
        if eq == "identity":
            assert record == record and record != shallow and record != twin
            assert hash(record) == object.__hash__(record)
            return
        assert record == shallow and not record != shallow
        assert record != (*_values(record),)
        if eq == "array":
            # the fields compare as a tuple: equal arrays that are not the same object
            # compare elementwise, and the record has no hash
            with pytest.raises(ValueError):
                record == twin  # noqa: B015
            with pytest.raises(TypeError):
                hash(record)
            return
        assert record == twin and hash(record) == hash(twin) == hash((*_values(record),))
        assert {record, twin, shallow} == {record}

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_round_trip(self, name, how):
        cls, make, names, _, _ = RECORDS[name]
        record = make()
        other = {"pickle": lambda r: pickle.loads(pickle.dumps(r)),
                 "copy": copy.copy, "deepcopy": copy.deepcopy}[how](record)
        assert type(other) is cls and other is not record and _same(other, record)
        assert list(vars(other)) == list(names)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(other, names[0], 0)


def test_spec_replace_validates_as_make_spec_does():
    spec = make_spec(1.0, 2.5, 3.0, 5)
    with pytest.raises(ZeroOffDiagonal):
        dataclasses.replace(spec, a=0.0)
    with pytest.raises(ZeroOffDiagonal):
        dataclasses.replace(spec, c=-0.0)
    got = dataclasses.replace(spec, b=np.float32(0.5), n=np.int64(7))
    assert got == make_spec(1.0, 0.5, 3.0, 7)
    assert type(got.b) is float and type(got.n) is int


def test_records_with_a_record_or_a_fraction_inside():
    kernel = RECORDS["GreenKernel"][1]()
    assert type(kernel.wronskian) is ScaledValue
    assert dataclasses.asdict(kernel)["wronskian"] == {"sign": 1, "log_mag": kernel.wronskian.log_mag}
    entry = RECORDS["RepunitInverseEntry"][1]()
    assert entry.rational_part == Fraction(1, 5) and entry.value == Fraction(-1, 5)
