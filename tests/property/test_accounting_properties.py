"""Property test: the bucket arithmetic of both breakdowns is bit-exact.

:class:`~repro.energy.accounting.EnergyBreakdown` and
:class:`~repro.energy.accounting.TimeBreakdown` walk their buckets
through the module-level :data:`~repro.energy.accounting.BUCKETS` tuple.
The reference below walks them through ``dataclasses.fields()``. For any
bucket values, ``total``, ``as_dict``, ``add``, ``+``, ``copy``,
``fractions`` and ``validate`` must agree with it bit for bit — down to
the sign of a zero. ``total`` in particular must stay ``sum()`` in field
order: from Python 3.12 ``sum()`` of floats is compensated, so any other
summation changes last bits (the explicit example is such a case).
"""

import dataclasses
import struct

import pytest
from hypothesis import example, given, strategies as st

from repro.energy.accounting import BUCKETS, EnergyBreakdown, TimeBreakdown
from repro.errors import SimulationError

CLASSES = (EnergyBreakdown, TimeBreakdown)
UNIT = {EnergyBreakdown: "energy", TimeBreakdown: "time"}


# --- the dataclasses.fields() reference ------------------------------------

def ref_total(breakdown):
    return sum(getattr(breakdown, f.name)
               for f in dataclasses.fields(breakdown))


def ref_as_dict(breakdown):
    out = {f.name: getattr(breakdown, f.name)
           for f in dataclasses.fields(breakdown)}
    out["total"] = ref_total(breakdown)
    return out


def ref_add(target, other):
    for f in dataclasses.fields(target):
        setattr(target, f.name,
                getattr(target, f.name) + getattr(other, f.name))


def ref_copy(breakdown):
    return type(breakdown)(**{f.name: getattr(breakdown, f.name)
                              for f in dataclasses.fields(breakdown)})


def ref_fractions(breakdown):
    total = ref_total(breakdown)
    if total <= 0:
        return {}
    return {f.name: getattr(breakdown, f.name) / total
            for f in dataclasses.fields(breakdown)}


def ref_validate(breakdown, unit):
    for f in dataclasses.fields(breakdown):
        value = getattr(breakdown, f.name)
        if value < -1e-9 * max(1.0, abs(ref_total(breakdown))):
            raise SimulationError(f"negative {unit} bucket {f.name}={value!r}")


# --- bit-exact comparison ----------------------------------------------------

def bits(value):
    return struct.pack("<d", value)


def assert_same(actual, expected):
    if isinstance(expected, dict):
        assert list(actual) == list(expected)
        for key in expected:
            assert bits(actual[key]) == bits(expected[key]), key
    elif dataclasses.is_dataclass(expected):
        assert type(actual) is type(expected)
        assert_same(dataclasses.asdict(actual), dataclasses.asdict(expected))
    else:
        assert bits(actual) == bits(expected)


def validate_outcome(check, *args):
    try:
        check(*args)
    except SimulationError as exc:
        return str(exc)
    return None


# --- the properties -------------------------------------------------------

def test_buckets_are_the_fields_in_order():
    for cls in CLASSES:
        assert tuple(f.name for f in dataclasses.fields(cls)) == BUCKETS


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(**{name: finite for name in BUCKETS})
@example(serving_dma=1e16, serving_proc=1.0, idle_dma=-1e16,
         idle_threshold=0.0, transition=0.0, low_power=0.0, migration=0.0)
@pytest.mark.parametrize("cls", CLASSES)
def test_bucket_arithmetic_matches_the_reflection_reference(cls, **values):
    breakdown = cls(**values)
    other = cls(*reversed([values[name] for name in BUCKETS]))

    assert_same(breakdown.total, ref_total(breakdown))
    assert_same(breakdown.as_dict(), ref_as_dict(breakdown))
    assert_same(breakdown.copy(), ref_copy(breakdown))
    assert breakdown.copy() is not breakdown
    if cls is EnergyBreakdown:
        assert_same(breakdown.fractions(), ref_fractions(breakdown))
    assert (validate_outcome(breakdown.validate)
            == validate_outcome(ref_validate, breakdown, UNIT[cls]))

    expected = cls()
    ref_add(expected, breakdown)
    ref_add(expected, other)
    assert_same(breakdown + other, expected)

    summed, expected = breakdown.copy(), ref_copy(breakdown)
    summed.add(other)
    ref_add(expected, other)
    assert_same(summed, expected)
