"""Property tests for the max-min fair allocator, the chip-capacity
allocation built on it, and the stream drain that feeds it."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.io.dma import (FluidStream, StreamKind, allocate_chip_capacity,
                          water_fill)

demands_strategy = st.lists(
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    min_size=0, max_size=12)
capacity_strategy = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@given(demands_strategy, capacity_strategy)
def test_grants_never_exceed_demand(demands, capacity):
    grants = water_fill(demands, capacity)
    for grant, demand in zip(grants, demands):
        assert grant <= demand + 1e-9


@given(demands_strategy, capacity_strategy)
def test_total_never_exceeds_capacity(demands, capacity):
    grants = water_fill(demands, capacity)
    assert sum(grants) <= max(capacity, 0.0) + 1e-9


@given(demands_strategy, capacity_strategy)
def test_work_conserving(demands, capacity):
    """Either all demand is met or all capacity is used."""
    grants = water_fill(demands, capacity)
    total_demand = sum(demands)
    if capacity > 0 and demands:
        assert (sum(grants) >= min(total_demand, capacity) - 1e-9)


@given(demands_strategy, capacity_strategy)
def test_grants_non_negative(demands, capacity):
    assert all(g >= 0.0 for g in water_fill(demands, capacity))


@given(demands_strategy, capacity_strategy)
def test_max_min_fairness(demands, capacity):
    """No grant can be raised without lowering a smaller-or-equal one:
    every unsatisfied stream gets at least as much as any other grant."""
    grants = water_fill(demands, capacity)
    unsatisfied = [g for g, d in zip(grants, demands) if g < d - 1e-9]
    if unsatisfied:
        floor = min(unsatisfied)
        assert all(g <= floor + 1e-9 for g in grants)


@given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1,
                max_size=8), capacity_strategy)
def test_permutation_invariant(demands, capacity):
    """Reordering the streams must not change anyone's grant."""
    grants = water_fill(demands, capacity)
    reversed_grants = water_fill(list(reversed(demands)), capacity)
    assert all(abs(a - b) < 1e-9
               for a, b in zip(grants, reversed(reversed_grants)))


# ---------------------------------------------------------------------------
# Bit equality with the reference implementations the fast paths replace
# ---------------------------------------------------------------------------

def _same_float(a: float, b: float) -> bool:
    """``==`` on floats, with the sign of zero compared too."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def reference_allocate(streams: list[FluidStream]) -> None:
    """Three filters over all streams, one per priority class."""
    capacity = 1.0
    for kind in (StreamKind.PROC, StreamKind.DMA, StreamKind.MIGRATION):
        group = [s for s in streams if s.kind is kind and not s.done]
        if not group:
            continue
        grants = water_fill([s.demand for s in group], capacity)
        for stream, grant in zip(group, grants):
            stream.granted = grant
        capacity = max(0.0, capacity - sum(grants))
    for stream in streams:
        if stream.done:
            stream.granted = 0.0


def reference_sync(stream: FluidStream, now: float) -> None:
    """The ``max(0.0, x)`` formulation of :meth:`FluidStream.sync`."""
    if now < stream.last_sync - 1e-9:
        raise SimulationError("stream time moved backwards")
    elapsed = max(0.0, now - stream.last_sync)
    if not stream.done and stream.is_dma:
        stream.extra_service_cycles += elapsed * max(
            0.0, stream.demand - stream.granted)
    stream.remaining_work = max(
        0.0, stream.remaining_work - elapsed * stream.granted)
    stream.last_sync = now


_kinds = st.sampled_from(list(StreamKind))
_demands = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
_stream_specs = st.lists(
    st.tuples(_kinds, _demands, st.booleans(),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=0, max_size=10)


def _build(specs) -> list[FluidStream]:
    streams = []
    for index, (kind, demand, done, granted) in enumerate(specs):
        stream = FluidStream(kind=kind, chip_id=0, total_work=4096.0,
                             demand=demand, stream_id=index,
                             bus_id=index % 3 if kind is StreamKind.DMA
                             else None)
        stream.granted = granted
        if done:
            stream.remaining_work = 0.0
        streams.append(stream)
    return streams


@given(_stream_specs)
@settings(max_examples=300)
@example([(StreamKind.DMA, 1 / 3, False, 0.0)] * 4
         + [(StreamKind.PROC, 0.5, False, 0.0),
            (StreamKind.MIGRATION, 1.0, False, 0.0)])
@example([(StreamKind.DMA, 1 / 3, False, 0.0),
          (StreamKind.DMA, 1 / 3, True, 0.7),
          (StreamKind.MIGRATION, 1.0, True, 0.2)])
def test_allocate_matches_three_filter_reference(specs):
    """Grants equal the three-filter loop's bit for bit, with demand
    totals above and below capacity and done streams mixed in; the
    returned groups hold every stream of their class in input order."""
    fast, reference = _build(specs), _build(specs)
    groups = allocate_chip_capacity(fast)
    reference_allocate(reference)
    for a, b in zip(fast, reference):
        assert _same_float(a.granted, b.granted)
    for kind, group in zip(
            (StreamKind.PROC, StreamKind.DMA, StreamKind.MIGRATION), groups):
        assert group == [s for s in fast if s.kind is kind]


@given(st.sampled_from(list(StreamKind)),
       st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=5000.0),
       st.floats(min_value=0.0, max_value=1e6),
       st.one_of(st.just(0.0), st.floats(min_value=-1e-9, max_value=0.0),
                 st.floats(min_value=0.0, max_value=1e5)),
       st.booleans())
@settings(max_examples=300)
@example(StreamKind.DMA, 1 / 3, 1 / 3, 10.0, 100.0, 0.0, False)
@example(StreamKind.DMA, 0.25, 0.5, 10.0, 100.0, -1e-9, False)
@example(StreamKind.DMA, 1 / 3, 0.0, 0.0, 100.0, 50.0, True)
def test_sync_matches_max_reference(kind, demand, granted, work, last,
                                    step, done):
    """:meth:`FluidStream.sync` returns the ``max(0.0, x)`` formula's
    floats, zero signs included: at ``now == last_sync``, up to 1e-9
    before it, past it, and for done streams."""
    def make():
        stream = FluidStream(kind=kind, chip_id=0, total_work=4096.0,
                             demand=demand, stream_id=0,
                             bus_id=0 if kind is StreamKind.DMA else None,
                             release_time=last)
        stream.granted = granted
        stream.remaining_work = 0.0 if done else work
        return stream

    fast, reference = make(), make()
    now = last + step
    fast.sync(now)
    reference_sync(reference, now)
    for name in ("remaining_work", "extra_service_cycles", "last_sync"):
        assert _same_float(getattr(fast, name), getattr(reference, name))
