"""Property tests for the fluid chip's accrual invariants."""

import math
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy.policies import default_dynamic_policy
from repro.energy.rdram import rdram_1600_model
from repro.memory.chip import ChipRates, FluidChip

MODEL = rdram_1600_model()
POLICY = default_dynamic_policy(MODEL)

times_strategy = st.lists(
    st.floats(min_value=0.1, max_value=100_000.0, allow_nan=False),
    min_size=1, max_size=20)


@given(times_strategy)
@settings(max_examples=60)
def test_piecewise_advance_equals_single_advance(deltas):
    """Accrual must not depend on how the timeline is chopped up."""
    times = []
    t = 0.0
    for delta in deltas:
        t += delta
        times.append(t)
    whole = FluidChip(0, MODEL, POLICY, start_asleep=False)
    whole.advance(times[-1])
    pieces = FluidChip(0, MODEL, POLICY, start_asleep=False)
    for moment in times:
        pieces.advance(moment)
    assert pieces.energy.total == pytest.approx(whole.energy.total,
                                                rel=1e-9, abs=1e-15)
    assert pieces.time.total == pytest.approx(whole.time.total, rel=1e-9)


@given(times_strategy)
@settings(max_examples=60)
def test_time_buckets_cover_elapsed_time(deltas):
    chip = FluidChip(0, MODEL, POLICY, start_asleep=False)
    t = 0.0
    for delta in deltas:
        t += delta
        chip.advance(t)
    assert chip.time.total == pytest.approx(t, rel=1e-9)


@given(st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=40)
def test_energy_bounded_by_active_power(duration):
    """No state draws more than ACTIVE power, so total energy is bounded
    by P_active * t (plus transition overshoot, which is also below
    active power in Table 1)."""
    chip = FluidChip(0, MODEL, POLICY, start_asleep=False)
    chip.advance(duration)
    bound = MODEL.active_power * duration / MODEL.frequency_hz
    assert chip.energy.total <= bound * (1 + 1e-9)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=60)
def test_busy_accrual_conserves_time(dma, proc, duration):
    if dma + proc > 1.0:
        return
    chip = FluidChip(0, MODEL, POLICY, start_asleep=False)
    chip.set_busy(0.0, has_dma_stream=dma > 0,
                  rates=ChipRates(dma=dma, proc=proc))
    chip.advance(duration)
    assert chip.time.total == pytest.approx(duration, rel=1e-9)
    assert chip.time.serving_dma == pytest.approx(duration * dma, rel=1e-9)


@given(st.floats(min_value=0.0, max_value=2e6))
@settings(max_examples=60)
def test_wake_is_idempotent_and_monotone(moment):
    chip = FluidChip(0, MODEL, POLICY)
    chip.advance(moment)
    first = chip.wake(moment)
    assert first >= moment
    # A second wake during or at the end of the window is free.
    again = chip.wake(first)
    assert again == pytest.approx(first)
    assert chip.wake_count <= 1


class FullWalkChip(FluidChip):
    """The reference accrual: every idle span walks the whole profile
    with ``max``/``min``, and transition names are f-strings."""

    def _count_transition(self, source, target):
        edge = f"{source.value}->{target.value}"
        self.transition_counts[edge] = self.transition_counts.get(edge, 0) + 1

    def _accrue_idle(self, start, end):
        offset_start = start - self._idle_since
        offset_end = end - self._idle_since
        for segment in self._profile:
            lo = max(segment.start, offset_start)
            hi = min(segment.end, offset_end)
            if hi <= lo:
                continue
            cycles = hi - lo
            joules = segment.power_watts * cycles / self.model.frequency_hz
            if segment.bucket == "idle_threshold":
                self.time.idle_threshold += cycles
                self.energy.idle_threshold += joules
            elif segment.bucket == "transition":
                self.time.transition += cycles
                self.energy.transition += joules
                if segment.target is not None and lo < segment.end <= hi:
                    self._count_transition(segment.state, segment.target)
            else:
                self.time.low_power += cycles
                self.energy.low_power += joules
            if segment.end >= offset_end:
                break


_ops = st.lists(
    st.tuples(st.sampled_from(("advance", "wake", "busy", "idle")),
              st.one_of(st.just(0.0),
                        st.floats(min_value=0.0, max_value=50.0),
                        st.floats(min_value=0.0, max_value=2e6)),
              st.floats(min_value=0.0, max_value=0.6),
              st.floats(min_value=0.0, max_value=0.4)),
    min_size=1, max_size=25)


def _drive(chip, ops, final):
    now = 0.0
    for op, step, dma, proc in ops:
        now += step
        chip.advance(now)
        if op == "wake":
            chip.wake(now)
        elif op == "busy":
            chip.set_busy(now, dma > 0, ChipRates(dma=dma, proc=proc))
        elif op == "idle":
            chip.set_idle(now)
    chip.advance(now + final)
    return chip


def _bits(values):
    return [(value, math.copysign(1.0, value)) for value in values]


@given(_ops, st.floats(min_value=0.0, max_value=2e6), st.booleans())
@settings(max_examples=200)
def test_idle_accrual_matches_full_walk(ops, final, start_asleep):
    """Idle spans, wakes and busy spans accrue the full walk's floats
    bit for bit, and count the same transitions in the same order."""
    fast = _drive(FluidChip(0, MODEL, POLICY, start_asleep=start_asleep),
                  ops, final)
    reference = _drive(FullWalkChip(0, MODEL, POLICY,
                                    start_asleep=start_asleep), ops, final)
    assert _bits(astuple(fast.time)) == _bits(astuple(reference.time))
    assert _bits(astuple(fast.energy)) == _bits(astuple(reference.energy))
    assert (list(fast.transition_counts.items())
            == list(reference.transition_counts.items()))
    assert fast.wake_count == reference.wake_count
