"""Fluid DMA-TA epoch streaks: ticks run inline give the same run.

A fluid epoch tick that releases nothing lets the controller run the
next tick in the same call while that tick would pop before every queued
event. A run whose every ``settle_epochs`` call runs one tick pops each
tick as its own event; a ``DigestRecorder`` at the epoch cadence samples
between the inline ticks, and a traced run traces every one, so both
settle the same runs of ticks as the plain run. Each must agree exactly
with the plain run.
"""

import pytest

from repro import simulate
from repro.obs.diff import DigestRecorder
from repro.obs.tracer import RingTracer
from repro.sim.engine import EventKind, EventQueue
from repro.traces.oltp import oltp_storage_trace


@pytest.fixture(scope="module")
def trace():
    # 6 ms passes the first PL interval, and at mu=50 DMA-TA buffers
    # heads at most ticks.
    return oltp_storage_trace(duration_ms=6.0)


@pytest.fixture
def epoch_pops(monkeypatch):
    """Counts EPOCH events popped from any event queue."""
    popped = [0]
    pop = EventQueue.pop

    def counting_pop(self):
        event = pop(self)
        popped[0] += event[1] is EventKind.EPOCH
        return event

    monkeypatch.setattr(EventQueue, "pop", counting_pop)
    return popped


def outputs(result):
    return (result.energy.as_dict(), result.time.as_dict(),
            result.head_delay_cycles, result.extra_service_cycles,
            result.chip_energy, result.duration_cycles, result.migrations,
            result.controller_stats, result.metrics.counters["sim.epochs"])


@pytest.mark.parametrize("technique", ["dma-ta", "dma-ta-pl"])
def test_streaks_match_one_event_per_tick(trace, epoch_pops, settle_calls,
                                          technique):
    streaked = simulate(trace, technique=technique, mu=50.0)
    streak_pops, epoch_pops[0] = epoch_pops[0], 0
    plain_calls, settle_calls.count = settle_calls.count, 0
    observed = simulate(trace, technique=technique, mu=50.0,
                        digests=DigestRecorder())
    observed_calls = settle_calls.count
    settle_calls.one_tick, epoch_pops[0] = True, 0
    single = simulate(trace, technique=technique, mu=50.0)
    ticks = streaked.metrics.counters["sim.epochs"]
    assert streaked.controller_stats["transfers_buffered"] > 0
    assert streak_pops < ticks / 2  # most ticks ran inline
    assert epoch_pops[0] == ticks  # every tick its own event
    assert outputs(streaked) == outputs(single)
    assert observed_calls == plain_calls  # probes tick between ticks
    assert outputs(streaked) == outputs(observed)


def test_traced_run_settles_like_plain_run(trace, settle_calls):
    plain = simulate(trace, technique="dma-ta-pl", mu=50.0)
    plain_calls, settle_calls.count = settle_calls.count, 0
    tracer = RingTracer()
    traced = simulate(trace, technique="dma-ta-pl", mu=50.0, tracer=tracer)
    ticks = plain.metrics.counters["sim.epochs"]
    assert ticks >= 4 * plain_calls  # about 6 on this trace
    assert settle_calls.count == plain_calls
    assert sum(event.name == "pending_heads"
               for event in tracer.events) == ticks  # every tick traced
    assert outputs(plain) == outputs(traced)


def test_baseline_runs_no_epochs(trace):
    assert "sim.epochs" not in simulate(trace).metrics.counters
