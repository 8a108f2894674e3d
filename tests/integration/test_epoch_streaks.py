"""Fluid DMA-TA epoch streaks: ticks run inline give the same run.

A fluid epoch tick that releases nothing runs the next tick in the same
handler call while that tick would pop before every queued event. A
``DigestRecorder`` at the epoch cadence queues a probe at every tick, so
an observed run pops each tick as its own event; the two runs must agree
exactly.
"""

import pytest

from repro import simulate
from repro.obs.diff import DigestRecorder
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
def test_streaks_match_one_event_per_tick(trace, epoch_pops, technique):
    streaked = simulate(trace, technique=technique, mu=50.0)
    streak_pops, epoch_pops[0] = epoch_pops[0], 0
    observed = simulate(trace, technique=technique, mu=50.0,
                        digests=DigestRecorder())
    ticks = streaked.metrics.counters["sim.epochs"]
    assert streaked.controller_stats["transfers_buffered"] > 0
    assert streak_pops < ticks / 2  # most ticks ran inline
    assert epoch_pops[0] == ticks  # every tick its own event
    assert outputs(streaked) == outputs(observed)


def test_baseline_runs_no_epochs(trace):
    assert "sim.epochs" not in simulate(trace).metrics.counters
