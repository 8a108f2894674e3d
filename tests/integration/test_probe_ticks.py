"""Probe ticks outside the event heap.

Both engines tick their probes (telemetry, digests) in the run loop,
before the first event after each tick, and the fluid engine ticks them
between the DMA-TA epoch ticks it settles inline. A probe therefore
samples after every event of its instant, an observed run settles the
same runs of epoch ticks as its unobserved twin, and each probe keeps
its own cadence. The precise engine still takes the tick that falls
after its last event.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import simulate
from repro.config import SimulationConfig
from repro.obs.diff import DigestRecorder
from repro.obs.telemetry import TelemetryConfig, TelemetrySampler
from repro.traces.synthetic import synthetic_storage_trace
from repro.traces.trace import Trace

#: A PL interval every 200 epochs: the first falls halfway through the
#: 0.5 ms (800,000-cycle) trace.
INTERVAL = 400_000.0


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=0.5, transfers_per_ms=100,
                                   seed=51)


@pytest.fixture(scope="module")
def config():
    base = SimulationConfig()
    return replace(base, layout=replace(base.layout,
                                        interval_cycles=INTERVAL))


def sample_times(trace, config, engine, technique, cycles):
    sampler = TelemetrySampler(TelemetryConfig(sample_cycles=cycles))
    result = simulate(trace, config=config, technique=technique,
                      engine=engine, mu=2.0 if "dma-ta" in technique
                      else None, telemetry=sampler)
    snapshot = sampler.store.snapshot()
    assert snapshot.stride == 1  # every tick retained
    return result, snapshot


def observe(trace, config):
    sampler, recorder = TelemetrySampler(), DigestRecorder()
    result = simulate(trace, config=config, technique="dma-ta-pl", mu=2.0,
                      telemetry=sampler, digests=recorder)
    return result, sampler.store.snapshot()


def test_observed_run_settles_like_its_twin(trace, config, settle_calls):
    twin = simulate(trace, config=config, technique="dma-ta-pl", mu=2.0)
    twin_calls, settle_calls.count = settle_calls.count, 0
    observed, rows = observe(trace, config)
    ticks = twin.metrics.counters["sim.epochs"]
    assert ticks > 2 * twin_calls  # runs of quiet ticks settle inline
    assert settle_calls.count == twin_calls
    assert observed.metrics.counters["sim.epochs"] == ticks
    assert observed.energy.as_dict() == twin.energy.as_dict()
    # Each probe sampled every epoch tick, between the inline ticks,
    # exactly as when every tick is its own event.
    settle_calls.one_tick = True
    single, single_rows = observe(trace, config)
    assert len(rows) == observed.digests.ticks > ticks
    assert np.array_equal(rows.data, single_rows.data)
    assert observed.digests.chain_tip == single.digests.chain_tip


@pytest.mark.parametrize("engine", ["fluid", "precise"])
def test_tied_tick_samples_after_the_interval(trace, config, engine):
    result, snapshot = sample_times(trace, config, engine, "dma-ta-pl", None)
    ts, moves = snapshot.column("ts"), snapshot.column("migrations")
    # The probe, an epoch tick and the first PL interval share INTERVAL.
    tied = int(np.flatnonzero(ts == INTERVAL)[0])
    assert ts[tied - 1] == INTERVAL - config.alignment.epoch_cycles
    assert moves[tied - 1] == 0
    assert 0 < moves[tied] <= result.migrations


@pytest.mark.parametrize("engine", ["fluid", "precise"])
def test_own_cadence_between_epoch_ticks(trace, config, engine):
    assert config.alignment.epoch_cycles == 2000.0
    result, snapshot = sample_times(trace, config, engine, "dma-ta", 3000.0)
    ts = snapshot.column("ts")
    ticks = 3000.0 * np.arange(1, len(ts) + 1)
    assert ts[:-1].tolist() == ticks[:-1].tolist()
    assert result.duration_cycles > ts[-2]
    if engine == "fluid":
        # Then the final sample at the end of the run.
        assert ts[-1] == result.duration_cycles
    else:
        # Then the trailing tick, past the end.
        assert ts[-1] == ticks[-1] > result.duration_cycles


def test_precise_takes_its_trailing_tick(trace, config):
    # The precise chips descend to powerdown after the trace's last
    # transfer: the last event lies past the trace, and so does the
    # tick after it. No final sample follows it.
    result, snapshot = sample_times(trace, config, "precise", "baseline",
                                    3000.0)
    ts = snapshot.column("ts")
    assert ts.tolist() == (3000.0 * np.arange(1, len(ts) + 1)).tolist()
    assert ts[-1] >= result.duration_cycles > ts[-2]
    assert result.duration_cycles > trace.duration_cycles
    # The fluid loop stops at its last state change: its last sample is
    # the final one, at the end of the run.
    fluid, fluid_snapshot = sample_times(trace, config, "fluid", "baseline",
                                         3000.0)
    assert fluid_snapshot.column("ts")[-1] == fluid.duration_cycles


@pytest.mark.parametrize("engine", ["fluid", "precise"])
def test_empty_trace_ticks_once(engine):
    # No event ever pops: the loop's ticks after its last event are the
    # first tick, and the final sample follows at the trace's end.
    result, snapshot = sample_times(
        Trace(name="empty", records=[], duration_cycles=10_000.0),
        SimulationConfig(), engine, "baseline", None)
    assert snapshot.column("ts").tolist() == [2000.0, 10_000.0]
    assert result.duration_cycles == 10_000.0
