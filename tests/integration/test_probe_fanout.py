"""Tier-1 gate: probes attached together see what they see alone.

Both engines tick telemetry and digests outside the event heap, with one
shared snapshot per tick (:mod:`repro.obs.probe`). Attaching both probes
must not change what either records — telemetry rows, digest rows and
chain tip — nor the run itself, whose breakdowns stay bit-identical to
the unobserved run. Equal cadences tick together every time; 2,000 and
3,000 cycles tick together every 6,000 cycles and apart in between. At
every tick time, each chip is observed exactly once.
"""

import numpy as np
import pytest

from repro import simulate
from repro.memory.chip import FluidChip
from repro.obs.diff import DigestConfig, DigestRecorder, render_result_delta
from repro.obs.telemetry import TelemetryConfig, TelemetrySampler
from repro.sim.precise import _PChip
from repro.traces.synthetic import synthetic_storage_trace

ENGINES = ("fluid", "precise", "precise-scalar")
TECHNIQUES = ("baseline", "dma-ta-pl")
CADENCES = ((2000.0, 2000.0), (2000.0, 3000.0))


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=0.5, transfers_per_ms=100,
                                   seed=51)


@pytest.fixture(scope="module")
def plain_runs(trace):
    return {(engine, technique): run(trace, engine, technique)
            for engine in ENGINES for technique in TECHNIQUES}


def run(trace, engine, technique, telemetry=None, digests=None):
    mu = 2.0 if "dma-ta" in technique else None
    return simulate(trace, technique=technique, engine=engine, mu=mu,
                    telemetry=telemetry, digests=digests)


def probes(telemetry_cycles, digest_cycles):
    return (TelemetrySampler(TelemetryConfig(sample_cycles=telemetry_cycles)),
            DigestRecorder(DigestConfig(epoch_cycles=digest_cycles)))


def assert_same_run(plain, observed):
    for name in ("energy", "time"):
        expected = getattr(plain, name).as_dict()
        actual = getattr(observed, name).as_dict()
        assert actual == expected, render_result_delta(
            expected, actual, label_a="plain", label_b="observed")
    assert observed.duration_cycles == plain.duration_cycles
    assert observed.requests == plain.requests
    assert observed.head_delay_cycles == plain.head_delay_cycles
    assert observed.extra_service_cycles == plain.extra_service_cycles


@pytest.mark.parametrize("cadence", CADENCES, ids=("equal", "2k-3k"))
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("engine", ENGINES)
def test_fan_out_matches_each_probe_alone(trace, plain_runs, monkeypatch,
                                          engine, technique, cadence):
    sampler_alone, _ = probes(*cadence)
    _, recorder_alone = probes(*cadence)
    assert_same_run(plain_runs[engine, technique],
                    run(trace, engine, technique, telemetry=sampler_alone))
    digests_alone = run(trace, engine, technique,
                        digests=recorder_alone).digests

    observed_at = []
    chip_class = FluidChip if engine == "fluid" else _PChip
    observe = chip_class.observe

    def counting_observe(chip, now):
        observed_at.append(now)
        return observe(chip, now)

    monkeypatch.setattr(chip_class, "observe", counting_observe)
    sampler, recorder = probes(*cadence)
    together = run(trace, engine, technique, telemetry=sampler,
                   digests=recorder)
    monkeypatch.undo()

    assert_same_run(plain_runs[engine, technique], together)
    rows_alone = sampler_alone.store.snapshot()
    rows = sampler.store.snapshot()
    assert rows.columns == rows_alone.columns
    assert np.array_equal(rows.data, rows_alone.data)
    assert together.digests.rows == digests_alone.rows
    assert together.digests.chain_tip == digests_alone.chain_tip
    assert together.digests.fields == digests_alone.fields

    # One snapshot per tick time: every chip observed once per distinct
    # time either probe sampled at.
    ticks = set(rows.column("ts")) | {ts for _, ts, _ in
                                      together.digests.rows}
    chips = len(together.chip_energy)
    assert sorted(observed_at) == sorted(t for t in ticks
                                         for _ in range(chips))
    if cadence[0] != cadence[1]:
        assert sampler.samples_captured != recorder.store.ticks
