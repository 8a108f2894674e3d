"""Engine performance and agreement: fluid vs precise vs scalar oracle.

Not a paper figure — this bench justifies the methodology twice over:
the fluid (change-point) engine must reproduce the per-request reference
engine's energy numbers while running faster (``fluid_vs_precise/speedup``,
about 10x on this DMA-only trace), and
the vectorized precise engine (the array-timeline kernel) must match the
scalar event-stepping oracle bit-for-bit while delivering its own
speedup (``oracle/speedup``; see docs/ENGINES.md).
"""

import statistics
import time

from repro import simulate
from repro.analysis.tables import format_table
from repro.traces.synthetic import synthetic_storage_trace

from benchmarks.common import Stopwatch, metric, save_record, save_report

DURATION_MS = 2.0

#: Rounds of the three fluid runs; each run's time is its median.
FLUID_ROUNDS = 5

#: The small sweep used to price fleet observability (2 pool workers).
FLEET_CP_LIMITS = (0.05, 0.20)


def test_engine_agreement_and_speed(benchmark):
    trace = synthetic_storage_trace(duration_ms=DURATION_MS,
                                    transfers_per_ms=100, seed=51)

    watch = Stopwatch()
    with watch.phase("precise"):
        start = time.perf_counter()
        precise = simulate(trace, technique="baseline", engine="precise")
        precise_s = time.perf_counter() - start

    with watch.phase("precise-scalar"):
        start = time.perf_counter()
        scalar = simulate(trace, technique="baseline",
                          engine="precise-scalar")
        scalar_s = time.perf_counter() - start

    # The three fluid runs, plain, with live telemetry and with state
    # digests: each enabled path must keep the physics bit-exact, and
    # its wall-clock cost is published as telemetry/overhead_frac
    # (per-epoch sampling, detectors on, no HTTP exporters) and
    # digests/overhead_frac (per-epoch chain). A run's time is the
    # median of FLUID_ROUNDS rounds, each round running the three in
    # turn, so host noise moves the two fractions less than one run
    # each would.
    from repro.obs.diff import DigestRecorder
    from repro.obs.telemetry import TelemetrySampler

    observers = {
        "fluid": dict,
        "fluid-telemetry": lambda: {"telemetry": TelemetrySampler()},
        "fluid-digests": lambda: {"digests": DigestRecorder()},
    }
    seconds = {name: [] for name in observers}
    last = {}

    def rounds():
        for _ in range(FLUID_ROUNDS):
            for name, make in observers.items():
                with watch.phase(name):
                    start = time.perf_counter()
                    kwargs = make()
                    result = simulate(trace, technique="baseline",
                                      engine="fluid", **kwargs)
                    seconds[name].append(time.perf_counter() - start)
                last[name] = (result, *kwargs.values())

    benchmark.pedantic(rounds, rounds=1, iterations=1)
    fluid_s, telemetry_s, digests_s = (
        statistics.median(seconds[name]) for name in observers)
    (fluid,) = last["fluid"]
    telemetered, sampler = last["fluid-telemetry"]
    digested, recorder = last["fluid-digests"]

    rows = [
        ["fluid", f"{fluid_s * 1e3:.1f} ms",
         f"{fluid.energy_joules * 1e3:.4f}",
         f"{fluid.utilization_factor:.4f}"],
        ["precise", f"{precise_s * 1e3:.1f} ms",
         f"{precise.energy_joules * 1e3:.4f}",
         f"{precise.utilization_factor:.4f}"],
        ["precise-scalar", f"{scalar_s * 1e3:.1f} ms",
         f"{scalar.energy_joules * 1e3:.4f}",
         f"{scalar.utilization_factor:.4f}"],
        ["speedup / delta", f"{precise_s / max(fluid_s, 1e-9):.0f}x",
         f"{abs(1 - fluid.energy_joules / precise.energy_joules) * 100:.2f}%",
         f"{abs(fluid.utilization_factor - precise.utilization_factor):.4f}"],
    ]
    text = format_table(
        ["engine", "wall clock", "energy mJ", "uf"], rows,
        title=f"Engine cross-validation on {DURATION_MS} ms of "
              f"Synthetic-St ({precise.requests} DMA-memory requests)")
    save_report("engines", text)

    energy_delta = abs(1 - fluid.energy_joules / precise.energy_joules)
    metrics = [
        # Perfect agreement would be a zero relative energy delta.
        metric("fluid_vs_precise/energy_delta", energy_delta,
               unit="fraction", expected=0.0),
        metric("fluid_vs_precise/uf_delta",
               abs(fluid.utilization_factor - precise.utilization_factor),
               unit="uf"),
        metric("fluid_vs_precise/speedup",
               precise_s / max(fluid_s, 1e-9), unit="x"),
        metric("fluid/wall_s", fluid_s, unit="s"),
        metric("precise/wall_s", precise_s, unit="s"),
        # The scalar oracle must agree bit-for-bit with the vectorized
        # precise engine — not within tolerance (see docs/ENGINES.md).
        metric("oracle/energy_delta",
               abs(scalar.energy_joules - precise.energy_joules),
               unit="J", expected=0.0),
        metric("oracle/speedup", scalar_s / max(precise_s, 1e-9),
               unit="x"),
        metric("precise_scalar/wall_s", scalar_s, unit="s"),
        metric("telemetry/overhead_frac",
               max(0.0, telemetry_s / max(fluid_s, 1e-9) - 1.0),
               unit="fraction"),
        metric("telemetry/samples", float(sampler.samples_captured),
               unit="count"),
        metric("digests/overhead_frac",
               max(0.0, digests_s / max(fluid_s, 1e-9) - 1.0),
               unit="fraction"),
        metric("digests/ticks", float(recorder.store.ticks), unit="count"),
    ]

    # Fleet observability: a traced 2-worker sweep (workers stream
    # spans/heartbeats/audit rollups to the parent collector) must stay
    # byte-identical to the plain pool and its wall-clock premium is
    # published as fleet/overhead_frac.
    from repro.analysis.sweep import sweep_cp_limit
    from repro.obs.fleet import FleetCollector, FleetConfig

    with watch.phase("fleet-sweep"):
        start = time.perf_counter()
        plain_points = sweep_cp_limit(trace, list(FLEET_CP_LIMITS),
                                      ["dma-ta"], max_workers=2)
        plain_s = time.perf_counter() - start
        collector = FleetCollector(FleetConfig())
        start = time.perf_counter()
        fleet_points = sweep_cp_limit(trace, list(FLEET_CP_LIMITS),
                                      ["dma-ta"], max_workers=2,
                                      fleet=collector)
        fleet_s = time.perf_counter() - start
        fleet_report = collector.report()
        collector.close()

    metrics += [
        metric("fleet/overhead_frac",
               max(0.0, fleet_s / max(plain_s, 1e-9) - 1.0),
               unit="fraction"),
        metric("fleet/spans_merged", float(fleet_report.spans_merged),
               unit="count"),
    ]
    save_record("engines", "engines", metrics, phases=watch.phases,
                fleet=fleet_report.as_dict())

    assert all(p.ok for p in plain_points + fleet_points)
    assert [p.result.energy.as_dict() for p in fleet_points] == \
        [p.result.energy.as_dict() for p in plain_points]
    assert fleet_report.computed == len(FLEET_CP_LIMITS) + 1  # + baseline
    assert not fleet_report.stalls
    assert telemetered.energy.as_dict() == fluid.energy.as_dict()
    assert sampler.samples_captured > 0
    assert digested.energy.as_dict() == fluid.energy.as_dict()
    assert digested.time.as_dict() == fluid.time.as_dict()
    assert recorder.store.ticks > 0
    assert scalar.energy.as_dict() == precise.energy.as_dict()
    assert abs(1 - fluid.energy_joules / precise.energy_joules) < 0.03
    assert precise_s > fluid_s


def test_fluid_engine_throughput(benchmark):
    """Raw fluid-engine throughput on the paper-scale workload."""
    trace = synthetic_storage_trace(duration_ms=10.0, transfers_per_ms=100,
                                    seed=52)
    result = benchmark.pedantic(
        lambda: simulate(trace, technique="dma-ta-pl", cp_limit=0.10),
        rounds=1, iterations=1)
    assert result.transfers > 500
