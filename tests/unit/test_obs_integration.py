"""End-to-end observability: traced runs on both engines.

Includes the PR's acceptance criterion: the per-chip residency folded
back out of the exported span stream must match the run's
``MetricsReport.chip_residency`` to within 1% of each chip's total.
"""

import pytest

from repro.obs import RingTracer
from repro.obs.export import (
    chrome_trace,
    residency_from_events,
    validate_chrome_trace,
)
from repro.sim.run import TECHNIQUES, simulate
from repro.traces.synthetic import synthetic_storage_trace


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=3.0, seed=9)


@pytest.fixture(scope="module")
def long_trace():
    # Long enough (> 5 ms at 1.6 GHz) to cross a PL migration interval.
    return synthetic_storage_trace(duration_ms=7.0, seed=9)


def traced_run(trace, engine, technique="dma-ta-pl"):
    tracer = RingTracer()
    result = simulate(trace, technique=technique, engine=engine, mu=50.0,
                      tracer=tracer)
    return tracer, result


class TestEventStream:
    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_controller_and_chip_events_present(self, trace, engine):
        tracer, _ = traced_run(trace, engine)
        names = {event.name for event in tracer.events}
        assert "ta.release" in names
        assert "slack.charge_epoch" in names
        tracks = {event.track for event in tracer.events}
        assert any(track.startswith("chip:") for track in tracks)

    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_migration_events_present(self, long_trace, engine):
        tracer, result = traced_run(long_trace, engine)
        assert result.migrations > 0
        names = {event.name for event in tracer.events}
        assert "pl.migration" in names
        assert "pl.move" in names

    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_export_validates(self, trace, engine):
        tracer, result = traced_run(trace, engine)
        obj = chrome_trace(tracer.events, label=trace.name)
        assert validate_chrome_trace(obj) == []
        assert len(obj["traceEvents"]) > len(tracer.events)  # + metadata

    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_residency_matches_metrics_within_1pct(self, trace, engine):
        """Acceptance: folded span residency == MetricsReport residency."""
        tracer, result = traced_run(trace, engine)
        folded = residency_from_events(tracer.events)
        reported = result.metrics.chip_residency
        assert set(folded) == set(reported)
        for chip_id, buckets in reported.items():
            total = sum(buckets.values())
            assert total > 0
            for bucket, cycles in buckets.items():
                assert folded[chip_id].get(bucket, 0.0) == pytest.approx(
                    cycles, abs=0.01 * total)


class TestTracingIsInert:
    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_traced_equals_untraced(self, trace, engine):
        untraced = simulate(trace, technique="dma-ta-pl", engine=engine,
                            mu=50.0)
        _, traced = traced_run(trace, engine)
        assert traced.energy.total == untraced.energy.total
        assert traced.extra_service_cycles == untraced.extra_service_cycles
        assert traced.migrations == untraced.migrations

    def test_null_tracer_accepted(self, trace):
        result = simulate(trace, technique="dma-ta", mu=50.0, tracer=None)
        assert result.metrics is not None

    def test_bounded_ring_does_not_disturb_run(self, trace):
        tracer = RingTracer(capacity=64)
        result = simulate(trace, technique="dma-ta-pl", mu=50.0,
                          tracer=tracer)
        assert len(tracer) == 64
        assert tracer.dropped > 0
        assert result.metrics is not None


class TestMetricsAttached:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_every_technique_reports_metrics(self, trace, technique):
        result = simulate(trace, technique=technique, mu=50.0)
        report = result.metrics
        assert report is not None
        assert report.counters.get("sim.transfers", 0) > 0
        assert report.chip_residency
        for buckets in report.chip_residency.values():
            assert "total" not in buckets

    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_transitions_counted(self, trace, engine):
        result = simulate(trace, technique="baseline", engine=engine,
                          mu=None)
        transitions = result.metrics.transitions
        assert transitions, "power-managed run should transition states"
        assert all(count > 0 for count in transitions.values())
        assert all("->" in edge for edge in transitions)

    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_dma_service_histogram_and_bound(self, trace, engine):
        result = simulate(trace, technique="dma-ta", engine=engine, mu=50.0)
        report = result.metrics
        digest = report.histograms["dma.service_per_request"]
        assert digest.count > 0
        assert report.gauges["dma.service_bound"] > 0

    def test_slack_violations_counter_present(self, trace):
        report = simulate(trace, technique="dma-ta", mu=50.0).metrics
        assert "slack.violations" in report.counters
