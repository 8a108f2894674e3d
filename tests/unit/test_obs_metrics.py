"""Units for the metrics registry, report, and text rendering."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    MetricsReport,
    percentile,
    render_metrics,
)


class TestInstruments:
    def test_counter(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4.0)
        assert counter.value == 5.0

    def test_gauge(self):
        gauge = Gauge()
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram(self):
        hist = Histogram()
        for v in (4.0, 1.0, 3.0, 2.0):
            hist.record(v)
        assert hist.count == 4
        digest = hist.summary()
        assert digest.count == 4
        assert digest.min == 1.0
        assert digest.max == 4.0
        assert digest.mean == pytest.approx(2.5)
        assert digest.p50 == pytest.approx(2.5)

    def test_empty_histogram_summary(self):
        digest = Histogram().summary()
        assert digest == HistogramSummary()
        assert digest.count == 0


class TestPercentile:
    def test_empty_and_singleton(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolation(self):
        ordered = [0.0, 10.0]
        assert percentile(ordered, 0.5) == pytest.approx(5.0)
        assert percentile(ordered, 0.9) == pytest.approx(9.0)

    def test_endpoints(self):
        ordered = [1.0, 2.0, 3.0]
        assert percentile(ordered, 0.0) == 1.0
        assert percentile(ordered, 1.0) == 3.0


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kinds_are_namespaced_separately(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.gauge("x").set(9.0)
        report = registry.report()
        assert report.counters["x"] == 1.0
        assert report.gauges["x"] == 9.0

    def test_report_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("sim.requests").inc(12)
        registry.gauge("dma.service_bound").set(42.0)
        registry.histogram("ta.batch_size").record(2.0)
        report = registry.report(
            chip_residency={0: {"low_power": 10.0, "serving_dma": 30.0}},
            transitions={"active->nap": 3},
        )
        assert report.counters == {"sim.requests": 12.0}
        assert report.gauges == {"dma.service_bound": 42.0}
        assert report.histograms["ta.batch_size"].count == 1
        assert report.transitions == {"active->nap": 3}

    def test_report_is_a_snapshot_not_a_view(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        report = registry.report()
        counter.inc()
        assert report.counters["c"] == 1.0


class TestMetricsReport:
    def test_residency_shares(self):
        report = MetricsReport(
            chip_residency={0: {"serving_dma": 30.0, "low_power": 70.0}})
        shares = report.residency_shares(0)
        assert shares["serving_dma"] == pytest.approx(0.3)
        assert shares["low_power"] == pytest.approx(0.7)

    def test_residency_shares_zero_total(self):
        report = MetricsReport(chip_residency={0: {"low_power": 0.0}})
        assert report.residency_shares(0) == {"low_power": 0.0}

    def test_residency_shares_unknown_chip(self):
        assert MetricsReport().residency_shares(99) == {}


class TestRenderMetrics:
    def test_empty_report(self):
        assert render_metrics(MetricsReport()) == "(no metrics recorded)"

    def test_sections_present(self):
        registry = MetricsRegistry()
        registry.counter("sim.requests").inc(7)
        registry.gauge("dma.service_bound").set(1.25)
        registry.histogram("ta.batch_size").record(4.0)
        report = registry.report(
            chip_residency={1: {"serving_dma": 25.0, "low_power": 75.0}},
            transitions={"active->nap": 2},
        )
        text = render_metrics(report, title="demo run")
        assert text.startswith("demo run")
        assert "counters:" in text
        assert "sim.requests" in text
        assert "gauges:" in text
        assert "histograms:" in text
        assert "n=1" in text
        assert "power transitions:" in text
        assert "active->nap" in text
        assert "per-chip state residency" in text
        assert "75.0%" in text

    def test_empty_histogram_rendered(self):
        registry = MetricsRegistry()
        registry.histogram("never.recorded")
        assert "(empty)" in render_metrics(registry.report())
