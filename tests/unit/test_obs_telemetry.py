"""Units for the live telemetry layer (repro.obs.telemetry)."""

import json
import math
import queue

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, TelemetryError
from repro.obs.telemetry import (
    RESIDENCY_BUCKETS,
    SCALAR_COLUMNS,
    CusumDetector,
    JsonlExporter,
    PendingDriftDetector,
    PrometheusExporter,
    SseBroker,
    TelemetryConfig,
    TelemetrySampler,
    TelemetryStore,
    prometheus_series,
)
from repro.sim.fluid import FluidEngine
from repro.traces.synthetic import synthetic_storage_trace


class TestTelemetryConfig:
    def test_defaults_valid(self):
        TelemetryConfig()

    @pytest.mark.parametrize("kwargs", [
        {"sample_cycles": 0.0},
        {"sample_cycles": -5.0},
        {"capacity": 6},          # too small
        {"capacity": 9},          # odd
        {"sample_cycles": math.nan},
        {"inject_spike_at_frac": -0.1},
        {"inject_spike_at_frac": 1.5},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TelemetryConfig(**kwargs)

    @pytest.mark.parametrize("cycles", [math.inf, 1e-12, 0.5])
    def test_rejects_periods_that_cannot_advance_the_clock(self, cycles):
        with pytest.raises(ConfigurationError, match="sample_cycles"):
            TelemetryConfig(sample_cycles=cycles)


class TestTelemetryStore:
    def _row(self, tick):
        return np.array([float(tick), float(tick) * 10.0])

    def test_append_and_snapshot(self):
        store = TelemetryStore(("ts", "v"), capacity=8)
        for tick in range(5):
            assert store.append(self._row(tick))
        snap = store.snapshot()
        assert len(snap) == 5
        assert snap.stride == 1
        assert snap.ticks == 5
        assert snap.dropped == 0
        assert list(snap.column("ts")) == [0, 1, 2, 3, 4]

    def test_overflow_compacts_and_doubles_stride(self):
        store = TelemetryStore(("ts", "v"), capacity=8)
        for tick in range(9):
            store.append(self._row(tick))
        snap = store.snapshot()
        # Rows 0,2,4,6 survive the compaction, then tick 8 lands.
        assert snap.stride == 2
        assert list(snap.column("ts")) == [0, 2, 4, 6, 8]

    @pytest.mark.parametrize("total", [31, 32, 100, 257])
    def test_retained_rows_match_reference_striding(self, total):
        """Row i always holds tick i * stride, no matter the stream length."""
        store = TelemetryStore(("ts", "v"), capacity=8)
        for tick in range(total):
            store.append(self._row(tick))
        snap = store.snapshot()
        expected = [i * snap.stride for i in range(len(snap))]
        assert list(snap.column("ts")) == expected
        assert snap.ticks == total
        if total > store.capacity:
            assert snap.stride > 1
            assert snap.dropped > 0

    def test_off_stride_ticks_dropped(self):
        store = TelemetryStore(("ts", "v"), capacity=8)
        for tick in range(8):
            store.append(self._row(tick))
        store.append(self._row(8))       # triggers compaction, stride=2
        assert not store.append(self._row(9))   # odd tick: dropped
        assert store.append(self._row(10))
        assert store.dropped == 1

    def test_snapshot_is_a_copy(self):
        store = TelemetryStore(("ts", "v"), capacity=8)
        store.append(self._row(0))
        snap = store.snapshot()
        store.append(self._row(1))
        assert len(snap) == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            TelemetryStore(("ts",), capacity=7)


class TestCusumDetector:
    def test_quiet_on_steady_stream(self):
        detector = CusumDetector(warmup=8)
        total, alarms = 0.0, []
        for i in range(200):
            total += 5.0
            alarm = detector.observe(i, float(i), total)
            if alarm:
                alarms.append(alarm)
        assert alarms == []

    def test_fires_once_per_sustained_shift(self):
        detector = CusumDetector(warmup=8, h_sigmas=10.0)
        total, alarms = 0.0, []
        for i in range(400):
            total += 5.0 if i < 200 else 500.0
            alarm = detector.observe(i, float(i), total)
            if alarm:
                alarms.append(alarm)
        assert len(alarms) == 1
        assert alarms[0].sample_index >= 200
        assert alarms[0].kind == "degradation-cusum"

    def test_zero_warmup_does_not_collapse_sigma_to_nothing(self):
        # An all-zero warmup leaves only the absolute floor; a later burst
        # alarms once and then the detector re-baselines at burst scale.
        detector = CusumDetector(warmup=8)
        total, alarms = 0.0, []
        for i in range(300):
            total += 0.0 if i < 50 else 100.0
            alarm = detector.observe(i, float(i), total)
            if alarm:
                alarms.append(alarm)
        assert len(alarms) == 1

    def test_adapts_to_bursty_noise(self):
        # Heavy-tailed but stationary traffic: mostly zero with regular
        # large bursts. After warmup + a little adaptation, no alarms.
        detector = CusumDetector(warmup=16)
        total, late_alarms = 0.0, []
        for i in range(600):
            total += 2000.0 if i % 10 == 0 else 0.0
            alarm = detector.observe(i, float(i), total)
            if alarm and i > 100:
                late_alarms.append(alarm)
        assert late_alarms == []


class TestPendingDriftDetector:
    def test_derives_limit_from_warmup(self):
        detector = PendingDriftDetector(warmup=4)
        for i in range(4):
            assert detector.observe(i, float(i), 1.0) is None
        # Derived limit is max(8, 4*1) = 8: 8 is fine, 9 alarms.
        assert detector.observe(4, 4.0, 8.0) is None
        alarm = detector.observe(5, 5.0, 9.0)
        assert alarm is not None
        assert alarm.kind == "slack-pending-drift"
        assert alarm.threshold == 8.0

    def test_rearms_only_below_half_limit(self):
        detector = PendingDriftDetector(warmup=1, limit=10.0)
        detector.observe(0, 0.0, 0.0)
        assert detector.observe(1, 1.0, 11.0) is not None
        assert detector.observe(2, 2.0, 12.0) is None   # still tripped
        assert detector.observe(3, 3.0, 6.0) is None    # above limit/2
        assert detector.observe(4, 4.0, 4.0) is None    # re-arms here
        assert detector.observe(5, 5.0, 11.0) is not None


class TestPrometheusNaming:
    def test_scalar_chip_and_bus_columns(self):
        assert prometheus_series("ts") == ("repro_sim_cycles", {})
        assert prometheus_series("requests") == (
            "repro_requests_total", {})
        assert prometheus_series("chip3.power_w") == (
            "repro_chip_power_watts", {"chip": "3"})
        assert prometheus_series("chip12.low_power") == (
            "repro_chip_residency_cycles",
            {"chip": "12", "bucket": "low_power"})
        assert prometheus_series("bus1.util") == (
            "repro_bus_utilization", {"bus": "1"})
        assert prometheus_series("bus0.queue_depth") == (
            "repro_bus_queue_depth", {"bus": "0"})


class TestPrometheusExporter:
    def test_render_before_any_sample_has_meta_counters(self):
        exporter = PrometheusExporter()
        text = exporter.render()
        assert "repro_telemetry_samples_total 0" in text
        assert text.endswith("\n")

    def test_render_groups_families_with_help_and_type(self):
        exporter = PrometheusExporter()
        columns = ("ts", "requests", "chip0.power_w", "chip1.power_w")
        exporter.on_bind(columns)
        exporter.on_sample(np.array([100.0, 7.0, 0.5, 0.25]), [])
        text = exporter.render()
        lines = text.splitlines()
        assert "# HELP repro_sim_cycles Simulation clock at the latest sample" in lines
        assert "# TYPE repro_sim_cycles gauge" in lines
        assert "# TYPE repro_requests_total counter" in lines
        assert 'repro_chip_power_watts{chip="0"} 0.5' in lines
        assert 'repro_chip_power_watts{chip="1"} 0.25' in lines
        # One HELP/TYPE pair per family, not per series.
        assert sum(1 for l in lines
                   if l.startswith("# TYPE repro_chip_power_watts")) == 1
        assert "repro_telemetry_samples_total 1" in lines

    def test_latest_sample_wins(self):
        exporter = PrometheusExporter()
        exporter.on_bind(("ts",))
        exporter.on_sample(np.array([1.0]), [])
        exporter.on_sample(np.array([2.0]), [])
        assert "repro_sim_cycles 2" in exporter.render()
        assert exporter.samples == 2


class TestJsonlExporter:
    def test_flat_sample_and_anomaly_lines(self, tmp_path):
        from repro.obs.telemetry import TelemetryAnomaly

        path = tmp_path / "stream.jsonl"
        exporter = JsonlExporter(path)
        exporter.on_bind(("ts", "power_w"))
        anomaly = TelemetryAnomaly(kind="degradation-cusum", ts=2.0,
                                   sample_index=1, value=9.0,
                                   threshold=3.0, message="boom")
        exporter.on_sample(np.array([1.0, 0.5]), [])
        exporter.on_sample(np.array([2.0, 0.6]), [anomaly])
        exporter.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0] == {"event": "telemetry.sample", "ts": 1.0,
                            "power_w": 0.5}
        assert lines[2]["event"] == "telemetry.anomaly"
        assert lines[2]["kind"] == "degradation-cusum"
        assert exporter.lines == 3

    def test_close_is_idempotent(self, tmp_path):
        exporter = JsonlExporter(tmp_path / "s.jsonl")
        exporter.close()
        exporter.close()

    def test_every_line_is_durable_before_close(self, tmp_path):
        """Lines must hit the disk per sample (the stream is tailed
        live by watch dashboards), and close() must not lose the tail."""
        path = tmp_path / "stream.jsonl"
        exporter = JsonlExporter(path)
        exporter.on_bind(("ts",))
        exporter.on_sample(np.array([1.0]), [])
        # Visible to a concurrent reader before close.
        assert json.loads(path.read_text().splitlines()[0])["ts"] == 1.0
        exporter.on_sample(np.array([2.0]), [])
        exporter.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["ts"] == 2.0


class TestSseBroker:
    def test_fanout_and_close_sentinel(self):
        broker = SseBroker()
        broker.on_bind(("ts",))
        a, b = broker.subscribe(), broker.subscribe()
        broker.on_sample(np.array([5.0]), [])
        assert a.get_nowait() == ("sample", '{"ts": 5.0}')
        assert b.get_nowait()[0] == "sample"
        broker.close()
        assert a.get_nowait() is None
        assert broker.closed

    def test_slow_subscriber_drops_oldest(self):
        broker = SseBroker(max_queued=2)
        broker.on_bind(("ts",))
        subscriber = broker.subscribe()
        for ts in (1.0, 2.0, 3.0):
            broker.on_sample(np.array([ts]), [])
        assert subscriber.get_nowait() == ("sample", '{"ts": 2.0}')
        assert subscriber.get_nowait() == ("sample", '{"ts": 3.0}')
        with pytest.raises(queue.Empty):
            subscriber.get_nowait()

    def test_unsubscribe_stops_delivery(self):
        broker = SseBroker()
        broker.on_bind(("ts",))
        subscriber = broker.subscribe()
        broker.unsubscribe(subscriber)
        broker.on_sample(np.array([1.0]), [])
        with pytest.raises(queue.Empty):
            subscriber.get_nowait()

    def test_publish_rides_the_same_bounded_queues(self):
        """The generic entry point (used by the fleet collector) must
        share the drop-oldest discipline of the sample path."""
        broker = SseBroker(max_queued=2)
        subscriber = broker.subscribe()
        for index in range(5):
            broker.publish("fleet", f'{{"seq": {index}}}')
        assert subscriber.get_nowait() == ("fleet", '{"seq": 3}')
        assert subscriber.get_nowait() == ("fleet", '{"seq": 4}')
        with pytest.raises(queue.Empty):
            subscriber.get_nowait()

    def test_publish_and_samples_interleave_in_order(self):
        broker = SseBroker()
        broker.on_bind(("ts",))
        subscriber = broker.subscribe()
        broker.on_sample(np.array([1.0]), [])
        broker.publish("stall", '{"worker": 2}')
        broker.on_sample(np.array([2.0]), [])
        events = [subscriber.get_nowait()[0] for _ in range(3)]
        assert events == ["sample", "stall", "sample"]

    def test_disconnecting_consumer_never_stalls_the_publisher(self):
        """A consumer that walks away mid-stream (browser tab closed)
        must not block or starve the remaining subscribers."""
        broker = SseBroker(max_queued=4)
        flaky, steady = broker.subscribe(), broker.subscribe()
        for index in range(3):
            broker.publish("fleet", f'{{"seq": {index}}}')
        broker.unsubscribe(flaky)  # consumer gone, queue still full
        for index in range(3, 10):
            broker.publish("fleet", f'{{"seq": {index}}}')
        got = []
        while True:
            try:
                got.append(json.loads(steady.get_nowait()[1])["seq"])
            except queue.Empty:
                break
        assert got == [6, 7, 8, 9]  # newest survive, oldest dropped
        assert flaky.qsize() == 3  # no deliveries after unsubscribe


@pytest.fixture(scope="module")
def tiny_trace():
    return synthetic_storage_trace(duration_ms=0.5, transfers_per_ms=60,
                                   seed=3)


class TestSamplerLifecycle:
    def test_sample_before_bind_raises(self):
        sampler = TelemetrySampler()
        with pytest.raises(TelemetryError):
            sampler.sample(0.0)
        with pytest.raises(TelemetryError):
            sampler.series("ts")

    def test_double_bind_raises(self, tiny_trace):
        sampler = TelemetrySampler()
        config = SimulationConfig().with_mu(2.0)
        FluidEngine(tiny_trace, config, technique="dma-ta",
                    telemetry=sampler)
        with pytest.raises(TelemetryError):
            FluidEngine(tiny_trace, config, technique="dma-ta",
                        telemetry=sampler)

    def test_run_fills_expected_columns(self, tiny_trace):
        sampler = TelemetrySampler(TelemetryConfig(sample_cycles=5000.0))
        config = SimulationConfig().with_mu(2.0)
        engine = FluidEngine(tiny_trace, config, technique="dma-ta-pl",
                             telemetry=sampler)
        result = engine.run()
        n_chips = config.memory.num_chips
        n_buses = config.buses.count
        assert len(sampler.columns) == (len(SCALAR_COLUMNS)
                                        + n_chips * (1 + len(RESIDENCY_BUCKETS))
                                        + 2 * n_buses)
        assert sampler.samples_captured >= 2
        ts, power = sampler.series("power_w")
        assert len(ts) == len(power) > 0
        assert ts[-1] == pytest.approx(result.duration_cycles)
        assert np.all(np.diff(ts) > 0)
        assert np.all(power >= 0.0)
        # Residency-to-date only grows.
        _, low = sampler.series("chip0.low_power")
        assert np.all(np.diff(low) >= 0.0)

    def test_default_period_is_the_epoch(self, tiny_trace):
        sampler = TelemetrySampler()
        config = SimulationConfig().with_mu(2.0)
        engine = FluidEngine(tiny_trace, config, technique="dma-ta",
                             telemetry=sampler)
        assert sampler.sample_cycles == engine.controller.epoch_cycles()

    def test_spike_injection_observed_not_simulated(self, tiny_trace):
        config = SimulationConfig().with_mu(2.0)
        plain = TelemetrySampler(TelemetryConfig(sample_cycles=5000.0))
        FluidEngine(tiny_trace, config, technique="dma-ta",
                    telemetry=plain).run()
        spiked = TelemetrySampler(TelemetryConfig(
            sample_cycles=5000.0, inject_spike_cycles=1e6,
            inject_spike_at_frac=0.5))
        result = FluidEngine(tiny_trace, config, technique="dma-ta",
                             telemetry=spiked).run()
        _, deg_plain = plain.series("degradation_cycles")
        _, deg_spiked = spiked.series("degradation_cycles")
        # Exactly one observed sample carries the phantom cycles...
        assert np.sum(np.abs(deg_spiked - deg_plain) > 0) == 1
        # ...and the simulation itself never saw them.
        assert (result.head_delay_cycles
                + result.extra_service_cycles) < 1e6
