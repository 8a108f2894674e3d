"""Units for the busy-interval builder and heatmap renderer."""

import pytest

from repro import simulate
from repro.analysis.timeline import (
    SHADES,
    activity_share,
    bucketize,
    busy_intervals,
    render_heatmap,
    render_row,
)
from repro.config import BusConfig, MemoryConfig, SimulationConfig
from repro.errors import ConfigurationError
from repro.obs.tracer import RingTracer
from repro.traces.records import DMATransfer
from repro.traces.trace import Trace

MB = 1 << 20


class TestBucketize:
    def test_full_coverage(self):
        loads = bucketize([(0.0, 100.0, 1.0)], 0.0, 100.0, 4)
        assert loads == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_partial_interval(self):
        loads = bucketize([(0.0, 50.0, 1.0)], 0.0, 100.0, 4)
        assert loads == pytest.approx([1.0, 1.0, 0.0, 0.0])

    def test_fractional_load(self):
        loads = bucketize([(0.0, 100.0, 1 / 3)], 0.0, 100.0, 2)
        assert loads == pytest.approx([1 / 3, 1 / 3])

    def test_out_of_range_clipped(self):
        loads = bucketize([(-50.0, 150.0, 1.0)], 0.0, 100.0, 2)
        assert loads == pytest.approx([1.0, 1.0])

    def test_caps_at_one(self):
        loads = bucketize([(0.0, 100.0, 1.0), (0.0, 100.0, 1.0)],
                          0.0, 100.0, 1)
        assert loads == [1.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bucketize([], 0.0, 100.0, 0)
        with pytest.raises(ConfigurationError):
            bucketize([], 100.0, 0.0, 4)

    def test_empty_interval_list(self):
        assert bucketize([], 0.0, 100.0, 4) == [0.0, 0.0, 0.0, 0.0]

    def test_zero_width_window_rejected(self):
        with pytest.raises(ConfigurationError):
            bucketize([(0.0, 10.0, 1.0)], 50.0, 50.0, 4)

    def test_interval_entirely_past_window(self):
        loads = bucketize([(200.0, 300.0, 1.0)], 0.0, 100.0, 2)
        assert loads == [0.0, 0.0]

    def test_interval_entirely_before_window(self):
        loads = bucketize([(-300.0, -200.0, 1.0)], 0.0, 100.0, 2)
        assert loads == [0.0, 0.0]

    def test_zero_width_interval_contributes_nothing(self):
        loads = bucketize([(50.0, 50.0, 1.0)], 0.0, 100.0, 2)
        assert loads == [0.0, 0.0]


class TestRendering:
    def test_row_uses_shades(self):
        row = render_row([(0.0, 50.0, 1.0)], 0.0, 100.0, 10)
        assert len(row) == 10
        assert row[0] == SHADES[-1]
        assert row[-1] == SHADES[0]

    def test_heatmap_rows_per_chip(self):
        heatmap = render_heatmap(
            {0: [(0.0, 10.0, 1.0)], 3: []}, duration_cycles=100.0,
            width=20, title="T")
        lines = heatmap.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("chip 0")
        assert lines[2].startswith("chip 3")

    def test_empty_heatmap(self):
        assert "no timeline" in render_heatmap({}, 100.0)

    def test_activity_share(self):
        shares = activity_share({0: [(0.0, 25.0, 0.5)], 1: []}, 100.0)
        assert shares[0] == pytest.approx(0.25)
        assert shares[1] == 0.0

    def test_activity_share_empty_intervals(self):
        assert activity_share({0: []}, 100.0) == {0: 0.0}

    def test_activity_share_zero_duration(self):
        shares = activity_share({0: [(0.0, 25.0, 0.5)]}, 0.0)
        assert shares[0] == 0.0

    def test_activity_share_interval_past_duration(self):
        # An interval starting at/after the horizon is excluded; one
        # straddling it is clipped to the horizon.
        shares = activity_share(
            {0: [(200.0, 300.0, 1.0)], 1: [(50.0, 150.0, 1.0)]}, 100.0)
        assert shares[0] == 0.0
        assert shares[1] == pytest.approx(0.5)


class TestRecording:
    @pytest.fixture
    def config(self):
        return SimulationConfig(
            memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
            buses=BusConfig(count=3))

    def test_simulate_records(self, config):
        trace = Trace(name="t", records=[
            DMATransfer(time=1000.0, page=0, size_bytes=8192)],
            duration_cycles=100_000.0)
        spans = RingTracer()
        simulate(trace, config=config, tracer=spans)
        timeline = busy_intervals(spans.events)
        assert sorted(timeline) == [0, 1, 2, 3]
        busy_chips = [cid for cid, iv in timeline.items() if iv]
        assert len(busy_chips) == 1
        intervals = timeline[busy_chips[0]]
        total = sum(t1 - t0 for t0, t1, _ in intervals)
        assert total == pytest.approx(1024 * 12.0, rel=0.05)
        assert all(0.0 < busy <= 1.0 for _, _, busy in intervals)

    def test_precise_engine_records(self, config):
        """A precise chip's ``serve`` spans are its busy intervals: one
        per request, at full rate."""
        trace = Trace(name="t", records=[
            DMATransfer(time=1000.0, page=0, size_bytes=8192)],
            duration_cycles=100_000.0)
        spans = RingTracer()
        result = simulate(trace, config=config, engine="precise",
                          tracer=spans)
        timeline = busy_intervals(spans.events)
        (chip,) = [cid for cid, iv in timeline.items() if iv]
        assert len(timeline[chip]) == result.requests
        assert all(busy == 1.0 for _, _, busy in timeline[chip])
        assert sum(t1 - t0 for t0, t1, _ in timeline[chip]) == \
            pytest.approx(result.time.serving_dma)
