"""Units for the watch dashboard HTTP server (repro.obs.serve) and the
HTML panel renderer (repro.obs.dashboard)."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.obs.dashboard import (
    decimate,
    low_power_share,
    render_page,
    render_panels,
)
from repro.obs.fleet import FleetCollector, FleetConfig
from repro.obs.serve import FleetServer, TelemetryServer
from repro.obs.telemetry import (
    TelemetryConfig,
    TelemetrySampler,
    TelemetrySnapshot,
    TelemetryStore,
)
from repro.sim.fluid import FluidEngine
from repro.traces.synthetic import synthetic_storage_trace


def _get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


@pytest.fixture(scope="module")
def finished_sampler():
    """A sampler that rode one short dma-ta-pl run to completion."""
    trace = synthetic_storage_trace(duration_ms=0.5, transfers_per_ms=60,
                                    seed=3)
    sampler = TelemetrySampler(TelemetryConfig(sample_cycles=5000.0))
    FluidEngine(trace, SimulationConfig().with_mu(2.0),
                technique="dma-ta-pl", telemetry=sampler).run()
    return sampler


@pytest.fixture
def server(finished_sampler):
    server = TelemetryServer(finished_sampler, port=0, title="unit run")
    for exporter in server.exporters:
        exporter.on_bind(finished_sampler.columns)
    snapshot = finished_sampler.store.snapshot()
    server.prometheus.on_sample(snapshot.data[-1], [])
    server.start()
    yield server
    server.stop()


class TestEndpoints:
    def test_ephemeral_port_and_url(self, server):
        assert server.port != 0
        assert server.url == f"http://127.0.0.1:{server.port}/"

    def test_index_serves_dashboard_shell(self, server):
        status, ctype, body = _get(server.url)
        assert status == 200
        assert ctype.startswith("text/html")
        assert "unit run" in body
        assert "EventSource" in body

    def test_panels_fragment(self, server):
        status, _, body = _get(server.url + "panels")
        assert status == 200
        assert body.startswith('<div id="panels">')
        assert "<svg" in body
        assert "sim clock" in body

    def test_data_json(self, server, finished_sampler):
        status, ctype, body = _get(server.url + "data.json")
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["columns"] == list(finished_sampler.columns)
        assert len(payload["rows"]) == len(finished_sampler.store.snapshot())
        assert payload["stride"] >= 1

    def test_metrics_exposition(self, server):
        status, ctype, body = _get(server.url + "metrics")
        assert status == 200
        assert "version=0.0.4" in ctype
        assert "# TYPE repro_sim_cycles gauge" in body
        assert "# TYPE repro_requests_total counter" in body
        assert body.endswith("\n")

    def test_unknown_path_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "nope")
        assert excinfo.value.code == 404

    def test_sse_delivers_published_samples(self, server):
        lines = []
        done = threading.Event()

        def reader():
            request = urllib.request.urlopen(server.url + "events",
                                             timeout=5)
            for raw in request:
                lines.append(raw.decode("utf-8"))
                if len(lines) >= 3:
                    break
            done.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        # Wait until the subscriber is registered, then publish.
        for _ in range(100):
            if server.sse._subscribers:
                break
            threading.Event().wait(0.01)
        row = np.zeros(len(server.sampler.columns))
        server.sse.on_sample(row, [])
        assert done.wait(timeout=5)
        assert lines[0] == "event: sample\n"
        assert '"ts": 0.0' in lines[1]

    def test_unbound_sampler_degrades_gracefully(self):
        server = TelemetryServer(TelemetrySampler(), port=0)
        server.start()
        try:
            _, _, panels = _get(server.url + "panels")
            assert "not bound" in panels
            payload = json.loads(_get(server.url + "data.json")[2])
            assert payload == {"columns": [], "rows": [], "ticks": 0}
        finally:
            server.stop()

    def test_stop_is_clean_and_sse_wakes(self, server):
        # The watch server owns its broker; the fleet server streams the
        # collector's. Either way an open /events stream ends within one
        # keep-alive period of stop(), and stopping again returns.
        assert_stop_ends_open_stream(server, server.sse)
        collector = FleetCollector(FleetConfig())
        try:
            fleet = FleetServer(collector, port=0)
            fleet.start()
            assert_stop_ends_open_stream(fleet, collector.broker)
        finally:
            collector.close()


class TestDashboardRendering:
    def _snapshot(self, rows):
        columns = ("ts", "power_w", "chip0.low_power", "bus0.queue_depth")
        store = TelemetryStore(columns, capacity=512)
        for row in rows:
            store.append(np.asarray(row, dtype=float))
        return store.snapshot()

    def test_decimate_keeps_ends_and_bounds_length(self):
        values = list(range(1000))
        out = decimate(values, limit=100)
        assert len(out) <= 101
        assert out[0] == 0 and out[-1] == 999

    def test_decimate_short_series_untouched(self):
        assert decimate([1.0, 2.0], limit=100) == [1.0, 2.0]

    def test_low_power_share_fraction(self):
        snapshot = self._snapshot([[100.0, 1.0, 50.0, 0.0],
                                   [200.0, 1.0, 150.0, 0.0]])
        share = low_power_share(snapshot)
        assert share == [pytest.approx(0.5), pytest.approx(0.75)]

    def test_render_panels_empty_snapshot(self):
        snapshot = self._snapshot([])
        body = render_panels(snapshot, [])
        assert "waiting for the first sample" in body

    def test_render_panels_escapes_anomaly_text(self):
        from repro.obs.telemetry import TelemetryAnomaly

        snapshot = self._snapshot([[100.0, 1.0, 50.0, 0.0]])
        anomaly = TelemetryAnomaly(kind="x<y", ts=1.0, sample_index=0,
                                   value=1.0, threshold=0.5,
                                   message="<script>")
        body = render_panels(snapshot, [anomaly])
        assert "<script>" not in body
        assert "&lt;script&gt;" in body
        assert "Bus 0 queue depth" in body

    def test_render_page_self_contained(self):
        page = render_page("my <run>", refresh_ms=250)
        assert page.startswith("<!doctype html>")
        assert "my &lt;run&gt;" in page
        assert "src=" not in page  # no external assets
        assert "250" in page


def assert_stop_ends_open_stream(server, broker, keep_alive_s=1.0):
    ended = []

    def reader():
        with urllib.request.urlopen(server.url + "events",
                                    timeout=10) as stream:
            for _ in stream:
                pass
        ended.append(time.monotonic())

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    for _ in range(500):
        if broker._subscribers:
            break
        time.sleep(0.01)
    assert broker._subscribers, "the /events stream never subscribed"
    started = time.monotonic()
    server.stop()
    thread.join(timeout=10)
    assert ended, "the /events stream outlived stop()"
    assert ended[0] - started <= keep_alive_s
    server.stop()  # a second stop returns at once
