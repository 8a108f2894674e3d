"""One stdlib HTTP server for every live observability view.

:class:`ObservabilityServer` is a ``ThreadingHTTPServer`` run in a
daemon thread (``start()``/``stop()``, an ephemeral port via
``port=0``) that serves a route table: each path maps to a content type
and a body function called once per request. Every response carries
``Cache-Control: no-store``, and an unknown path is a 404. With an
:class:`~repro.obs.telemetry.SseBroker` attached, ``/events`` streams
its Server-Sent Events until the server stops or the broker closes.

Each observer only builds its table:

* :class:`TelemetryServer` (``repro watch``) over one
  :class:`~repro.obs.telemetry.TelemetrySampler`;
* :class:`FleetServer` (``repro sweep --watch``) over one
  :class:`~repro.obs.fleet.FleetCollector`;
* :class:`DiffServer` (``repro diff --serve``) over one finished
  :class:`~repro.obs.diff.DivergenceReport`.

docs/OBSERVABILITY.md ("The dashboard server") lists the three tables.
No third-party dependency: the whole thing is ``http.server`` +
``threading``, matching the repo's stdlib-only constraint.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable

from repro.obs.dashboard import (
    render_fleet_page,
    render_fleet_panels,
    render_page,
    render_panels,
    render_shell,
)
from repro.obs.telemetry import (
    PrometheusExporter,
    SseBroker,
    TelemetrySampler,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.diff import DivergenceReport
    from repro.obs.fleet import FleetCollector

logger = logging.getLogger("repro.obs.serve")

#: Seconds between SSE keep-alive comments when no events flow.
_SSE_PING_S = 1.0

HTML = "text/html; charset=utf-8"
JSON = "application/json"

#: A route table: path -> (content type, body function).
Routes = dict[str, tuple[str, Callable[[], str]]]


class ObservabilityServer(ThreadingHTTPServer):
    """Threaded HTTP server for one route table.

    Args:
        routes: path -> (content type, body function); the function is
            called once per request, on the request's thread.
        broker: when given, ``/events`` streams it. :meth:`stop`
            closes it, so every open stream ends at once.
        host, port: the bind address; ``port=0`` picks an ephemeral
            port (read the actual one from :attr:`port`).
        name: the serving thread's name, also used in the start-up log
            line.
    """

    daemon_threads = True

    def __init__(self, routes: Routes, broker: SseBroker | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 name: str = "obs-http") -> None:
        self.routes = routes
        self.broker = broker
        self.name = name
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}/"

    def start(self) -> None:
        thread = threading.Thread(target=self.serve_forever, name=self.name,
                                  daemon=True)
        thread.start()
        self._thread = thread
        logger.info("%s at %s", self.name, self.url)

    def stop(self) -> None:
        """End the streams, stop accepting and join; safe to repeat, and
        on a server that never started."""
        if self.broker is not None:
            self.broker.close()  # wakes every blocked stream
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()


class _Handler(BaseHTTPRequestHandler):
    """Serves its server's route table and ``/events``."""

    server: ObservabilityServer  # narrowed for do_GET

    # Route BaseHTTPRequestHandler's stderr chatter through the module
    # logger, so --log-format json captures access lines too.
    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler name)
        path = self.path.split("?", 1)[0]
        route = self.server.routes.get(path)
        try:
            if route is not None:
                content_type, body = route
                self._send(200, content_type, body())
            elif path == "/events" and self.server.broker is not None:
                self._stream(self.server.broker)
            else:
                self._send(404, "text/plain; charset=utf-8", "not found\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(payload)

    def _stream(self, broker: SseBroker) -> None:
        """Stream one SSE subscription until the broker closes (which
        :meth:`ObservabilityServer.stop` does)."""
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        subscriber = broker.subscribe()
        try:
            while not broker.closed:
                try:
                    item = subscriber.get(timeout=_SSE_PING_S)
                except queue.Empty:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                if item is None:  # close() sentinel
                    break
                event, payload = item
                self.wfile.write(
                    f"event: {event}\ndata: {payload}\n\n".encode("utf-8"))
                self.wfile.flush()
        finally:
            broker.unsubscribe(subscriber)


class TelemetryServer(ObservabilityServer):
    """``repro watch``'s dashboard over one telemetry sampler.

    The server owns a :class:`PrometheusExporter` and an
    :class:`SseBroker`; register both on the sampler via
    :attr:`exporters` before the run starts.
    """

    def __init__(self, sampler: TelemetrySampler, host: str = "127.0.0.1",
                 port: int = 0, title: str = "simulation",
                 refresh_ms: int = 1000) -> None:
        self.sampler = sampler
        self.prometheus = PrometheusExporter()
        self.sse = SseBroker()
        self.exporters = [self.prometheus, self.sse]
        page = render_page(title, refresh_ms)
        super().__init__({
            "/": (HTML, lambda: page),
            "/panels": (HTML, self._panels),
            "/data.json": (JSON, self._data),
            "/metrics": ("text/plain; version=0.0.4; charset=utf-8",
                         self.prometheus.render),
        }, broker=self.sse, host=host, port=port, name="telemetry-http")

    def _panels(self) -> str:
        store = self.sampler.store
        if store is None:
            return ('<div id="panels"><p class="meta">sampler not bound '
                    'yet</p></div>')
        return render_panels(store.snapshot(), list(self.sampler.anomalies))

    def _data(self) -> str:
        store = self.sampler.store
        if store is None:
            return json.dumps({"columns": [], "rows": [], "ticks": 0})
        snapshot = store.snapshot()
        return json.dumps({
            "columns": list(snapshot.columns),
            "rows": snapshot.data.tolist(),
            "stride": snapshot.stride,
            "ticks": snapshot.ticks,
            "dropped": snapshot.dropped,
            "anomalies": [a.as_dict() for a in self.sampler.anomalies],
        })


class FleetServer(ObservabilityServer):
    """``repro sweep --watch``'s dashboard over one fleet collector.

    ``/events`` streams the collector's broker, which :meth:`stop`
    closes as the collector's own ``close()`` would. The server does not
    own the collector: the sweep creates and closes it.
    """

    def __init__(self, collector: "FleetCollector",
                 host: str = "127.0.0.1", port: int = 0,
                 title: str = "sweep", refresh_ms: int = 1000) -> None:
        self.collector = collector
        page = render_fleet_page(title, refresh_ms)
        super().__init__({
            "/": (HTML, lambda: page),
            "/panels": (HTML,
                        lambda: render_fleet_panels(collector.snapshot())),
            "/fleet.json": (JSON, lambda: json.dumps(collector.snapshot())),
        }, broker=collector.broker, host=host, port=port, name="fleet-http")


class DiffServer(ObservabilityServer):
    """``repro diff --serve``: one finished divergence report.

    ``/`` shows the verdict, the report text (window causes included)
    and the summary line; ``/report.json`` the structured verdict.
    Static content, so no ``/events``.
    """

    def __init__(self, report: "DivergenceReport",
                 host: str = "127.0.0.1", port: int = 0,
                 title: str = "report") -> None:
        self.report = report
        verdict = "identical" if report.identical else "DIVERGED"
        page = render_shell(
            "repro diff", f"{title}: {verdict}", ["/report.json"],
            panels=[("report", report.render()),
                    ("summary", report.summary_line())])
        body = json.dumps(report.as_dict())
        super().__init__({
            "/": (HTML, lambda: page),
            "/report.json": (JSON, lambda: body),
        }, host=host, port=port, name="diff-http")


__all__ = ["ObservabilityServer", "TelemetryServer", "FleetServer",
           "DiffServer"]
