"""repro.obs — structured tracing, metrics, and trace export.

The observability layer of the simulator:

* **events + tracers** (:mod:`repro.obs.events`,
  :mod:`repro.obs.tracer`) — a structured trace-event protocol with an
  in-memory ring and a JSONL stream (``None`` disables tracing at zero
  overhead). Pass a tracer to :func:`repro.simulate` (or to
  :meth:`SimJob.run <repro.exec.jobs.SimJob.run>`, which every run verb
  of the CLI uses) and the engines emit per-chip power-state residency
  spans, DMA-TA gather/release batches, slack-account charges, PL
  page-migration batches, and per-epoch progress counters.
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms snapshotted into the :class:`MetricsReport` attached to
  every :class:`~repro.sim.results.SimulationResult`.
* **export** (:mod:`repro.obs.export`) — Chrome-trace/Perfetto JSON
  (``repro trace --out trace.json``; load it at https://ui.perfetto.dev)
  and plain-text summaries (``repro stats``).
* **wall** (:mod:`repro.obs.wall`) — the always-on wall-clock ledger:
  every run times its phases (calibrate, build, loop, probes, PL
  planning, the precise kernel's windows, result, other) at their
  boundaries and carries them as ``result.wall``, printed by ``repro
  simulate`` and exported by ``repro trace`` as a ``wall`` track.
* **audit** (:mod:`repro.obs.audit`) — an online :class:`Auditor` sink
  that maintains per-transfer latency waterfalls, an
  energy-conservation ledger cross-checked against
  :class:`~repro.energy.accounting.EnergyBreakdown`, and a live replay
  of the DMA-TA slack-guarantee machinery (``repro audit``).
* **telemetry** (:mod:`repro.obs.telemetry`) — a live per-epoch sampler
  (``simulate(..., telemetry=...)``) filling a bounded columnar store
  with residency/power/slack/migration/bus time series, streaming
  JSONL / Prometheus / SSE exporters, and online anomaly detectors.
  Telemetry-enabled runs stay bit-identical in energy.
* **diff** (:mod:`repro.obs.diff`) — differential observability:
  per-epoch rolling state-digest chains (``simulate(..., digests=...)``,
  bit-identity preserving like telemetry), first-divergence bisection
  between two :class:`~repro.exec.jobs.SimJob` runs (or a job and a
  saved trail) with field-level attribution and window causes
  (``repro diff``), and the machinery behind ``repro bench explain``.
* **fleet** (:mod:`repro.obs.fleet`) — cross-process observability for
  :func:`repro.exec.run_many` fan-outs: pool workers stream
  started/heartbeat/finished events, ring-buffered trace spans, and
  audit rollups to a parent-side :class:`FleetCollector`, whose
  heartbeat watchdog requeues stalled jobs onto the serial path and
  whose outputs are a merged fleet Perfetto trace, a sweep-level
  :class:`FleetReport`, and the live ``repro sweep --watch`` dashboard.
* **serve** (:mod:`repro.obs.serve`, :mod:`repro.obs.dashboard`) — one
  HTTP server and one page shell for the dashboards of ``repro watch``,
  ``repro sweep --watch`` and ``repro diff --serve``; each observer
  only supplies its route table.

See ``docs/OBSERVABILITY.md`` for the event schema and a Perfetto
walkthrough.
"""

from repro.obs.audit import (
    AuditReport,
    AuditViolation,
    Auditor,
    audit_result,
    audit_summary,
    write_audit_report,
)
from repro.obs.events import (
    PH_COUNTER,
    PH_INSTANT,
    PH_SPAN,
    TRACK_AUDIT,
    TRACK_BUS,
    TRACK_CHIP,
    TRACK_CONTROLLER,
    TRACK_FLEET,
    TRACK_SIM,
    TRACK_WALL,
    TRACK_WORKER,
    Event,
    bus_track,
    chip_track,
    worker_track,
)
from repro.obs.fleet import (
    FleetCollector,
    FleetConfig,
    FleetReport,
    FleetStall,
)
from repro.obs.diff import (
    DigestConfig,
    DigestRecorder,
    DigestStore,
    DigestTrail,
    DivergenceReport,
    diff_runs,
    first_divergent_bracket,
    read_trail,
    render_result_delta,
    result_delta,
    write_trail,
)
from repro.obs.export import (
    RESIDENCY_BUCKETS,
    chrome_trace,
    diff_chrome_trace,
    residency_from_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    MetricsReport,
    render_metrics,
)
from repro.obs.telemetry import (
    CusumDetector,
    JsonlExporter,
    PendingDriftDetector,
    PrometheusExporter,
    SseBroker,
    TelemetryAnomaly,
    TelemetryConfig,
    TelemetrySampler,
    TelemetrySnapshot,
    TelemetryStore,
)
from repro.obs.tracer import (
    JsonlTracer,
    RingTracer,
    Tracer,
    read_jsonl_events,
)
from repro.obs.wall import WallLedger

__all__ = [
    # events
    "Event", "PH_SPAN", "PH_INSTANT", "PH_COUNTER",
    "TRACK_CHIP", "TRACK_BUS", "TRACK_CONTROLLER", "TRACK_SIM",
    "TRACK_WALL", "TRACK_AUDIT", "TRACK_FLEET", "TRACK_WORKER",
    "chip_track", "bus_track", "worker_track",
    # fleet (cross-process sweep observability; repro.obs.serve's
    # FleetServer stays lazy alongside the telemetry dashboard)
    "FleetCollector", "FleetConfig", "FleetReport", "FleetStall",
    # audit
    "Auditor", "AuditReport", "AuditViolation",
    "audit_result", "audit_summary", "write_audit_report",
    # wall-clock ledger
    "WallLedger",
    # tracers
    "Tracer", "RingTracer", "JsonlTracer", "read_jsonl_events",
    # metrics
    "Counter", "Gauge", "Histogram", "HistogramSummary",
    "MetricsRegistry", "MetricsReport", "render_metrics",
    # export
    "chrome_trace", "diff_chrome_trace", "write_chrome_trace",
    "validate_chrome_trace", "residency_from_events",
    "RESIDENCY_BUCKETS",
    # diff (differential observability)
    "DigestConfig", "DigestRecorder", "DigestStore", "DigestTrail",
    "DivergenceReport", "diff_runs",
    "first_divergent_bracket", "read_trail", "write_trail",
    "result_delta", "render_result_delta",
    # telemetry (repro.obs.serve/.dashboard stay lazy: they pull in the
    # bench report's SVG machinery, which repro watch alone needs)
    "TelemetrySampler", "TelemetryConfig", "TelemetryStore",
    "TelemetrySnapshot", "TelemetryAnomaly", "CusumDetector",
    "PendingDriftDetector", "JsonlExporter", "PrometheusExporter",
    "SseBroker",
]
