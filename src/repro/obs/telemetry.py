"""Live per-epoch telemetry: sampler, bounded store, and exporters.

Both engines can carry a :class:`TelemetrySampler` (``simulate(...,
telemetry=sampler)``). The sampler is a probe (:mod:`repro.obs.probe`):
the engine's run loop hands it the run's shared packed snapshot at its
own cadence (the DMA-TA epoch length by default, so
"per-epoch" is literal when a DMA-TA technique runs and epoch-equivalent
otherwise), from which it records:

* per-chip power-state residency-to-date (the seven
  :data:`RESIDENCY_BUCKETS`) and instantaneous power draw,
* the slack account balance and pending (buffered) transfer count,
* cumulative ``pl.migration`` moves plus a derived wave counter,
* per-bus utilization and queue depth,
* degradation-to-date (head delay + extra service cycles) and the
  cumulative arrived-request count.

Samples land in a :class:`TelemetryStore` — a
:class:`~repro.obs.probe.DownsamplingRing` of numpy rows, deterministic
2:1 downsampling on overflow, so memory stays O(capacity) regardless of
trace length — and fan out to pluggable
streaming exporters (:class:`JsonlExporter`, :class:`PrometheusExporter`,
:class:`SseBroker`; see :mod:`repro.obs.serve` for the HTTP side).

Two online anomaly detectors watch the stream: a CUSUM on the
degradation rate and a threshold on slack-pending drift. Alarms are
recorded on ``sampler.anomalies`` and — when the run is traced — emitted
as ``telemetry.anomaly`` instants into the existing tracer/audit
pipeline.

The sampler is strictly observational: the snapshot never calls
``touch`` / ``advance`` on a chip (splitting an accrual changes float
rounding), a probe tick is not an event and never counts towards the
run's horizon, and the array-timeline kernel cuts its batching windows
at the next probe tick. A telemetry-enabled run is therefore
bit-identical in :class:`~repro.energy.accounting.EnergyBreakdown` to a
disabled one — the same guarantee the tracer and auditor meet (gated by
``tests/integration/test_telemetry_equivalence.py``).
"""

from __future__ import annotations

import json
import math
import queue
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import check_period
from repro.energy.accounting import BUCKETS as RESIDENCY_BUCKETS
from repro.errors import ConfigurationError, TelemetryError
from repro.obs.events import TRACK_SIM
from repro.obs.probe import (
    SNAPSHOT_SCALARS,
    DownsamplingRing,
    probe_period,
    snapshot_fields,
)

#: Run-wide scalar columns, in row order (per-chip and per-bus blocks
#: follow them; see :meth:`TelemetrySampler.bind`). The snapshot's
#: scalars keep their snapshot indices.
SCALAR_COLUMNS = (*SNAPSHOT_SCALARS, "migration_waves", "power_w")

_I_TS, _I_REQ, _I_DEG, _I_BAL, _I_PEND, _I_MIG, _I_WAVES, _I_POWER = range(8)

#: Samples used to estimate the degradation-rate reference mean/sigma
#: before the CUSUM arms (and re-arms after each alarm).
CUSUM_WARMUP = 16

#: CUSUM slack ``k`` in estimated sigmas.
CUSUM_K_SIGMAS = 1.0

#: CUSUM alarm threshold ``h`` in estimated sigmas.
CUSUM_H_SIGMAS = 10.0

#: Samples used to baseline the slack-pending count.
PENDING_WARMUP = 8

#: Absolute slack-pending alarm threshold; ``None`` derives
#: ``max(8, 4 * warmup max)`` from the warmup window.
PENDING_LIMIT: float | None = None


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryConfig:
    """Sampler parameters.

    Attributes:
        sample_cycles: sampling period in memory cycles. ``None`` (the
            default) uses the run's DMA-TA epoch length when the
            controller has one, else ``config.alignment.epoch_cycles``.
            A given period must be finite and at least one cycle.
        capacity: ring rows kept in memory; on overflow every other row
            is dropped and the acceptance stride doubles (deterministic
            2:1 downsampling, O(capacity) memory forever).
        inject_spike_cycles: fault injection — add this many phantom
            degradation cycles to the *observed* series (the simulation
            is untouched) at the first sample past
            ``inject_spike_at_frac`` of the trace, so tests and CI can
            prove the CUSUM detector fires.
        inject_spike_at_frac: where in the trace the spike lands.
    """

    sample_cycles: float | None = None
    capacity: int = 2048
    inject_spike_cycles: float = 0.0
    inject_spike_at_frac: float = 0.5

    def __post_init__(self) -> None:
        if self.sample_cycles is not None:
            check_period("sample_cycles", self.sample_cycles)
        if self.capacity < 8 or self.capacity % 2:
            raise ConfigurationError("capacity must be an even number >= 8")
        if not 0.0 <= self.inject_spike_at_frac <= 1.0:
            raise ConfigurationError(
                "inject_spike_at_frac must be in [0, 1]")


# ---------------------------------------------------------------------------
# Bounded columnar store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetrySnapshot:
    """A consistent copy of the store (safe to read from any thread)."""

    columns: tuple[str, ...]
    data: np.ndarray  # shape (rows, len(columns))
    stride: int
    ticks: int
    dropped: int

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def __len__(self) -> int:
        return self.data.shape[0]


class TelemetryStore(DownsamplingRing):
    """The sampler's bounded columnar store: one numpy row per sample in
    a :class:`~repro.obs.probe.DownsamplingRing` (row ``i`` holds tick
    ``i * stride``)."""

    def __init__(self, columns: Sequence[str], capacity: int = 2048) -> None:
        super().__init__(capacity)
        self.columns = tuple(columns)

    def snapshot(self) -> TelemetrySnapshot:
        with self._lock:
            rows, stride = list(self._rows), self._stride
            ticks, dropped = self._ticks, self._dropped
        data = (np.array(rows) if rows
                else np.zeros((0, len(self.columns))))
        return TelemetrySnapshot(columns=self.columns, data=data,
                                 stride=stride, ticks=ticks, dropped=dropped)


# ---------------------------------------------------------------------------
# Anomaly detectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryAnomaly:
    """One online-detector alarm."""

    kind: str
    ts: float
    sample_index: int
    value: float
    threshold: float
    message: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "ts": self.ts,
                "sample": self.sample_index, "value": self.value,
                "threshold": self.threshold, "message": self.message}


class CusumDetector:
    """One-sided CUSUM on the per-sample degradation increment.

    Degradation increments are heavy-tailed and bursty (a wake cascade
    lands tens of thousands of head-delay cycles in one sample), so a
    plain fixed-reference CUSUM drowns in false alarms. Three
    robustness measures keep the detector quiet on healthy runs while
    still catching genuine shifts:

    * the reference mean/sigma come from a warmup window with scale
      floors (``std``, ``5% |mean|``, ``50%`` of the largest warmup
      increment), so a zero-variance warmup cannot collapse sigma;
    * between alarms, mean and sigma adapt by asymmetric EWMA — fast
      up (0.25), slow down (0.01) — so the learned burst scale is
      sticky and routine bursts stop re-alarming;
    * after an alarm the recursion resets and the reference re-enters
      warmup (keeping the learned sigma as a floor), so a sustained
      shift yields one alarm per regime, not one per sample.

    The recursion itself is the classic ``s = max(0, s + x - (mean +
    k*sigma))`` with alarm at ``s > h*sigma``.
    """

    kind = "degradation-cusum"

    _ALPHA_UP = 0.25
    _ALPHA_DOWN = 0.01
    #: |deviation| -> sigma scale factor for a normal distribution
    #: (E|X-mu| = sigma * sqrt(2/pi), so sigma = dev * 1.2533).
    _DEV_TO_SIGMA = 1.2533

    def __init__(self, warmup: int = CUSUM_WARMUP,
                 k_sigmas: float = CUSUM_K_SIGMAS,
                 h_sigmas: float = CUSUM_H_SIGMAS) -> None:
        self._warmup = warmup
        self._k_sigmas = k_sigmas
        self._h_sigmas = h_sigmas
        self._window: list[float] = []
        self._mean: float | None = None
        self._sigma = 0.0
        self._s = 0.0
        self._prev: float | None = None

    def observe(self, index: int, ts: float,
                total: float) -> TelemetryAnomaly | None:
        if self._prev is None:
            self._prev = total
            return None
        x = total - self._prev
        self._prev = total
        if self._mean is None:
            self._window.append(x)
            if len(self._window) >= self._warmup:
                mean = sum(self._window) / len(self._window)
                var = sum((v - mean) ** 2
                          for v in self._window) / len(self._window)
                estimate = max(math.sqrt(var), abs(mean) * 0.05,
                               0.5 * max(abs(v) for v in self._window),
                               1e-9)
                self._mean = mean
                self._sigma = max(estimate, self._sigma)
            return None
        self._s = max(0.0, self._s + x - (self._mean
                                          + self._k_sigmas * self._sigma))
        threshold = self._h_sigmas * self._sigma
        if self._s > threshold:
            score = self._s
            mean = self._mean
            self._s = 0.0
            self._window = []
            self._mean = None  # re-baseline; sigma floor carries over
            return TelemetryAnomaly(
                kind=self.kind, ts=ts, sample_index=index, value=x,
                threshold=threshold,
                message=(f"degradation rate shifted: CUSUM score "
                         f"{score:.3g} > h={threshold:.3g} (increment "
                         f"{x:.3g} cycles/sample vs reference "
                         f"{mean:.3g})"))
        deviation = abs(x - self._mean) * self._DEV_TO_SIGMA
        alpha = (self._ALPHA_UP if deviation > self._sigma
                 else self._ALPHA_DOWN)
        self._mean += alpha * (x - self._mean)
        self._sigma = max((1 - alpha) * self._sigma + alpha * deviation,
                          0.05 * abs(self._mean), 1e-9)
        return None


class PendingDriftDetector:
    """Threshold alarm on slack-pending drift.

    The limit is either configured absolutely or derived from the warmup
    window (``max(8, 4 * warmup max)``); once tripped, the detector
    re-arms only after the pending count falls back below half the
    limit, so one sustained excursion yields one alarm.
    """

    kind = "slack-pending-drift"

    def __init__(self, warmup: int = PENDING_WARMUP,
                 limit: float | None = PENDING_LIMIT) -> None:
        self._warmup = warmup
        self._limit = limit
        self._window: list[float] = []
        self._armed = True

    def observe(self, index: int, ts: float,
                pending: float) -> TelemetryAnomaly | None:
        if self._limit is None:
            self._window.append(pending)
            if len(self._window) >= self._warmup:
                self._limit = max(8.0, 4.0 * max(self._window))
            return None
        if not self._armed:
            if pending <= self._limit / 2.0:
                self._armed = True
            return None
        if pending <= self._limit:
            return None
        self._armed = False
        return TelemetryAnomaly(
            kind=self.kind, ts=ts, sample_index=index, value=pending,
            threshold=self._limit,
            message=(f"pending transfers drifted to {pending:.0f} "
                     f"(> limit {self._limit:.0f}): the gather backlog "
                     "is growing faster than releases clear it"))


# ---------------------------------------------------------------------------
# Streaming exporters
# ---------------------------------------------------------------------------

class TelemetryExporter:
    """Exporter interface: receives every captured sample, pre-downsample."""

    def on_bind(self, columns: tuple[str, ...]) -> None:  # pragma: no cover
        pass

    def on_sample(self, row: np.ndarray,
                  anomalies: Sequence[TelemetryAnomaly]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class JsonlExporter(TelemetryExporter):
    """Append-stream JSONL: one ``telemetry.sample`` object per sample
    (flat, column name -> value) and one ``telemetry.anomaly`` object per
    alarm, flushed per line so the stream can be tailed live."""

    def __init__(self, path) -> None:
        self.path = str(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._columns: tuple[str, ...] = ()
        self.lines = 0

    def on_bind(self, columns: tuple[str, ...]) -> None:
        self._columns = columns

    def on_sample(self, row: np.ndarray,
                  anomalies: Sequence[TelemetryAnomaly]) -> None:
        payload = {"event": "telemetry.sample"}
        payload.update(zip(self._columns, (float(v) for v in row)))
        self._handle.write(json.dumps(payload) + "\n")
        self.lines += 1
        for anomaly in anomalies:
            self._handle.write(json.dumps(
                {"event": "telemetry.anomaly", **anomaly.as_dict()}) + "\n")
            self.lines += 1
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def prometheus_series(column: str) -> tuple[str, dict[str, str]]:
    """Map a store column to its Prometheus metric name and labels."""
    if column.startswith("chip"):
        head, _, bucket = column.partition(".")
        chip = head[4:]
        if bucket == "power_w":
            return "repro_chip_power_watts", {"chip": chip}
        return "repro_chip_residency_cycles", {"chip": chip,
                                               "bucket": bucket}
    if column.startswith("bus"):
        head, _, field_name = column.partition(".")
        bus = head[3:]
        name = {"util": "repro_bus_utilization",
                "queue_depth": "repro_bus_queue_depth"}[field_name]
        return name, {"bus": bus}
    return {
        "ts": "repro_sim_cycles",
        "requests": "repro_requests_total",
        "degradation_cycles": "repro_degradation_cycles_total",
        "slack_balance": "repro_slack_balance_cycles",
        "slack_pending": "repro_slack_pending_transfers",
        "migrations": "repro_migrations_total",
        "migration_waves": "repro_migration_waves_total",
        "power_w": "repro_power_watts",
    }[column], {}


_PROM_HELP = {
    "repro_sim_cycles": "Simulation clock at the latest sample",
    "repro_requests_total": "Arrived DMA-memory requests",
    "repro_degradation_cycles_total":
        "Head delay plus extra service cycles to date",
    "repro_slack_balance_cycles": "DMA-TA slack account balance",
    "repro_slack_pending_transfers": "Buffered (gathered) DMA transfers",
    "repro_migrations_total": "Cumulative PL page moves",
    "repro_migration_waves_total": "Distinct PL migration waves",
    "repro_power_watts": "Instantaneous memory-system power draw",
    "repro_chip_power_watts": "Instantaneous per-chip power draw",
    "repro_chip_residency_cycles": "Per-chip residency-to-date by bucket",
    "repro_bus_utilization": "Bus busy indicator (transfer on the wire)",
    "repro_bus_queue_depth": "Transfers parked in the bus FIFO",
    "repro_telemetry_samples_total": "Telemetry samples captured",
    "repro_telemetry_anomalies_total": "Online-detector alarms emitted",
}


class PrometheusExporter(TelemetryExporter):
    """Latest-sample holder rendering Prometheus text exposition.

    ``render()`` (served at ``/metrics`` by
    :class:`repro.obs.serve.TelemetryServer`) groups series by metric
    family with ``# HELP`` / ``# TYPE`` headers; ``*_total`` families are
    counters (they are cumulative in the simulation), everything else a
    gauge.
    """

    def __init__(self) -> None:
        self._columns: tuple[str, ...] = ()
        self._latest: np.ndarray | None = None
        self.samples = 0
        self.anomalies = 0
        self._lock = threading.Lock()

    def on_bind(self, columns: tuple[str, ...]) -> None:
        self._columns = columns

    def on_sample(self, row: np.ndarray,
                  anomalies: Sequence[TelemetryAnomaly]) -> None:
        with self._lock:
            self._latest = row.copy()
            self.samples += 1
            self.anomalies += len(anomalies)

    def render(self) -> str:
        with self._lock:
            latest = self._latest
            samples = self.samples
            anomalies = self.anomalies
        families: dict[str, list[str]] = {}
        order: list[str] = []
        if latest is not None:
            for column, value in zip(self._columns, latest):
                name, labels = prometheus_series(column)
                if name not in families:
                    families[name] = []
                    order.append(name)
                if labels:
                    label_text = ",".join(
                        f'{k}="{v}"' for k, v in labels.items())
                    series = f"{name}{{{label_text}}}"
                else:
                    series = name
                families[name].append(f"{series} {float(value):g}")
        for name, value in (("repro_telemetry_samples_total", samples),
                            ("repro_telemetry_anomalies_total", anomalies)):
            families[name] = [f"{name} {value}"]
            order.append(name)
        lines: list[str] = []
        for name in order:
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# HELP {name} {_PROM_HELP.get(name, name)}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(families[name])
        return "\n".join(lines) + "\n"


class SseBroker(TelemetryExporter):
    """Fan-out queue bridge for the ``/events`` Server-Sent-Events feed.

    Each subscriber gets a bounded queue of ``(event, json-payload)``
    pairs; slow consumers drop oldest-first rather than stalling the
    simulation thread. ``close()`` wakes every subscriber with a ``None``
    sentinel.
    """

    def __init__(self, max_queued: int = 256) -> None:
        self._max_queued = max_queued
        self._subscribers: list[queue.Queue] = []
        self._columns: tuple[str, ...] = ()
        self._lock = threading.Lock()
        self.closed = False

    def on_bind(self, columns: tuple[str, ...]) -> None:
        self._columns = columns

    def subscribe(self) -> queue.Queue:
        subscriber: queue.Queue = queue.Queue(maxsize=self._max_queued)
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: queue.Queue) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def _publish(self, item) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            while True:
                try:
                    subscriber.put_nowait(item)
                    break
                except queue.Full:
                    try:
                        subscriber.get_nowait()
                    except queue.Empty:  # pragma: no cover - race only
                        break

    def publish(self, event: str, payload: str) -> None:
        """Fan one already-serialised SSE event out to every subscriber.

        The sample path goes through :meth:`on_sample`; this is the
        generic entry point other producers (the fleet collector) use to
        ride the same bounded drop-oldest queues.
        """
        self._publish((event, payload))

    def on_sample(self, row: np.ndarray,
                  anomalies: Sequence[TelemetryAnomaly]) -> None:
        payload = dict(zip(self._columns, (float(v) for v in row)))
        self._publish(("sample", json.dumps(payload)))
        for anomaly in anomalies:
            self._publish(("anomaly", json.dumps(anomaly.as_dict())))

    def close(self) -> None:
        self.closed = True
        self._publish(None)


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------

class TelemetrySampler:
    """Per-epoch read-only sampler attached to one engine run.

    Pass an instance as ``simulate(..., telemetry=sampler)``. It is a
    probe (:mod:`repro.obs.probe`): the engine calls :meth:`bind` at
    construction and :meth:`sample` with the shared snapshot at each of
    the sampler's ticks plus once at the end of the run. A sampler is
    single-use — bind a fresh one per run.
    """

    def __init__(self, config: TelemetryConfig | None = None,
                 exporters: Sequence[TelemetryExporter] = ()) -> None:
        self.config = config or TelemetryConfig()
        self.exporters = list(exporters)
        self.store: TelemetryStore | None = None
        self.columns: tuple[str, ...] = ()
        self.anomalies: list[TelemetryAnomaly] = []
        self.samples_captured = 0
        self.sample_cycles = 0.0
        self._tracer = None
        self._take = None
        self._powers = slice(0)
        self._last_migrations = 0.0
        self._waves = 0
        self._spike_at = math.inf
        self._spike_pending = 0.0
        self._cusum = CusumDetector()
        self._pending = PendingDriftDetector()

    # --- binding ----------------------------------------------------------

    def bind(self, engine) -> None:
        """Attach to an engine (fluid or precise) before its run starts."""
        if self.store is not None:
            raise TelemetryError(
                "TelemetrySampler is single-use: already bound to a run")
        self._tracer = engine.tracer
        self.sample_cycles = probe_period(engine, self.config.sample_cycles)

        # Each column copies one snapshot field (a bus's util is its
        # busy flag); migration_waves and power_w are derived per sample
        # (their take index is a placeholder).
        where = {name: i
                 for i, name in enumerate(snapshot_fields(engine.config))}
        chips = range(engine.config.memory.num_chips)
        columns = list(SCALAR_COLUMNS)
        take = [where.get(name, 0) for name in SCALAR_COLUMNS]
        for chip in chips:
            for name in ("power_w", *RESIDENCY_BUCKETS):
                columns.append(f"chip{chip}.{name}")
                take.append(where[f"chip{chip}.{name}"])
        for bus in range(engine.config.buses.count):
            for name, source in (("util", "busy"),
                                 ("queue_depth", "queue_depth")):
                columns.append(f"bus{bus}.{name}")
                take.append(where[f"bus{bus}.{source}"])
        self.columns = tuple(columns)
        self._take = np.array(take)
        block = 1 + len(RESIDENCY_BUCKETS)  # a chip's power_w leads
        self._powers = slice(len(SCALAR_COLUMNS),
                             len(SCALAR_COLUMNS) + len(chips) * block, block)
        self.store = TelemetryStore(self.columns,
                                    capacity=self.config.capacity)

        if self.config.inject_spike_cycles > 0:
            self._spike_at = (self.config.inject_spike_at_frac
                              * engine.trace.duration_cycles)
            self._spike_pending = self.config.inject_spike_cycles
        for exporter in self.exporters:
            exporter.on_bind(self.columns)

    # --- sampling ---------------------------------------------------------

    def sample(self, snapshot) -> None:
        """Record one probe snapshot (see :func:`snapshot_fields`): the
        packed float64 array a :class:`~repro.obs.probe.ProbeSet` hands
        out, or any sequence of floats laid out the same way."""
        if self.store is None:
            raise TelemetryError("sample() before bind(): attach the "
                                 "sampler via simulate(telemetry=...)")
        # One fancy index copies every column; the scalars keep their
        # snapshot indices, so they are read back from the row.
        row = np.asarray(snapshot)[self._take]
        now, _, degradation, _, pending, migrations = (
            row[:_I_WAVES].tolist())
        if self._spike_pending and now >= self._spike_at:
            degradation += self._spike_pending
            self._spike_pending = 0.0
        row[_I_DEG] = degradation
        if migrations > self._last_migrations:
            self._waves += 1
            self._last_migrations = migrations
        row[_I_WAVES] = float(self._waves)
        total_power = 0.0
        for power in row[self._powers].tolist():
            total_power += power
        row[_I_POWER] = total_power

        index = self.samples_captured
        self.samples_captured += 1

        fresh = [alarm for alarm in (
            self._cusum.observe(index, now, degradation),
            self._pending.observe(index, now, pending))
            if alarm is not None]
        for anomaly in fresh:
            self.anomalies.append(anomaly)
            if self._tracer is not None:
                self._tracer.instant(now, "telemetry.anomaly", TRACK_SIM,
                                     anomaly.as_dict())

        self.store.append(row)
        for exporter in self.exporters:
            exporter.on_sample(row, fresh)

    # --- teardown / convenience ------------------------------------------

    def close(self) -> None:
        for exporter in self.exporters:
            exporter.close()

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(ts, values) arrays for one retained column."""
        if self.store is None:
            raise TelemetryError("series() before bind()")
        snapshot = self.store.snapshot()
        return snapshot.column("ts"), snapshot.column(name)


__all__ = [
    "RESIDENCY_BUCKETS", "SCALAR_COLUMNS",
    "TelemetryConfig", "TelemetryStore", "TelemetrySnapshot",
    "TelemetrySampler", "TelemetryAnomaly",
    "CusumDetector", "PendingDriftDetector",
    "TelemetryExporter", "JsonlExporter", "PrometheusExporter",
    "SseBroker", "prometheus_series",
]
