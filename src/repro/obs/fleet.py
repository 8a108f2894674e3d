"""Cross-process observability for the exec fan-out.

:func:`repro.exec.run_many` workers normally run blind: their traces
die at the process boundary, and a stalled worker is a silent deadlock.
This module closes that gap with three pieces:

* **Liveness** — every job, serial or pooled, runs through the runner's
  one body (:func:`repro.exec.runner._run_job`). Under a fleet it posts
  ``job.started`` and ``job.finished`` (plus a periodic
  ``job.heartbeat`` from a tiny daemon thread while it runs in a pool
  worker) and returns its ring-buffered trace spans with its result.
  Pool workers post over the collector's queue; the serial path calls
  :meth:`FleetCollector.handle` directly. Messages are plain picklable
  dicts and carry no outcome.

* **Collector** — :class:`FleetCollector` owns the queue and drains it
  on a daemon thread in the submitting process. The runner reports each
  job's outcome to it exactly once, through :meth:`FleetCollector.settle`,
  wherever it settles the key: a pool result, a serial run, a cache
  hit, an explicit timeout, or a requeued run. A settled record ignores
  every later message, so a late message from an abandoned worker
  changes no outcome and no tally. A watchdog on the heartbeat stream
  detects stalled workers: no heartbeat for a bound derived from
  observed job wall-times flags the job, logs a ``fleet.stall``
  diagnosis naming it, and hands the key back to the runner
  (:meth:`take_stalled`) for cancellation and serial requeue. Live
  state fans out through an owned
  :class:`~repro.obs.telemetry.SseBroker` so ``repro sweep --watch`` can
  serve a fleet dashboard (:mod:`repro.obs.serve`).

* **Outputs** — :meth:`FleetCollector.report` aggregates everything into
  a :class:`FleetReport` (attached to bench records), and
  :meth:`FleetCollector.chrome_trace` merges the per-job spans into one
  fleet-wide Perfetto trace: a sweep lane with scheduling/queueing/cache
  annotations plus one track per worker, with each job's simulation
  spans rebased onto its wall-clock interval and stalled jobs flagged.

Span capture attaches a :class:`~repro.obs.tracer.RingTracer` to the
default job body — traced runs are bit-identical (a tier-1 gated
guarantee), so fleet-observed sweeps return byte-identical results to
serial ones.

Timestamps ride ``time.monotonic()``: on Linux ``CLOCK_MONOTONIC`` is
system-wide, so worker and parent clocks are directly comparable.
"""

from __future__ import annotations

import json
import logging
import math
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.obs.events import (
    PH_INSTANT,
    PH_SPAN,
    TRACK_FLEET,
    Event,
    worker_track,
)
from repro.obs.telemetry import SseBroker

logger = logging.getLogger(__name__)

#: The fleet trace's clock: events carry microsecond timestamps, so the
#: exporter's cycles->us conversion must be the identity.
FLEET_TRACE_HZ = 1e6


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

#: Period of a pool worker's heartbeat while it runs a job.
HEARTBEAT_S = 0.25

#: Queue-poll period of the collector's drain thread (bounds watchdog
#: latency).
POLL_S = 0.2

#: Floor of the derived stall bound.
STALL_FLOOR_S = 5.0

#: Derived stall bound = this factor times the longest computed job's
#: wall time (never below the floor or 20 heartbeats).
STALL_WALL_FACTOR = 8.0

#: Trace spans kept (and shipped) per job.
SPAN_CAPACITY = 512

#: The message kinds a worker posts; none of them carries an outcome.
_LIVENESS = ("job.started", "job.heartbeat", "job.finished")


@dataclass(frozen=True)
class FleetConfig:
    """The fleet settings ``repro sweep`` exposes.

    Attributes:
        stall_after_s: absolute no-heartbeat bound before a job is
            declared stalled; ``None`` derives one from observed job
            wall-times (see :meth:`FleetCollector.stall_bound`).
        inject_stall_tag: fault injection — a pool worker whose job
            label equals this freezes (sleeps without heartbeats) for
            ``inject_stall_s`` before running, so tests and CI can prove
            the watchdog detects, attributes, and recovers the stall.
        inject_stall_s: how long the injected freeze lasts.
    """

    stall_after_s: float | None = None
    inject_stall_tag: str = ""
    inject_stall_s: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails too: a NaN bound would flag every
        # running job at once, and time.sleep() rejects an infinite one.
        if self.stall_after_s is not None and not self.stall_after_s > 0:
            raise ConfigurationError("stall_after_s must be positive")
        if not 0 <= self.inject_stall_s < math.inf:
            raise ConfigurationError(
                "inject_stall_s must be finite and >= 0")
        if self.inject_stall_s > 0 and not self.inject_stall_tag:
            raise ConfigurationError(
                "inject_stall_s needs an inject_stall_tag to freeze")


# ---------------------------------------------------------------------------
# Collector state
# ---------------------------------------------------------------------------

@dataclass
class JobRecord:
    """Everything the collector knows about one unique job key.

    ``ok`` stays ``None`` until the runner settles the key
    (:meth:`FleetCollector.settle`); a settled record hears no message.
    """

    key: str
    tag: str = ""
    technique: str = ""
    submitted_mono: float | None = None
    started_mono: float | None = None
    finished_mono: float | None = None
    last_seen_mono: float | None = None
    worker: int | None = None  # worker slot, 0 = serial parent
    ok: bool | None = None
    error: str | None = None
    wall_s: float = 0.0
    cached: bool = False
    serial: bool = False
    requeued: bool = False
    stalled: bool = False
    spans: list[dict[str, Any]] = field(default_factory=list)
    duration_cycles: float = 0.0
    violations: dict[str, int] = field(default_factory=dict)

    @property
    def settled(self) -> bool:
        return self.ok is not None

    @property
    def running(self) -> bool:
        return (self.started_mono is not None
                and self.finished_mono is None
                and not self.serial and not self.stalled)


@dataclass
class _WorkerState:
    slot: int
    pid: int
    jobs_done: int = 0
    wall_s: float = 0.0
    busy_key: str | None = None
    last_seen_mono: float = 0.0
    stalled: bool = False


@dataclass(frozen=True)
class FleetStall:
    """One detected worker stall, attributed to its job."""

    key: str
    tag: str
    worker: int | None
    silent_s: float
    bound_s: float
    diagnosis: str

    def as_dict(self) -> dict[str, Any]:
        return {"key": self.key, "tag": self.tag, "worker": self.worker,
                "silent_s": self.silent_s, "bound_s": self.bound_s,
                "diagnosis": self.diagnosis}


@dataclass(frozen=True)
class FleetReport:
    """Sweep-level rollup of one fleet-observed ``run_many`` call."""

    total: int
    computed: int
    cached: int
    failed: int
    serial: int
    requeued: int
    wall_s: float
    jobs_per_s: float
    cache_hit_rate: float
    violations: dict[str, int]
    stalls: tuple[FleetStall, ...]
    workers: tuple[dict[str, Any], ...]
    spans_merged: int
    events_received: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "total": self.total, "computed": self.computed,
            "cached": self.cached, "failed": self.failed,
            "serial": self.serial, "requeued": self.requeued,
            "wall_s": self.wall_s, "jobs_per_s": self.jobs_per_s,
            "cache_hit_rate": self.cache_hit_rate,
            "violations": dict(self.violations),
            "stalls": [stall.as_dict() for stall in self.stalls],
            "workers": [dict(row) for row in self.workers],
            "spans_merged": self.spans_merged,
            "events_received": self.events_received,
        }

    def render(self) -> str:
        """Human-readable rollup; stall lines carry the greppable
        ``fleet.stall:`` prefix CI keys on."""
        lines = [
            f"fleet: {self.total} job(s) — {self.computed} computed, "
            f"{self.cached} cached, {self.failed} failed, "
            f"{self.serial} serial, {self.requeued} requeued — in "
            f"{self.wall_s:.2f}s ({self.jobs_per_s:.2f} jobs/s, cache "
            f"hit rate {self.cache_hit_rate:.0%})"
        ]
        for row in self.workers:
            lines.append(
                f"  worker {row['slot']}"
                f"{' (serial parent)' if row['slot'] == 0 else ''}: "
                f"{row['jobs_done']} job(s), {row['wall_s']:.2f}s busy"
                f"{' [stalled]' if row.get('stalled') else ''}")
        if self.violations:
            detail = ", ".join(f"{kind}: {count}" for kind, count
                               in sorted(self.violations.items()))
            lines.append(f"  violations: {detail}")
        else:
            lines.append("  violations: none")
        for stall in self.stalls:
            lines.append(stall.diagnosis)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The collector
# ---------------------------------------------------------------------------

class FleetCollector:
    """Parent-side aggregator for the worker event stream.

    Create one per ``run_many`` fan-out and pass it as ``fleet=``. The
    runner calls :meth:`start`, the submission hooks, :meth:`settle`
    once per key, and :meth:`quiesce`; the dashboard reads
    :meth:`snapshot` and subscribes to :attr:`broker`; callers pull
    :meth:`report` / :meth:`chrome_trace` afterwards.

    ``clock`` is injectable for deterministic watchdog tests.
    """

    def __init__(self, config: FleetConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or FleetConfig()
        self._clock = clock
        from repro.exec.runner import executor_mp_context
        import multiprocessing

        context = executor_mp_context() or multiprocessing.get_context()
        self.queue = context.Queue()
        self.broker = SseBroker()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._pid = os.getpid()  # the serial parent, worker slot 0
        self.jobs: dict[str, JobRecord] = {}
        self._workers: dict[int, _WorkerState] = {}  # pid -> state
        self.stalls: list[FleetStall] = []
        self._stalled_pending: list[str] = []
        self._max_wall_s = 0.0
        self.total_expected = 0
        self.started_mono = self._clock()
        self.finished_mono: float | None = None
        self.events_received = 0
        self._last_published = 0.0

    # --- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start the drain thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._drain, name="fleet-collector", daemon=True)
            self._thread.start()

    def _drain(self) -> None:
        while not self._stop.is_set():
            try:
                message = self.queue.get(timeout=POLL_S)
            except queue_module.Empty:
                message = None
            except (EOFError, OSError):  # queue torn down under us
                break
            if message is not None:
                self.handle(message)
                while True:  # drain bursts without watchdog latency
                    try:
                        self.handle(self.queue.get_nowait())
                    except queue_module.Empty:
                        break
                    except (EOFError, OSError):
                        return
            self.check_stalls()

    def quiesce(self) -> None:
        """Stop the drain thread at the end of a run.

        The runner has settled every key by now, so nothing still on the
        queue can change a record. The collector stays readable —
        report, snapshot, and trace all keep working — and the broker
        stays open for a lingering dashboard.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            self.queue.put(None)  # wake the drain thread's blocking get
            thread.join(timeout=max(1.0, 4 * POLL_S))
            self._thread = None
        with self._lock:
            if self.finished_mono is None:
                self.finished_mono = self._clock()
        self._publish_snapshot(force=True)

    def close(self) -> None:
        """Tear down: quiesce, wake SSE subscribers, drop the queue."""
        self.quiesce()
        self.broker.close()
        try:
            self.queue.close()
        except (OSError, AttributeError):  # pragma: no cover
            pass

    # --- runner hooks (submitting process) --------------------------------

    def _record(self, key: str) -> JobRecord:
        record = self.jobs.get(key)
        if record is None:
            record = self.jobs[key] = JobRecord(key=key)
        return record

    def expect(self, total: int) -> None:
        with self._lock:
            self.total_expected = int(total)

    def note_submitted(self, key: str, job) -> None:
        with self._lock:
            record = self._record(key)
            record.submitted_mono = self._clock()
            record.tag = job.label
            record.technique = job.technique

    def settle(self, outcome, observed: Mapping[str, Any] | None = None,
               requeued: bool = False) -> None:
        """Record one job's outcome; the runner calls this exactly once
        per key, and it is the only way an outcome reaches the collector.

        ``outcome`` is the runner's :class:`~repro.exec.runner.JobOutcome`
        for the key. ``observed`` is what the job body returned with the
        result when it ran (its worker's pid, its start and end, its
        spans); the worker is credited with the job when it succeeded.
        ``requeued`` marks a job taken back from the pool and run on the
        serial path.
        """
        now = self._clock()
        with self._lock:
            record = self._record(outcome.key)
            record.ok = outcome.ok
            record.error = outcome.error
            record.wall_s = outcome.wall_s
            record.cached = outcome.from_cache
            record.requeued = requeued
            for state in self._workers.values():
                if state.busy_key == outcome.key:
                    state.busy_key = None
            if observed is not None:
                state = self._worker_state(observed["worker"])
                record.worker = state.slot
                record.serial = state.slot == 0
                record.started_mono = observed["started"]
                record.finished_mono = observed["finished"]
                record.spans = observed["spans"]
                state.last_seen_mono = max(state.last_seen_mono,
                                           record.finished_mono)
                if outcome.ok:
                    state.jobs_done += 1
                    state.wall_s += outcome.wall_s
            elif record.finished_mono is None:
                record.finished_mono = now
            result = outcome.result
            if result is not None:
                from repro.obs.audit import audit_result

                record.duration_cycles = float(result.duration_cycles)
                for violation in audit_result(result):
                    record.violations[violation.kind] = \
                        record.violations.get(violation.kind, 0) + 1
            if outcome.ok and not outcome.from_cache:
                self._max_wall_s = max(self._max_wall_s, outcome.wall_s)
        self._publish_snapshot()

    # --- worker message handling ------------------------------------------

    def handle(self, message: Mapping[str, Any]) -> None:
        """Apply one liveness message (public so tests can drive it).

        Ignored: malformed messages, unknown or settled keys, and
        messages from a pool worker about a job taken back from the pool
        (stalled, or running on the serial path), so a late message
        from an abandoned worker changes nothing.
        """
        if not isinstance(message, Mapping):
            return
        kind = message.get("kind")
        pid = message.get("worker")
        if kind not in _LIVENESS or not isinstance(pid, int):
            return
        now = float(message.get("mono", self._clock()))
        with self._lock:
            record = self.jobs.get(message.get("key"))
            if record is None or record.settled or (
                    (record.serial or record.stalled) and pid != self._pid):
                return
            state = self._worker_state(pid)
            if kind != "job.started" and state.slot != record.worker:
                return  # not the worker running the job
            self.events_received += 1
            state.last_seen_mono = max(state.last_seen_mono, now)
            if kind == "job.started":
                record.started_mono = record.last_seen_mono = now
                record.worker = state.slot
                record.serial = state.slot == 0
                state.busy_key = record.key
            elif kind == "job.heartbeat":
                record.last_seen_mono = max(record.last_seen_mono, now)
            else:  # job.finished: off its worker, not yet settled
                record.finished_mono = now
                if state.busy_key == record.key:
                    state.busy_key = None
        self._publish_snapshot()

    def _worker_state(self, pid: int) -> _WorkerState:
        state = self._workers.get(pid)
        if state is None:
            slot = 0 if pid == self._pid else 1 + sum(
                1 for s in self._workers.values() if s.slot > 0)
            state = self._workers[pid] = _WorkerState(slot=slot, pid=pid)
        return state

    # --- watchdog ---------------------------------------------------------

    def stall_bound(self) -> float:
        """Seconds of heartbeat silence before a running job is stalled.

        Either the configured absolute bound, or one derived from the
        observed job wall-times: generous (8x the slowest computed job)
        but never below the floor or 20 heartbeat periods, so a cold
        fleet with no computed jobs yet still has a sane bound.
        """
        if self.config.stall_after_s is not None:
            return self.config.stall_after_s
        return max(STALL_FLOOR_S, 20.0 * HEARTBEAT_S,
                   STALL_WALL_FACTOR * self._max_wall_s)

    def check_stalls(self) -> list[FleetStall]:
        """Scan running jobs for heartbeat silence; returns new stalls."""
        fresh: list[FleetStall] = []
        now = self._clock()
        with self._lock:
            bound = self.stall_bound()
            for record in self.jobs.values():
                if not record.running:
                    continue
                last = record.last_seen_mono or record.started_mono
                silent = now - last
                if silent <= bound:
                    continue
                record.stalled = True
                diagnosis = (
                    f"fleet.stall: job {record.tag or record.key[:12]} "
                    f"(key {record.key[:12]}) on worker "
                    f"{record.worker if record.worker is not None else '?'}"
                    f" went silent for {silent:.1f}s (bound {bound:.1f}s)"
                    " — cancelling and requeueing onto the serial path")
                stall = FleetStall(
                    key=record.key, tag=record.tag, worker=record.worker,
                    silent_s=silent, bound_s=bound, diagnosis=diagnosis)
                self.stalls.append(stall)
                self._stalled_pending.append(record.key)
                fresh.append(stall)
                if record.worker is not None:
                    for state in self._workers.values():
                        if state.slot == record.worker:
                            state.stalled = True
                            if state.busy_key == record.key:
                                state.busy_key = None
        for stall in fresh:
            logger.warning("%s", stall.diagnosis)
            self.broker.publish("stall", json.dumps(stall.as_dict()))
        if fresh:
            self._publish_snapshot(force=True)
        return fresh

    def take_stalled(self) -> list[str]:
        """Job keys newly declared stalled (each returned exactly once);
        the runner cancels their futures and retries them serially."""
        with self._lock:
            out = self._stalled_pending
            self._stalled_pending = []
            return out

    # --- live snapshot / dashboard ----------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The live fleet state the dashboard renders."""
        now = self._clock()
        with self._lock:
            records = list(self.jobs.values())
            settled, computed, cached, failed = _tally(records)
            running = [r for r in records if r.running]
            walls = [r.wall_s for r in computed if r.wall_s > 0]
            mean_wall = (math.fsum(walls) / len(walls)) if walls else 0.0
            busy = sum(1 for s in self._workers.values()
                       if s.busy_key is not None and not s.stalled)
            active = max(busy,
                         sum(1 for s in self._workers.values()
                             if s.slot > 0 and not s.stalled), 1)
            total = max(self.total_expected, len(records))
            remaining = max(0, total - len(settled))
            eta_s = (remaining * mean_wall / active) if walls else None
            end = self.finished_mono or now
            elapsed = max(end - self.started_mono, 1e-9)
            violations = sum(sum(r.violations.values()) for r in records)
            workers = [{
                "slot": s.slot, "pid": s.pid, "jobs_done": s.jobs_done,
                "wall_s": s.wall_s,
                "state": ("stalled" if s.stalled else
                          "busy" if s.busy_key else "idle"),
                "busy_tag": (self.jobs[s.busy_key].tag
                             if s.busy_key in self.jobs else None),
                "idle_s": max(0.0, now - s.last_seen_mono),
            } for s in sorted(self._workers.values(),
                              key=lambda s: s.slot)]
            stragglers = sorted(
                ({"tag": r.tag, "key": r.key[:12], "worker": r.worker,
                  "running_s": now - (r.started_mono or now)}
                 for r in running),
                key=lambda row: -row["running_s"])[:8]
            return {
                "elapsed_s": elapsed,
                "total": total,
                "done": len(settled),
                "computed": len(computed),
                "cached": cached,
                "failed": failed,
                "running": len(running),
                "jobs_per_s": len(settled) / elapsed,
                "cache_hit_rate": (cached / len(settled)
                                   if settled else 0.0),
                "mean_wall_s": mean_wall,
                "eta_s": eta_s,
                "violations": violations,
                "stall_bound_s": self.stall_bound(),
                "stalls": [s.as_dict() for s in self.stalls],
                "workers": workers,
                "stragglers": stragglers,
                "events_received": self.events_received,
                "finished": self.finished_mono is not None,
            }

    def _publish_snapshot(self, force: bool = False) -> None:
        now = self._clock()
        if not force and now - self._last_published < 0.2:
            return
        self._last_published = now
        if self.broker.closed:
            return
        self.broker.publish("fleet", json.dumps(self.snapshot()))

    # --- report -----------------------------------------------------------

    def report(self) -> FleetReport:
        """The sweep-level rollup (call after the run has quiesced)."""
        with self._lock:
            records = list(self.jobs.values())
            settled, computed, cached, failed = _tally(records)
            serial = sum(1 for r in records if r.serial)
            requeued = sum(1 for r in records if r.requeued)
            end = self.finished_mono or self._clock()
            wall = max(end - self.started_mono, 1e-9)
            violations: dict[str, int] = {}
            for record in records:
                for kind, count in record.violations.items():
                    violations[kind] = violations.get(kind, 0) + count
            workers = tuple({
                "slot": s.slot, "pid": s.pid,
                "jobs_done": s.jobs_done, "wall_s": s.wall_s,
                "stalled": s.stalled,
            } for s in sorted(self._workers.values(),
                              key=lambda s: s.slot))
            return FleetReport(
                total=max(self.total_expected, len(records)),
                computed=len(computed), cached=cached, failed=failed,
                serial=serial, requeued=requeued, wall_s=wall,
                jobs_per_s=len(settled) / wall,
                cache_hit_rate=(cached / len(settled)
                                if settled else 0.0),
                violations=violations,
                stalls=tuple(self.stalls),
                workers=workers,
                spans_merged=sum(len(r.spans) for r in records),
                events_received=self.events_received,
            )

    # --- merged Perfetto trace --------------------------------------------

    def fleet_events(self) -> list[Event]:
        """The merged fleet timeline as obs events (ts/dur in us).

        A sweep lane carries scheduling annotations — submit instants,
        queue-wait spans, cache hits, requeues, and ``fleet.stall``
        markers — and each worker slot's track carries its job spans
        with the job's simulation spans rebased proportionally onto the
        wall-clock interval. Stalled jobs are flagged (``STALLED`` name
        prefix + ``args.stalled``) so the freeze is visible in Perfetto.
        """
        with self._lock:
            records = list(self.jobs.values())
            end_mono = self.finished_mono or self._clock()
        t0 = self.started_mono

        def us(mono: float) -> float:
            return max(0.0, (mono - t0) * 1e6)

        events: list[Event] = []
        for record in records:
            label = record.tag or record.key[:12]
            base_args = {"key": record.key[:12], "tag": record.tag}
            if record.submitted_mono is not None:
                events.append(Event(
                    ts=us(record.submitted_mono), name="job.submitted",
                    track=TRACK_FLEET, ph=PH_INSTANT, args=base_args))
                queued_until = record.started_mono or record.finished_mono
                if queued_until is not None and \
                        queued_until > record.submitted_mono:
                    events.append(Event(
                        ts=us(record.submitted_mono),
                        name=f"queued {label}", track=TRACK_FLEET,
                        ph=PH_SPAN,
                        dur=us(queued_until) - us(record.submitted_mono),
                        args=base_args))
            if record.cached:
                events.append(Event(
                    ts=us(record.finished_mono or record.submitted_mono
                          or t0),
                    name="cache.hit", track=TRACK_FLEET, ph=PH_INSTANT,
                    args=base_args))
                continue
            if record.requeued:
                events.append(Event(
                    ts=us(record.finished_mono or end_mono),
                    name="job.requeued", track=TRACK_FLEET,
                    ph=PH_INSTANT, args=base_args))
            if record.started_mono is None:
                continue
            slot = record.worker if record.worker is not None else 0
            start_us = us(record.started_mono)
            end_us = us(record.finished_mono
                        or record.last_seen_mono or end_mono)
            job_args: dict[str, Any] = dict(base_args)
            job_args.update({
                "wall_s": record.wall_s, "serial": record.serial,
                "ok": record.ok,
            })
            if record.error:
                job_args["error"] = record.error
            if record.violations:
                job_args["violations"] = dict(record.violations)
            name = label
            if record.stalled:
                name = f"STALLED {label}"
                job_args["stalled"] = True
                stall = next((s for s in self.stalls
                              if s.key == record.key), None)
                if stall is not None:
                    job_args["diagnosis"] = stall.diagnosis
                events.append(Event(
                    ts=us(record.last_seen_mono or record.started_mono),
                    name="fleet.stall", track=TRACK_FLEET, ph=PH_INSTANT,
                    args=base_args))
            events.append(Event(
                ts=start_us, name=name, track=worker_track(slot),
                ph=PH_SPAN, dur=max(end_us - start_us, 0.0),
                args=job_args))
            # Rebase the job's simulation spans (cycles within the run)
            # proportionally onto its wall-clock slice so they nest
            # under the job span in the viewer.
            if record.spans and record.duration_cycles > 0:
                scale = (end_us - start_us) / record.duration_cycles
                for span in record.spans:
                    if span.get("ph") != PH_SPAN:
                        continue
                    args = dict(span.get("args") or {})
                    args["fleet.job"] = label
                    args["fleet.track"] = span.get("track", "")
                    events.append(Event(
                        ts=start_us + float(span.get("ts", 0.0)) * scale,
                        name=str(span.get("name", "span")),
                        track=worker_track(slot), ph=PH_SPAN,
                        dur=float(span.get("dur", 0.0)) * scale,
                        args=args))
        return events

    def chrome_trace(self, label: str | None = None) -> dict[str, Any]:
        """The merged fleet Perfetto/Chrome-trace JSON object."""
        from repro.obs.export import chrome_trace as export_chrome_trace

        return export_chrome_trace(self.fleet_events(),
                                   frequency_hz=FLEET_TRACE_HZ,
                                   label=label)

    def write_chrome_trace(self, path, label: str | None = None) -> Path:
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(label=label), handle)
        return path


def _tally(records: list[JobRecord]) -> tuple[list[JobRecord],
                                               list[JobRecord], int, int]:
    """``(settled, computed, cached count, failed count)`` of records."""
    settled = [r for r in records if r.settled]
    computed = [r for r in settled if r.ok and not r.cached]
    cached = sum(1 for r in settled if r.cached)
    return settled, computed, cached, sum(1 for r in settled if not r.ok)


__all__ = [
    "FLEET_TRACE_HZ", "FleetConfig", "FleetCollector", "FleetReport",
    "FleetStall", "JobRecord",
]
