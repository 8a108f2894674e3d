"""The online audit layer: waterfalls, conservation, guarantee replay.

An :class:`Auditor` is an event *sink* — it attaches exactly like the
``Ring``/``Jsonl`` tracers (pass it as the ``tracer`` of
:func:`repro.simulate` or tee it in front of another sink) and costs
nothing when absent: the engines' instrumentation sites are the same
single ``is not None`` checks the tracers use. While attached it
maintains, in bounded memory:

* a **per-DMA-transfer latency waterfall** — each transfer's wall time
  decomposed into bus arrival -> TA buffer wait -> wake-up transition ->
  bus queueing -> service inflation, attributed to causes (batching
  delay per release trigger, low-power wake-up, bus contention,
  migration interference vs. plain queueing). Only aggregates and the
  top-``slowest`` transfers are retained.
* an **energy-conservation ledger** — per-chip per-bucket joules
  re-derived from the ``joules`` payload every residency span carries,
  cross-checked in :meth:`Auditor.finalize` against the run's
  :class:`~repro.energy.accounting.EnergyBreakdown` and per-chip totals
  within float round-off.
* a **slack-guarantee monitor** — replays the DMA-TA credit/charge
  scheme epoch by epoch from the ``slack.*`` events and raises a
  structured :class:`AuditViolation` the moment the pessimistic epoch
  charge under-charges (``cycles < epoch * pending``) or the running
  average service time exceeds ``(1 + mu) * T``.

``strict=True`` makes the auditor *fail fast*: the first violation
raises :class:`~repro.errors.AuditError` at the emitting call site,
aborting the run mid-simulation. Otherwise violations accumulate on the
:class:`AuditReport` returned by :meth:`Auditor.finalize` (one recorded
per kind; repeats are counted, not stored).

:func:`audit_result` is the event-free little sibling: cheap invariant
checks on a finished :class:`~repro.sim.results.SimulationResult`, used
by the sweep harness and the bench records to flag impossible numbers
without paying for tracing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.errors import AuditError
from repro.obs.events import (
    PH_COUNTER,
    PH_INSTANT,
    PH_SPAN,
    TRACK_AUDIT,
    TRACK_CHIP,
    TRACK_SIM,
    Event,
)
from repro.obs.export import RESIDENCY_BUCKETS
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.sim.results import SimulationResult

#: Violation kinds the monitor can raise (the spec's two triggers plus
#: the conservation check performed at finalize time).
KIND_UNDERCHARGE = "slack-undercharge"
KIND_GUARANTEE = "guarantee-breach"
KIND_ENERGY = "energy-conservation"
KIND_PENDING_DRIFT = "slack-pending-drift"

#: Waterfall stages, in causal order.
WATERFALL_STAGES = ("buffer", "wake", "bus", "extra")

#: Stage -> default cause attribution.
_STAGE_CAUSE = {
    "buffer": "batching-delay",
    "wake": "low-power-wakeup",
    "bus": "bus-contention",
    "extra": "queueing",
}

#: Relative tolerance of the energy-conservation cross-check. The ledger
#: replays the exact per-span joules the chips accrued, so the only
#: drift is float-add reassociation (a handful of ulps per chip).
ENERGY_REL_TOL = 1e-9

#: Slop on the guarantee comparison, mirroring the engines' own check
#: (``avg > mu * T * (1 + 1e-6) + 1e-9``).
_GUARANTEE_REL_EPS = 1e-6
_GUARANTEE_ABS_EPS = 1e-9


@dataclass(frozen=True)
class AuditViolation:
    """One audited invariant that failed.

    Attributes:
        kind: violation class (``slack-undercharge``,
            ``guarantee-breach``, ``energy-conservation``,
            ``slack-pending-drift``, or a ``result-*`` kind from
            :func:`audit_result`).
        message: one-line human-readable description.
        ts: simulation time (cycles) the violation was detected at
            (0.0 for finalize-time checks).
        epoch: the offending epoch index, when the violation is tied to
            the epoch-granular slack machinery (``None`` otherwise).
        details: structured payload (expected/actual values, chip id...).
    """

    kind: str
    message: str
    ts: float = 0.0
    epoch: int | None = None
    details: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "message": self.message,
                               "ts": self.ts}
        if self.epoch is not None:
            out["epoch"] = self.epoch
        if self.details:
            out["details"] = dict(self.details)
        return out


@dataclass
class _OpenTransfer:
    """In-flight waterfall state of one DMA transfer (bounded by the
    number of transfers simultaneously in flight)."""

    arrival: float
    chip: int = -1
    bus: int = -1
    requests: int = 1
    buffer_wait: float = 0.0
    reason: str = ""
    wake: float = 0.0
    bus_wait: float = 0.0


class AuditReport:
    """Everything one audited run established, as plain data."""

    def __init__(self) -> None:
        self.violations: list[AuditViolation] = []
        #: kind -> number of *additional* occurrences beyond the first.
        self.suppressed: dict[str, int] = {}
        self.transfers_completed = 0
        self.requests_completed = 0
        #: stage -> total cycles across completed transfers.
        self.stage_cycles: dict[str, float] = {s: 0.0 for s in WATERFALL_STAGES}
        #: cause -> total cycles (batching split by release trigger,
        #: service inflation split into queueing vs migration).
        self.cause_cycles: dict[str, float] = {}
        #: The slowest transfers (by total attributable delay), each a
        #: dict with id/chip/bus/requests/stage cycles/causes.
        self.slowest: list[dict[str, Any]] = []
        #: Energy ledger: chip -> bucket -> joules replayed from events.
        self.ledger: dict[int, dict[str, float]] = {}
        self.ledger_checked = False
        self.max_energy_mismatch = 0.0
        #: Slack replay summary.
        self.epochs_charged = 0
        self.charges_replayed = 0.0
        self.min_slack_replayed = math.inf
        self.guarantee_bound = 0.0
        self.avg_extra_cycles = 0.0
        self.migrations_seen = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "suppressed": dict(self.suppressed),
            "waterfall": {
                "transfers": self.transfers_completed,
                "requests": self.requests_completed,
                "stage_cycles": dict(self.stage_cycles),
                "cause_cycles": dict(self.cause_cycles),
                "slowest": list(self.slowest),
            },
            "energy": {
                "checked": self.ledger_checked,
                "chips": len(self.ledger),
                "max_mismatch_joules": self.max_energy_mismatch,
            },
            "slack": {
                "epochs_charged": self.epochs_charged,
                "charges_replayed": self.charges_replayed,
                "min_slack_replayed": (
                    None if math.isinf(self.min_slack_replayed)
                    else self.min_slack_replayed),
                "guarantee_bound": self.guarantee_bound,
                "avg_extra_cycles": self.avg_extra_cycles,
            },
            "migrations": self.migrations_seen,
        }

    def waterfall_events(self) -> list[Event]:
        """The slowest transfers as Perfetto spans (one ``audit:<rank>``
        row each, stages laid end to end from the arrival time)."""
        events: list[Event] = []
        for rank, entry in enumerate(self.slowest):
            track = f"{TRACK_AUDIT}:{rank}"
            cursor = entry["arrival"]
            for stage in WATERFALL_STAGES:
                cycles = entry["stages"].get(stage, 0.0)
                if cycles <= 0:
                    continue
                events.append(Event(
                    ts=cursor, name=f"waterfall.{stage}", track=track,
                    ph=PH_SPAN, dur=cycles,
                    args={"id": entry["id"], "cause": entry["causes"].get(
                        stage, _STAGE_CAUSE[stage])}))
                cursor += cycles
            events.append(Event(
                ts=entry["arrival"], name="waterfall.transfer", track=track,
                ph=PH_INSTANT,
                args={"id": entry["id"], "chip": entry["chip"],
                      "bus": entry["bus"], "requests": entry["requests"],
                      "total_delay": entry["total"]}))
        return events

    def render(self) -> str:
        lines = [f"audit: {'OK' if self.ok else 'VIOLATIONS'} — "
                 f"{self.transfers_completed} transfers "
                 f"({self.requests_completed} requests) audited"]
        for violation in self.violations:
            extra = self.suppressed.get(violation.kind, 0)
            suffix = f" (+{extra} more)" if extra else ""
            where = (f" [epoch {violation.epoch}]"
                     if violation.epoch is not None else "")
            lines.append(f"  VIOLATION {violation.kind}{where}: "
                         f"{violation.message}{suffix}")
        total = sum(self.stage_cycles.values())
        if total > 0:
            lines.append("  latency waterfall (cycles of attributable "
                         "delay):")
            for stage in WATERFALL_STAGES:
                cycles = self.stage_cycles[stage]
                share = cycles / total if total else 0.0
                lines.append(f"    {stage:<8} {cycles:14.1f}  "
                             f"({share:6.1%})")
            for cause in sorted(self.cause_cycles):
                lines.append(f"    cause {cause:<22} "
                             f"{self.cause_cycles[cause]:14.1f}")
        if self.ledger_checked:
            lines.append(f"  energy ledger: {len(self.ledger)} chips "
                         f"re-derived, max mismatch "
                         f"{self.max_energy_mismatch:.3e} J")
        if self.epochs_charged:
            min_slack = ("n/a" if math.isinf(self.min_slack_replayed)
                         else f"{self.min_slack_replayed:.1f}")
            lines.append(f"  slack replay: {self.epochs_charged} epoch "
                         f"charges, {self.charges_replayed:.1f} cycles "
                         f"charged, min slack {min_slack}")
        if self.guarantee_bound > 0:
            lines.append(f"  guarantee: avg extra "
                         f"{self.avg_extra_cycles:.3f} cycles/request vs "
                         f"bound {self.guarantee_bound:.3f} (mu*T)")
        return "\n".join(lines)


class Auditor(Tracer):
    """Online audit sink (see the module docstring).

    Args:
        strict: raise :class:`~repro.errors.AuditError` at the event
            that triggers the first violation (fail fast) instead of
            accumulating it on the report.
        downstream: optional tracer every event is forwarded to, so a
            run can be audited *and* recorded (e.g. for Perfetto export)
            in one pass.
        slowest: how many worst-case transfer waterfalls to retain.
        energy_rel_tol: relative tolerance of the conservation check.
    """

    def __init__(self, strict: bool = False, downstream: Tracer | None = None,
                 slowest: int = 8,
                 energy_rel_tol: float = ENERGY_REL_TOL) -> None:
        self.strict = strict
        self.downstream = downstream
        self.slowest = max(0, slowest)
        self.energy_rel_tol = energy_rel_tol
        self.report = AuditReport()

        # Run parameters (from the sim.config event).
        self._mu = 0.0
        self._service_cycles = 0.0
        self._epoch_cycles = 0.0

        # Waterfall state.
        self._open: dict[int, _OpenTransfer] = {}
        self._open_requests = 0
        #: (total_delay, insertion_order, entry) kept sorted, <= slowest.
        self._slow_heap: list[tuple[float, int, dict[str, Any]]] = []
        self._seen = 0

        # Slack monitor state.
        self._buffered: dict[int, int] = {}   # transfer id -> requests
        self._pending_transfers = 0
        self._pending_requests = 0
        self._charges = 0.0
        self._served = 0.0                    # last served_requests sample
        self._extra_total = 0.0               # completed waited + extra

        # Energy ledger: chip -> bucket -> joules (plain += so the
        # accumulation order matches the chips' own, keeping the replay
        # bit-comparable); completeness flag drops the finalize check
        # when spans without a joules payload were seen.
        self._ledger: dict[int, dict[str, float]] = {}
        self._ledger_complete = True
        self._ledger_spans = 0

    # ------------------------------------------------------------------
    # Sink protocol
    # ------------------------------------------------------------------

    def emit(self, event: Event) -> None:
        track = event.track
        if event.ph == PH_SPAN:
            if track.startswith(TRACK_CHIP) and track[4:5] == ":":
                self._on_chip_span(event)
        elif event.ph == PH_INSTANT:
            handler = self._INSTANTS.get(event.name)
            if handler is not None:
                handler(self, event)
        elif event.ph == PH_COUNTER:
            if event.name == "served_requests" and track == TRACK_SIM:
                args = event.args or {}
                self._served = float(args.get("value", 0.0))
        if self.downstream is not None:
            self.downstream.emit(event)

    def close(self) -> None:
        if self.downstream is not None:
            self.downstream.close()

    # ------------------------------------------------------------------
    # Violations
    # ------------------------------------------------------------------

    def _violate(self, kind: str, message: str, ts: float,
                 epoch: int | None = None,
                 details: Mapping[str, Any] | None = None) -> None:
        if any(v.kind == kind for v in self.report.violations):
            self.report.suppressed[kind] = (
                self.report.suppressed.get(kind, 0) + 1)
            return
        violation = AuditViolation(kind=kind, message=message, ts=ts,
                                   epoch=epoch, details=details or {})
        self.report.violations.append(violation)
        if self.strict:
            raise AuditError(violation)

    def _epoch_of(self, ts: float) -> int | None:
        if self._epoch_cycles > 0:
            return int(round(ts / self._epoch_cycles))
        return None

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_config(self, event: Event) -> None:
        args = event.args or {}
        self._mu = float(args.get("mu", 0.0))
        self._service_cycles = float(args.get("service_cycles", 0.0))
        self._epoch_cycles = float(args.get("epoch_cycles", 0.0))
        self.report.guarantee_bound = self._mu * self._service_cycles

    def _on_chip_span(self, event: Event) -> None:
        args = event.args
        if not args:
            return
        try:
            chip_id = int(event.track.partition(":")[2])
        except ValueError:
            return
        joules = args.get("joules")
        if joules is None:
            # A residency span without an energy payload: the ledger can
            # no longer claim completeness (e.g. replaying a pre-audit
            # event stream).
            self._ledger_complete = False
            return
        buckets = self._ledger.get(chip_id)
        if buckets is None:
            buckets = self._ledger[chip_id] = dict.fromkeys(
                RESIDENCY_BUCKETS, 0.0)
        self._ledger_spans += 1
        # The exact type first: the Mapping ABC check is slow.
        if type(joules) is dict or isinstance(joules, Mapping):
            # Exact per-bucket split (fluid busy spans).
            for bucket, value in joules.items():
                if bucket in buckets:
                    buckets[bucket] += float(value)
            return
        bucket = args.get("bucket")
        if isinstance(bucket, str) and bucket in buckets:
            buckets[bucket] += float(joules)
            return
        # Fallback: split the total proportionally to per-bucket cycles.
        dur = event.dur
        if dur > 0:
            total = float(joules)
            for bucket in RESIDENCY_BUCKETS:
                cycles = args.get(bucket)
                if isinstance(cycles, (int, float)) and cycles > 0:
                    buckets[bucket] += total * (cycles / dur)

    def _on_arrive(self, event: Event) -> None:
        args = event.args or {}
        tid = args.get("id")
        if tid is None:
            return
        requests = int(args.get("requests", 1)) or 1
        self._open[tid] = _OpenTransfer(
            arrival=event.ts, chip=int(args.get("chip", -1)),
            bus=int(args.get("bus", -1)), requests=requests)
        self._open_requests += requests

    def _on_buffer(self, event: Event) -> None:
        args = event.args or {}
        tid = args.get("id")
        if tid is None or tid in self._buffered:
            return
        requests = int(args.get("requests", 1)) or 1
        self._buffered[tid] = requests
        self._pending_transfers += 1
        self._pending_requests += requests

    def _on_release(self, event: Event) -> None:
        args = event.args or {}
        tid = args.get("id")
        if tid is None:
            return
        requests = self._buffered.pop(tid, None)
        if requests is not None:
            self._pending_transfers -= 1
            self._pending_requests -= requests
        open_ = self._open.get(tid)
        if open_ is not None:
            open_.buffer_wait = max(0.0, float(args.get(
                "waited", event.ts - open_.arrival)))
            open_.reason = str(args.get("reason", ""))

    def _on_start(self, event: Event) -> None:
        args = event.args or {}
        open_ = self._open.get(args.get("id"))
        if open_ is None:
            return
        open_.wake = max(0.0, float(args.get("wake", 0.0)))
        open_.bus_wait = max(0.0, float(args.get("bus_wait", 0.0)))

    def _on_done(self, event: Event) -> None:
        args = event.args or {}
        tid = args.get("id")
        open_ = self._open.pop(tid, None)
        if open_ is None:
            return
        self._open_requests -= open_.requests
        extra = max(0.0, float(args.get("extra", 0.0)))
        waited = max(0.0, float(args.get("waited", open_.buffer_wait)))
        migration = bool(args.get("mig", 0))

        report = self.report
        report.transfers_completed += 1
        report.requests_completed += open_.requests
        stages = {"buffer": waited, "wake": open_.wake,
                  "bus": open_.bus_wait, "extra": extra}
        causes: dict[str, str] = {}
        for stage, cycles in stages.items():
            if cycles <= 0:
                continue
            cause = _STAGE_CAUSE[stage]
            if stage == "buffer" and open_.reason:
                cause = f"batching-delay:{open_.reason}"
            elif stage == "extra" and migration:
                cause = "migration-interference"
            causes[stage] = cause
            report.stage_cycles[stage] += cycles
            report.cause_cycles[cause] = (
                report.cause_cycles.get(cause, 0.0) + cycles)
        total = sum(stages.values())
        self._note_slow(total, {
            "id": tid, "chip": open_.chip, "bus": open_.bus,
            "requests": open_.requests, "arrival": open_.arrival,
            "stages": stages, "causes": causes, "total": total,
        })

        # The running guarantee check: the sum of attributable delays of
        # completed transfers against the credits of every request that
        # has arrived so far (completed + still in flight), exactly the
        # engines' end-of-run accounting evaluated continuously. Only
        # the TA-covered delays (gather wait + service inflation) count;
        # wake latency is the low-level policy's cost, paid by the
        # baseline too.
        self._extra_total += waited + extra
        if self._mu > 0 and self._service_cycles > 0:
            arrived = report.requests_completed + self._open_requests
            bound = (self._mu * self._service_cycles
                     * (1 + _GUARANTEE_REL_EPS) * arrived
                     + _GUARANTEE_ABS_EPS)
            if self._extra_total > bound and arrived > 0:
                avg = self._extra_total / arrived
                self._violate(
                    KIND_GUARANTEE,
                    f"average extra service time {avg:.3f} cycles/request "
                    f"exceeds the (1+mu)*T allowance "
                    f"(mu*T = {self._mu * self._service_cycles:.3f})",
                    event.ts, epoch=self._epoch_of(event.ts),
                    details={"avg_extra": avg,
                             "allowance": self._mu * self._service_cycles,
                             "requests": arrived})

    def _note_slow(self, total: float, entry: dict[str, Any]) -> None:
        if self.slowest == 0 or total <= 0:
            return
        self._seen += 1
        heap = self._slow_heap
        heap.append((total, self._seen, entry))
        heap.sort(key=lambda item: (-item[0], item[1]))
        del heap[self.slowest:]

    def _on_charge_epoch(self, event: Event) -> None:
        args = event.args or {}
        charged = float(args.get("cycles", 0.0))
        pending = int(args.get("pending", 0))
        epoch_cycles = float(args.get("epoch", self._epoch_cycles))
        self._charges += charged
        self.report.epochs_charged += 1
        epoch = self._epoch_of(event.ts)

        if pending != self._pending_transfers:
            self._violate(
                KIND_PENDING_DRIFT,
                f"slack account charged {pending} pending transfers but "
                f"the event stream shows {self._pending_transfers} "
                "buffered",
                event.ts, epoch=epoch,
                details={"charged_pending": pending,
                         "replayed_pending": self._pending_transfers})
        expected = epoch_cycles * pending
        if charged < expected * (1 - 1e-9) - 1e-6:
            self._violate(
                KIND_UNDERCHARGE,
                f"pessimistic epoch charge under-charged: "
                f"{charged:.1f} cycles for {pending} pending transfers "
                f"(expected epoch * pending = {expected:.1f})",
                event.ts, epoch=epoch,
                details={"charged": charged, "expected": expected,
                         "pending": pending, "epoch_cycles": epoch_cycles})

        # Informational replay of the account balance: credits of every
        # arrived-or-anticipated request minus the replayed charges.
        if self._mu > 0 and self._service_cycles > 0:
            credits = ((self._served + self._pending_requests)
                       * self._mu * self._service_cycles)
            slack = credits - self._charges
            self.report.min_slack_replayed = min(
                self.report.min_slack_replayed, slack)

    def _on_charge(self, event: Event) -> None:
        args = event.args or {}
        self._charges += float(args.get("cycles", 0.0))

    def _on_migration(self, event: Event) -> None:
        args = event.args or {}
        self.report.migrations_seen += int(args.get("moves", 0))

    _INSTANTS = {
        "sim.config": _on_config,
        "dma.arrive": _on_arrive,
        "ta.buffer": _on_buffer,
        "dma.release": _on_release,
        "dma.start": _on_start,
        "dma.done": _on_done,
        "slack.charge_epoch": _on_charge_epoch,
        "slack.charge_wake": _on_charge,
        "slack.charge_processor": _on_charge,
        "pl.migration": _on_migration,
    }

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------

    def finalize(self, result: "SimulationResult | None" = None) -> AuditReport:
        """Close the audit: run the end-of-stream invariants and return
        the report. ``result`` enables the energy-conservation
        cross-check and the authoritative guarantee numbers."""
        report = self.report
        report.slowest = [entry for _, _, entry in self._slow_heap]
        report.ledger = self._ledger
        report.charges_replayed = self._charges
        if report.requests_completed:
            report.avg_extra_cycles = (
                self._extra_total / report.requests_completed)

        if result is not None:
            self._check_energy(result)
            self._check_guarantee(result)
        return report

    def _check_energy(self, result: "SimulationResult") -> None:
        """Cross-check the replayed ledger against the result's totals."""
        if not self._ledger_complete or self._ledger_spans == 0:
            return
        report = self.report
        report.ledger_checked = True
        mismatches: list[str] = []

        chip_energy = result.chip_energy or []
        for chip_id, buckets in sorted(self._ledger.items()):
            replayed = math.fsum(buckets.values())
            if chip_id >= len(chip_energy):
                continue
            expected = chip_energy[chip_id]
            drift = abs(replayed - expected)
            report.max_energy_mismatch = max(
                report.max_energy_mismatch, drift)
            if drift > self._energy_tol(expected):
                mismatches.append(
                    f"chip {chip_id}: replayed {replayed:.9e} J vs "
                    f"accounted {expected:.9e} J")

        totals = {b: 0.0 for b in RESIDENCY_BUCKETS}
        for buckets in self._ledger.values():
            for bucket, value in buckets.items():
                totals[bucket] += value
        accounted = result.energy.as_dict()
        for bucket in RESIDENCY_BUCKETS:
            expected = accounted.get(bucket, 0.0)
            drift = abs(totals[bucket] - expected)
            report.max_energy_mismatch = max(
                report.max_energy_mismatch, drift)
            if drift > self._energy_tol(expected):
                mismatches.append(
                    f"bucket {bucket}: replayed {totals[bucket]:.9e} J "
                    f"vs accounted {expected:.9e} J")

        if mismatches:
            self._violate(
                KIND_ENERGY,
                "the energy ledger re-derived from events does not "
                "balance against EnergyBreakdown: " + "; ".join(
                    mismatches[:4]),
                0.0, details={"mismatches": mismatches})

    def _energy_tol(self, expected: float) -> float:
        scale = max(abs(expected), 1.0)
        return self.energy_rel_tol * scale

    def _check_guarantee(self, result: "SimulationResult") -> None:
        """Final-average check using the authoritative result totals."""
        report = self.report
        mu, service = result.mu, result.service_cycles
        if mu <= 0 or service <= 0 or not result.requests:
            return
        report.guarantee_bound = mu * service
        avg = (result.head_delay_cycles
               + result.extra_service_cycles) / result.requests
        report.avg_extra_cycles = avg
        if avg > mu * service * (1 + _GUARANTEE_REL_EPS) + _GUARANTEE_ABS_EPS:
            self._violate(
                KIND_GUARANTEE,
                f"final average extra service time {avg:.3f} "
                f"cycles/request exceeds mu*T = {mu * service:.3f}",
                0.0, epoch=self.report.epochs_charged or None,
                details={"avg_extra": avg, "allowance": mu * service})


def audit_result(result: "SimulationResult") -> list[AuditViolation]:
    """Event-free invariant checks on a finished result.

    Cheap enough to run on every sweep point and bench outcome: bucket
    non-negativity, the per-chip total against the aggregate
    :class:`~repro.energy.accounting.EnergyBreakdown`, and the
    consistency of the recorded ``guarantee_violated`` flag with the
    delay totals it was derived from.
    """
    violations: list[AuditViolation] = []

    for bucket, value in result.energy.as_dict().items():
        if value < -1e-12:
            violations.append(AuditViolation(
                kind="result-energy-negative",
                message=f"energy bucket {bucket} is negative "
                        f"({value:.3e} J)",
                details={"bucket": bucket, "joules": value}))
            break

    if result.chip_energy:
        total = math.fsum(result.chip_energy)
        expected = result.energy.total
        tol = ENERGY_REL_TOL * max(abs(expected), 1.0)
        if abs(total - expected) > tol:
            violations.append(AuditViolation(
                kind="result-energy-mismatch",
                message=f"per-chip energies sum to {total:.9e} J but the "
                        f"breakdown totals {expected:.9e} J",
                details={"chip_sum": total, "breakdown_total": expected}))

    if result.requests and result.mu > 0 and result.service_cycles > 0:
        avg = (result.head_delay_cycles
               + result.extra_service_cycles) / result.requests
        violated = (avg > result.mu * result.service_cycles
                    * (1 + _GUARANTEE_REL_EPS) + _GUARANTEE_ABS_EPS)
        if violated != result.guarantee_violated:
            violations.append(AuditViolation(
                kind="result-guarantee-flag",
                message="guarantee_violated flag disagrees with the "
                        f"recorded delay totals (avg {avg:.3f} vs "
                        f"mu*T {result.mu * result.service_cycles:.3f})",
                details={"avg_extra": avg,
                         "flag": result.guarantee_violated}))

    return violations


def audit_summary(violations: Iterable[AuditViolation]) -> tuple[str, ...]:
    """Compact one-line messages for sweep/bench surfacing."""
    return tuple(f"{v.kind}: {v.message}" for v in violations)


def write_audit_report(report: AuditReport, path: str | Path) -> Path:
    """Write the report (with its waterfall events) as JSON."""
    path = Path(path)
    payload = report.as_dict()
    payload["waterfall"]["events"] = [
        e.as_dict() for e in report.waterfall_events()]
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


__all__ = [
    "AuditReport", "AuditViolation", "Auditor",
    "KIND_ENERGY", "KIND_GUARANTEE", "KIND_PENDING_DRIFT",
    "KIND_UNDERCHARGE", "WATERFALL_STAGES",
    "audit_result", "audit_summary", "write_audit_report",
]
