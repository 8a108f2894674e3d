"""DMA-TA: temporal alignment of DMA transfers (Section 4.1).

The controller buffers the head request of any transfer that finds its
chip in a low-power mode, gathering heads from *different I/O buses* to
the same chip. A gathered chip is released when either

* heads from ``k = ceil(Rm/Rb)`` distinct buses are pending (the chip can
  then be fully utilised; gathering more has no benefit), or
* the slack account says waiting longer would endanger the
  ``(1 + mu) * T`` average-service-time guarantee, or
* the oldest buffered transfer has consumed its own share of the slack
  (its per-transfer deadline, ``deadline_fraction * mu * T *
  num_requests`` after arrival). The deadline rule keeps releases spread
  out in time: a transfer gathering on a cold chip, whose alignment
  partners never arrive, is let through individually instead of piling
  up with every other such transfer until the global slack drains — a
  bunched release would flood the I/O buses with concurrent transfers
  and *cost* energy rather than save it.

Once released, the streams proceed in lockstep: the bus pacing of each
transfer is fixed, so the interleaving established at release persists for
the rest of the transfers, and later requests are never delayed again —
including those of new transfers arriving while the chip is already
active, which are admitted immediately.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Callable

from repro.config import SimulationConfig
from repro.core.controller import MemoryController
from repro.core.slack import SlackAccount
from repro.io.dma import FluidStream
from repro.memory.chip import FluidChip
from repro.obs.events import TRACK_CONTROLLER

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


class TemporalAlignmentController(MemoryController):
    """The DMA-TA admission policy.

    Args:
        config: simulation configuration (``config.alignment.mu`` is the
            per-request degradation allowance).
        arrived_requests: callable returning the number of DMA-memory
            requests that have arrived at the memory system so far,
            *excluding* buffered head requests (the controller adds its
            own pending count). The engine supplies this from its served
            work integral, and drops it (the attribute of the same name)
            when its run ends.
        tracer: optional event tracer; head buffering and batch releases
            (with their trigger) are emitted on the controller track.
        registry: optional metrics registry; release batch sizes (the
            lockstep group lengths) land in the ``ta.batch_size``
            histogram.
    """

    def __init__(self, config: SimulationConfig,
                 arrived_requests: Callable[[], float],
                 tracer: "Tracer | None" = None,
                 registry: "MetricsRegistry | None" = None) -> None:
        self._config = config
        self.arrived_requests = arrived_requests
        self._tracer = tracer
        self._batch_hist = (registry.histogram("ta.batch_size")
                            if registry is not None else None)
        self.slack = SlackAccount(
            mu=config.alignment.mu,
            service_cycles=config.undisturbed_service_cycles,
            num_buses=config.buses.count,
            saturating_buses=config.saturating_buses,
            release_fraction=config.alignment.slack_release_fraction,
            tracer=tracer,
        )
        self._pending: dict[int, list[FluidStream]] = defaultdict(list)
        self._pending_total = 0
        self._pending_requests = 0  # committed requests of buffered heads
        # Bounds over the buffered heads for on_epoch's quiet test,
        # refreshed whenever the buffered set changes.
        self._oldest_arrival = math.inf
        self._max_projected = 0.0

        # Counters for the simulation result.
        self.transfers_buffered = 0
        self.transfers_passed_through = 0
        self.releases_by_gather = 0
        self.releases_by_slack = 0
        self.releases_by_deadline = 0
        self.releases_by_drain = 0
        self.max_gathered = 0

    # ------------------------------------------------------------------

    def _arrived(self) -> float:
        """Request count backing the slack credits.

        Served requests plus the *committed* requests of buffered
        transfers: delaying a head delays its whole transfer, and that
        transfer's requests — each entitled to ``mu * T`` of delay — are
        guaranteed to arrive once it is released, so their credit is
        spendable on the delay being incurred now. Without this
        anticipation a cold-start gather could never wait longer than
        the few credits already banked.
        """
        return self.arrived_requests() + self._pending_requests

    def _pending_by_bus(self, chip_id: int) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for stream in self._pending.get(chip_id, ()):
            counts[stream.bus_id if stream.bus_id is not None else -1] += 1
        return dict(counts)

    def _pop_pending(self, chip_id: int) -> list[FluidStream]:
        streams = self._pending.pop(chip_id, [])
        if streams:
            self._pending_total -= len(streams)
            self._pending_requests -= sum(
                getattr(s, "num_requests", 0) or 1 for s in streams)
            self.max_gathered = max(self.max_gathered, len(streams))
            self._refresh_bounds()
        return streams

    def _refresh_bounds(self) -> None:
        """Recompute the oldest buffered arrival and the largest per-chip
        projected delay ``n * U / 2`` (infinite for a chip holding heads
        from ``k`` buses, which the gather trigger releases)."""
        self._oldest_arrival = min(
            (s.arrival_time for streams in self._pending.values()
             for s in streams), default=math.inf)
        projected = 0.0
        for chip_id in self._pending:
            by_bus = self._pending_by_bus(chip_id)
            if len(by_bus) >= self.slack.saturating_buses:
                projected = math.inf
                break
            projected = max(projected, self.slack.projected_delay(by_bus))
        self._max_projected = projected

    def _record_release(self, chip_id: int, streams: list[FluidStream],
                        reason: str, now: float) -> None:
        """Observe one released lockstep batch (size + trigger)."""
        batch_size = len(streams)
        if batch_size <= 0:
            return
        if self._batch_hist is not None:
            self._batch_hist.record(batch_size)
        if self._tracer is not None:
            self._tracer.instant(now, "ta.release", TRACK_CONTROLLER,
                                 {"chip": chip_id, "batch": batch_size,
                                  "reason": reason})
            # Per-transfer release marks feed the audit waterfall: how
            # long each head gathered, and which trigger let it go.
            for stream in streams:
                self._tracer.instant(
                    now, "dma.release", TRACK_CONTROLLER,
                    {"id": getattr(stream, "seq", 0), "chip": chip_id,
                     "reason": reason,
                     "waited": now - getattr(stream, "arrival_time", now)})

    def _allowance(self, stream, now: float) -> float:
        """How long a buffered transfer may currently wait.

        At least its own slack budget (``deadline_fraction * mu * T *
        num_requests`` — the degradation its own requests are entitled
        to), topped up by an equal share of the *global* slack surplus:
        credits deposited by the many requests that flowed through
        undelayed fund longer waits for the few that are gathering, which
        is exactly how the paper's single shared slack account behaves.
        The per-transfer floor keeps releases spread in time, so release
        storms (which would flood the buses) cannot form.
        """
        fraction = self._config.alignment.deadline_fraction
        requests = getattr(stream, "num_requests", 0) or 1
        own = self.slack.credit_per_request() * requests
        shared = self.slack.slack(self._arrived()) / (self._pending_total + 1)
        return fraction * max(own, shared)

    def _deadline_due(self, chip_id: int, now: float) -> bool:
        return any(now - s.arrival_time >= self._allowance(s, now)
                   for s in self._pending.get(chip_id, ()))

    # ------------------------------------------------------------------
    # MemoryController interface
    # ------------------------------------------------------------------

    def admit(self, stream: FluidStream, chip: FluidChip,
              now: float) -> list[FluidStream]:
        chip_id = chip.chip_id
        if not chip.is_low_power(now):
            # Chip already active (serving other transfers, processor
            # accesses, or still inside its idle threshold): no delay,
            # and anything gathered for it rides along.
            self.transfers_passed_through += 1
            released = self._pop_pending(chip_id)
            released.append(stream)
            if len(released) > 1:
                self._record_release(chip_id, released, "chip-active", now)
            return released

        if self.slack.credit_per_request() <= 0.0:
            # mu == 0: no budget to delay anything.
            self.transfers_passed_through += 1
            return [stream]

        if self._allowance(stream, now) < 2 * self._config.alignment.epoch_cycles:
            # The transfer's waiting budget is too small for the epoch-
            # granularity release machinery to respect; delaying it would
            # risk the guarantee for no realistic gathering win.
            self.transfers_passed_through += 1
            return [stream]

        self._pending[chip_id].append(stream)
        self._pending_total += 1
        self._pending_requests += getattr(stream, "num_requests", 0) or 1
        self.transfers_buffered += 1
        self._refresh_bounds()
        if self._tracer is not None:
            self._tracer.instant(now, "ta.buffer", TRACK_CONTROLLER,
                                 {"chip": chip_id,
                                  "bus": getattr(stream, "bus_id", None),
                                  "id": getattr(stream, "seq", 0),
                                  "requests": getattr(stream, "num_requests",
                                                      0) or 1,
                                  "pending": self._pending_total})

        by_bus = self._pending_by_bus(chip_id)
        if len(by_bus) >= self.slack.saturating_buses:
            self.releases_by_gather += 1
            batch = self._pop_pending(chip_id)
            self._record_release(chip_id, batch, "gather", now)
            return batch
        if self.slack.should_release(by_bus, self._arrived(), now):
            self.releases_by_slack += 1
            batch = self._pop_pending(chip_id)
            self._record_release(chip_id, batch, "slack", now)
            return batch
        return []

    def epoch_cycles(self) -> float | None:
        return self._config.alignment.epoch_cycles

    def on_epoch(self, now: float) -> dict[int, list[FluidStream]]:
        self.slack.charge_epoch(
            self._config.alignment.epoch_cycles, self._pending_total, now)
        if self._pending and self._quiet(now):
            return {}
        releases: dict[int, list[FluidStream]] = {}
        for chip_id in list(self._pending):
            if self._deadline_due(chip_id, now):
                self.releases_by_deadline += 1
                releases[chip_id] = self._pop_pending(chip_id)
                self._record_release(chip_id, releases[chip_id],
                                     "deadline", now)
                continue
            by_bus = self._pending_by_bus(chip_id)
            if self.slack.should_release(by_bus, self._arrived(), now):
                self.releases_by_slack += 1
                releases[chip_id] = self._pop_pending(chip_id)
                self._record_release(chip_id, releases[chip_id],
                                     "slack", now)
        return releases

    def _quiet(self, now: float) -> bool:
        """True if this tick can release nothing and count no violation.

        Decided in O(1) from one slack balance and the two bounds of
        :meth:`_refresh_bounds`, and exact: every allowance is
        ``deadline_fraction * max(own, shared)`` with this same
        ``shared`` float (:meth:`_allowance`), so no deadline is due
        while the oldest head has waited less than ``deadline_fraction
        * shared``; and while ``release_fraction * balance`` exceeds
        every chip's projected delay, ``should_release`` is false for
        every chip and the balance is positive. The ``slack`` counter
        each of those calls would have emitted is emitted here.
        """
        balance = self.slack.slack(self._arrived())
        shared = balance / (self._pending_total + 1)
        if not (now - self._oldest_arrival
                < self._config.alignment.deadline_fraction * shared
                and self.slack.release_fraction * balance
                > self._max_projected):
            return False
        if self._tracer is not None:
            for _ in self._pending:
                self._tracer.counter(now, "slack", TRACK_CONTROLLER, balance)
        return True

    def on_wake(self, chip_id: int, wake_latency: float, now: float,
                pending_requests: int = 1) -> None:
        # "decreasing Slack by the time overhead of activating each memory
        # chip times the number of requests pending for it" — the engine
        # passes the size of the batch being released.
        self.slack.charge_wake(wake_latency, pending_requests, now)

    def on_proc_access(self, chip_id: int, work_cycles: float,
                       dma_streams_at_chip: int, now: float) -> None:
        pending = len(self._pending.get(chip_id, ())) + dma_streams_at_chip
        if pending:
            self.slack.charge_processor(work_cycles, pending, now)

    def on_chip_active(self, chip: FluidChip,
                       now: float) -> list[FluidStream]:
        batch = self._pop_pending(chip.chip_id)
        self._record_release(chip.chip_id, batch, "chip-active", now)
        return batch

    def drain(self, now: float) -> dict[int, list[FluidStream]]:
        releases = {}
        for chip_id in list(self._pending):
            self.releases_by_drain += 1
            releases[chip_id] = self._pop_pending(chip_id)
            self._record_release(chip_id, releases[chip_id], "drain", now)
        return releases

    def pending_count(self) -> int:
        return self._pending_total

    def stats(self) -> dict[str, float]:
        return {
            "transfers_buffered": float(self.transfers_buffered),
            "transfers_passed_through": float(self.transfers_passed_through),
            "releases_by_gather": float(self.releases_by_gather),
            "releases_by_slack": float(self.releases_by_slack),
            "releases_by_deadline": float(self.releases_by_deadline),
            "releases_by_drain": float(self.releases_by_drain),
            "max_gathered": float(self.max_gathered),
            "slack_charges": self.slack.total_charges,
        }
