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
from repro.obs.events import TRACK_CONTROLLER, TRACK_SIM

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


class TemporalAlignmentController(MemoryController):
    """The DMA-TA admission policy.

    Args:
        config: simulation configuration (``config.alignment.mu`` is the
            per-request degradation allowance).
        arrived_requests: callable returning the number of DMA-memory
            requests that have arrived at the memory system by the time
            it is given, *excluding* buffered head requests (the
            controller adds its own pending count). The engine supplies
            this from its served work integral, and drops it (the
            attribute of the same name) when its run ends.
        tracer: optional event tracer; head buffering and batch releases
            (with their trigger) are emitted on the controller track.
        registry: optional metrics registry; release batch sizes (the
            lockstep group lengths) land in the ``ta.batch_size``
            histogram.
    """

    def __init__(self, config: SimulationConfig,
                 arrived_requests: Callable[[float], float],
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
        # Per chip with buffered heads, kept as heads are buffered and
        # dropped on release: its bus -> head count, its oldest arrival
        # and its projected delay n*U/2 (infinite for heads from k
        # buses, which the gather trigger releases).
        self._by_bus: dict[int, dict[int, int]] = {}
        self._chip_oldest: dict[int, float] = {}
        self._chip_projected: dict[int, float] = {}
        # Their min and max: the bounds of settle_epochs' quiet test.
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

    def _arrived(self, now: float) -> float:
        """Request count backing the slack credits.

        Served requests plus the *committed* requests of buffered
        transfers: delaying a head delays its whole transfer, and that
        transfer's requests — each entitled to ``mu * T`` of delay — are
        guaranteed to arrive once it is released, so their credit is
        spendable on the delay being incurred now. Without this
        anticipation a cold-start gather could never wait longer than
        the few credits already banked.
        """
        return self.arrived_requests(now) + self._pending_requests

    def _pending_by_bus(self, chip_id: int) -> dict[int, int]:
        """The chip's buffered heads per bus (read only: the controller
        keeps it)."""
        return self._by_bus.get(chip_id, {})

    def _buffer(self, chip_id: int, stream: FluidStream) -> None:
        """Buffer a head and update its chip's bounds."""
        self._pending[chip_id].append(stream)
        self._pending_total += 1
        self._pending_requests += getattr(stream, "num_requests", 0) or 1
        by_bus = self._by_bus.setdefault(chip_id, {})
        bus_id = stream.bus_id if stream.bus_id is not None else -1
        by_bus[bus_id] = by_bus.get(bus_id, 0) + 1
        self._chip_oldest[chip_id] = min(
            self._chip_oldest.get(chip_id, math.inf), stream.arrival_time)
        self._chip_projected[chip_id] = (
            math.inf if len(by_bus) >= self.slack.saturating_buses
            else self.slack.projected_delay(by_bus))
        self._refresh_bounds()

    def _pop_pending(self, chip_id: int) -> list[FluidStream]:
        streams = self._pending.pop(chip_id, [])
        if streams:
            self._pending_total -= len(streams)
            self._pending_requests -= sum(
                getattr(s, "num_requests", 0) or 1 for s in streams)
            self.max_gathered = max(self.max_gathered, len(streams))
            del self._by_bus[chip_id]
            del self._chip_oldest[chip_id]
            del self._chip_projected[chip_id]
            self._refresh_bounds()
        return streams

    def _refresh_bounds(self) -> None:
        """The oldest buffered arrival and the largest per-chip projected
        delay, over the chips' kept values. The head counts are integers
        and ``projected_delay`` reads only their sum and maximum, so both
        bounds equal a fresh scan of the buffered heads."""
        self._oldest_arrival = min(self._chip_oldest.values(),
                                   default=math.inf)
        self._max_projected = max(self._chip_projected.values(),
                                  default=0.0)

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
        shared = (self.slack.slack(self._arrived(now))
                  / (self._pending_total + 1))
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

        self._buffer(chip_id, stream)
        self.transfers_buffered += 1
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
        if self.slack.should_release(by_bus, self._arrived(now), now):
            self.releases_by_slack += 1
            batch = self._pop_pending(chip_id)
            self._record_release(chip_id, batch, "slack", now)
            return batch
        return []

    def epoch_cycles(self) -> float | None:
        return self._config.alignment.epoch_cycles

    def settle_epochs(self, now: float, stop: float = -math.inf,
                      at_stop: bool = False,
                      before_tick: Callable[[float], None] | None = None
                      ) -> tuple[float, int, dict[int, list[FluidStream]]]:
        """Run the epoch ticks ``now``, ``now + epoch``, ... in one call.

        Each tick adds ``slack.epoch_charge(epoch, pending)`` to the
        slack account's charges, with ``charge_epoch``'s event, and
        releases what is due. With a tracer, each tick first emits the
        ``pending_heads`` and ``served_requests`` counters on the sim
        track, which the auditor's slack replay reads. A tick is quiet when one slack
        balance and the two bounds of :meth:`_refresh_bounds` prove that
        it can release nothing and count no violation. The test is
        exact: every allowance is ``deadline_fraction * max(own,
        shared)`` with this same ``shared`` float (:meth:`_allowance`),
        so no deadline is due while the oldest head has waited less than
        ``deadline_fraction * shared``; and while ``release_fraction *
        balance`` exceeds every chip's projected delay,
        ``should_release`` is false for every chip and the balance is
        positive. The ``slack`` counter each of those calls would have
        emitted is emitted here. Any other tick runs the per-chip
        deadline and slack checks.

        A quiet tick changes nothing but the charges, so a run of them
        costs a few float operations each. After the tick at ``now``,
        the call runs each next tick that would still pop before the
        engine's next queued event, at ``stop``: one before ``stop``,
        or at ``stop`` when ``at_stop`` (that event sorts after an epoch
        tick). It ends after the first tick that releases anything. The
        defaults run one tick. Before each tick after the first, it
        calls ``before_tick(t)``, when given, with that tick's time:
        the fluid engine ticks there the probes due before ``t``, which
        read the slack charged by every earlier tick and by no later
        one.

        Returns the last tick run, the number of ticks run and that
        tick's releases (``chip_id -> streams``).
        """
        slack = self.slack
        tracer = self._tracer
        epoch = self._config.alignment.epoch_cycles
        pending = self._pending_total
        charged = slack.epoch_charge(epoch, pending)
        credit = slack.credit_per_request()
        requests = self._pending_requests
        deadline_fraction = self._config.alignment.deadline_fraction
        release_fraction = slack.release_fraction
        oldest, projected = self._oldest_arrival, self._max_projected
        arrived = self.arrived_requests
        ticks = 0
        while True:
            ticks += 1
            if tracer is not None:
                tracer.counter(now, "pending_heads", TRACK_SIM,
                               float(pending))
                tracer.counter(now, "served_requests", TRACK_SIM,
                               arrived(now))
            slack.total_charges += charged
            if pending:
                if tracer is not None:
                    slack.emit_epoch_charge(now, charged, pending, epoch)
                balance = ((arrived(now) + requests) * credit
                           - slack.total_charges)
                if (now - oldest
                        < deadline_fraction * (balance / (pending + 1))
                        and release_fraction * balance > projected):
                    if tracer is not None:
                        for _ in self._pending:
                            tracer.counter(now, "slack", TRACK_CONTROLLER,
                                           balance)
                else:
                    releases = self._release_due(now)
                    if releases:
                        return now, ticks, releases
            following = now + epoch
            if not (following < stop or at_stop and following == stop):
                return now, ticks, {}
            if before_tick is not None:
                before_tick(following)
            now = following

    def _release_due(self, now: float) -> dict[int, list[FluidStream]]:
        """One tick's per-chip deadline and slack checks."""
        releases: dict[int, list[FluidStream]] = {}
        for chip_id in list(self._pending):
            if self._deadline_due(chip_id, now):
                self.releases_by_deadline += 1
                releases[chip_id] = self._pop_pending(chip_id)
                self._record_release(chip_id, releases[chip_id],
                                     "deadline", now)
                continue
            by_bus = self._pending_by_bus(chip_id)
            if self.slack.should_release(by_bus, self._arrived(now), now):
                self.releases_by_slack += 1
                releases[chip_id] = self._pop_pending(chip_id)
                self._record_release(chip_id, releases[chip_id],
                                     "slack", now)
        return releases

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

    def drain(self, now: float) -> dict[int, list[FluidStream]]:
        releases = {}
        for chip_id in list(self._pending):
            self.releases_by_drain += 1
            releases[chip_id] = self._pop_pending(chip_id)
            self._record_release(chip_id, releases[chip_id], "drain", now)
        return releases

    def pending_count(self) -> int:
        return self._pending_total

    def holds_heads(self, chip_id: int) -> bool:
        return chip_id in self._by_bus

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
