"""The precise (per-DMA-memory-request) reference engine.

Every 8-byte DMA-memory request is an explicit event: the bus transmits it
(one request per bus period, FIFO/round-robin among the bus's in-flight
transfers), the chip queues and serves it (4 cycles at Table 1 defaults,
processor accesses first), and the dynamic policy walks the chip down
through its power states step by step: each chip keeps its walk as a
clock (the time of its next step boundary) and applies every boundary
that has passed, at its own time, whenever the chip is read. This
reproduces Figure 2(a) literally — serve 4 cycles, sit active-idle 8 —
and is the ground truth the fluid engine is validated against.

With the array-timeline kernel (:mod:`repro.sim.array_timeline`) it
costs about 1.5 times the fluid engine's time per request on OLTP-Db,
and the kernel-free ``precise-scalar`` oracle about thirteen times more
on DMA-only traffic (``docs/ENGINES.md``). Use it for cross-validation, small traces,
tests, and spot checks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop
from typing import Deque, NamedTuple

import numpy as np

from repro.config import SimulationConfig
from repro.energy.accounting import (BUCKET_INDEX, EnergyBreakdown,
                                     TimeBreakdown, bucket_values)
from repro.energy.states import EDGE_NAMES, PowerState
from repro.obs.events import TRACK_SIM, bus_track, chip_track
from repro.sim.engine import EngineCore
from repro.sim.results import SimulationResult
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

# Event kinds (kept local: the precise engine has its own taxonomy).
_EV_ARRIVAL = 0
_EV_BUS_FREE = 1
_EV_REQUEST_AT_CHIP = 2
_EV_SERVE_DONE = 3
_EV_CHIP_READY = 4
_EV_EPOCH = 5
_EV_INTERVAL = 6

_ACTIVE = PowerState.ACTIVE
_INF = math.inf

# Request priority classes (lower value served first).
_PRIO_PROC = 0
_PRIO_DMA = 1
_PRIO_MIGRATION = 2

#: The bucket a request's service accrues to, by priority class.
_SERVING_BUCKET = ("serving_proc", "serving_dma", "migration")


@dataclass
class _PTransfer:
    """Runtime state of one DMA transfer in the precise engine."""

    record: DMATransfer
    chip_id: int
    bus_id: int
    total_requests: int
    arrival_time: float
    release_time: float = 0.0
    transmitted: int = 0
    served: int = 0
    #: Requests delivered to the chip but not yet served. The DMA engine
    #: keeps at most two in flight (one in service, one on the wire) —
    #: the pipelining behind Figure 2(a)'s fixed 12-cycle request cadence
    #: — and stalls when the chip falls behind (e.g. while waking).
    outstanding: int = 0
    stalled: bool = False
    #: Engine-assigned per-run transfer ordinal (deterministic, unlike
    #: ``id(self)``); keys the audit layer's per-transfer waterfall.
    seq: int = 0
    #: Wake latency paid by this transfer's release (audit waterfall).
    wake_wait: float = 0.0
    #: Per-request service inflation accumulated for this transfer;
    #: only maintained while a tracer is attached.
    extra_cycles: float = 0.0
    #: Stale ``REQUEST_AT_CHIP`` events to swallow. When the array-
    #: timeline kernel fast-forwards a steady window it re-arms the
    #: in-flight request at the post-window time; the pre-window event
    #: pair is still in the heap and must be ignored once.
    skip_arrivals: int = 0

    @property
    def done(self) -> bool:
        return self.served >= self.total_requests

    @property
    def head_delay(self) -> float:
        return max(0.0, self.release_time - self.arrival_time)

    # Duck-typing for the shared controllers.
    @property
    def is_dma(self) -> bool:
        return True

    @property
    def num_requests(self) -> int:
        return self.total_requests


@dataclass
class _Request:
    """One queued unit of chip work.

    A processor burst is one entry of ``count`` identical accesses;
    :meth:`_PChip.pop_request` hands them out one at a time.
    """

    priority: int
    arrival: float
    cycles: float
    transfer: _PTransfer | None = None
    count: int = 1


class _Step(NamedTuple):
    """One step of a chip's descent walk, with the power model's figures
    for it read once (reading them off the model hashes an Enum member)."""

    #: Idle cycles (since the chip went idle) before the step may begin.
    threshold: float
    target: PowerState
    down_cycles: float
    down_watts: float
    #: Steady power in ``target``.
    watts: float
    #: The wake from ``target`` back to ACTIVE.
    up_cycles: float
    up_watts: float


class _Instant:
    """What the chips' descent walks and the arrived-request count need
    to know of the event the run loop is handling: whether a walk
    boundary or a request landing at its very time is past
    (``ties_past``). It is for an epoch or interval tick, which pops
    after the other events of its instant; a trace arrival, bus,
    request, serve or wake event sees the chip as it was before the
    step."""

    __slots__ = ("ties_past",)

    def __init__(self) -> None:
        self.ties_past = False


class _PChip:
    """Per-request chip model whose descent walk runs as a clock.

    While the chip is idle its policy walks it down the schedule: step
    ``i`` begins ``threshold_i`` cycles after the chip went idle (or when
    step ``i - 1`` finishes, if later) and finishes ``down_cycles_i``
    later. ``descent_due`` holds the time of the walk's next boundary, a
    step's begin or, while ``transition_until`` is set, its finish
    (``math.inf`` when no walk runs). Every read of the chip at ``t``
    (:meth:`touch`, :meth:`is_low_power`, :meth:`begin_wake`,
    :meth:`observe`) first applies each boundary past at ``t`` at its own
    time and in order (:meth:`_walk`); a serve or a wake ends the walk.
    """

    def __init__(self, chip_id: int, model, policy,
                 instant: _Instant) -> None:
        self.chip_id = chip_id
        self.schedule = policy.schedule(model)
        steps = []
        for threshold, target in self.schedule:
            down, up = model.downward[target], model.upward[target]
            steps.append(_Step(threshold, target, down.time_cycles,
                               down.power_watts, model.power(target),
                               up.time_cycles, up.power_watts))
        self._steps = tuple(steps)
        self._frequency = model.frequency_hz
        self._active_power = model.active_power
        self._instant = instant
        self.energy = EnergyBreakdown()
        self.time = TimeBreakdown()
        self.wake_count = 0
        #: Optional event tracer (set by the engine when tracing is live).
        self.tracer = None
        #: ``"from->to"`` power-state transition counts.
        self.transition_counts: dict[str, int] = {}
        self._track = chip_track(chip_id)

        self.queue: list[Deque[_Request]] = [deque(), deque(), deque()]
        self.serving: _Request | None = None
        self.inflight_transfers = 0
        #: Transfers actively streaming to this chip (first request on
        #: the wire through last request served), in stream-start order.
        #: ``inflight_transfers`` also counts transfers parked in a bus
        #: FIFO; the array-timeline kernel needs the distinction.
        self.streams: list = []

        # Power state machinery: fully descended at start.
        if self._steps:
            self.state = self._steps[-1].target
            self._power = self._steps[-1].watts
        else:
            self.state = _ACTIVE
            self._power = self._active_power
        #: Steps of the current walk finished so far.
        self.descent_index = len(self._steps)
        self.idle_since = 0.0
        self.descent_due = _INF
        #: Time of the last walk boundary applied: the run's horizon
        #: reaches it.
        self.last_boundary = 0.0
        self.waking_until: float | None = None
        self.transition_until: float | None = None

        # Accrual bookkeeping.
        self._last = 0.0

    # --- accrual ---------------------------------------------------------

    def touch(self, now: float) -> None:
        """Accrue energy/time up to ``now``, past walk steps first."""
        if self.descent_due <= now:
            self._walk(now, self._instant.ties_past)
        self._accrue(now)

    def _accrue(self, now: float) -> None:
        """Accrue energy/time since the last checkpoint at the current mode."""
        if now <= self._last:
            return
        start = self._last
        delta = now - self._last
        self._last = now
        seconds = delta / self._frequency

        if self.serving is not None:
            joules = self._active_power * seconds
            if self.serving.priority == _PRIO_PROC:
                bucket = "serving_proc"
                self.time.serving_proc += delta
                self.energy.serving_proc += joules
            elif self.serving.priority == _PRIO_DMA:
                bucket = "serving_dma"
                self.time.serving_dma += delta
                self.energy.serving_dma += joules
            else:
                bucket = "migration"
                self.time.migration += delta
                self.energy.migration += joules
            if self.tracer is not None:
                self.tracer.span(start, delta, "serve", self._track,
                                 {"bucket": bucket, "joules": joules})
            return

        if self.waking_until is not None or self.transition_until is not None:
            # In transit between states; power set when transit began.
            self.time.transition += delta
            self.energy.transition += self._transit_power * seconds
            if self.tracer is not None:
                self.tracer.span(start, delta, "transition", self._track,
                                 {"bucket": "transition",
                                  "joules": self._transit_power * seconds})
            return

        joules = self._power * seconds
        if self.state is _ACTIVE:
            if self.inflight_transfers > 0:
                bucket = "idle_dma"
                self.time.idle_dma += delta
                self.energy.idle_dma += joules
            else:
                bucket = "idle_threshold"
                self.time.idle_threshold += delta
                self.energy.idle_threshold += joules
            name = "active-idle"
        else:
            bucket = "low_power"
            name = self.state.value
            self.time.low_power += delta
            self.energy.low_power += joules
        if self.tracer is not None:
            self.tracer.span(start, delta, name, self._track,
                             {"bucket": bucket, "joules": joules})

    _transit_power = 0.0

    def observe(self, now: float) -> list[float]:
        """The chip's snapshot block at ``now``, in
        :data:`~repro.obs.probe.CHIP_FIELDS` order: energy-to-date,
        instantaneous power, then residency-to-date per bucket.

        Read-only but for the walk: the steps past at ``now`` are
        applied at their own times, as any read applies them. The
        pending ``now - _last`` span is classified exactly as
        :meth:`touch` will classify it, but nothing is accrued —
        splitting an accrual at an observation point would change float
        rounding, and observed runs must stay bit-identical in energy.
        Used by the per-tick probe snapshot that telemetry and digests
        share (:class:`~repro.obs.probe.ProbeSet`).
        """
        if self.descent_due <= now:
            self._walk(now, True)  # a probe tick follows its instant
        buckets = list(bucket_values(self.time))
        in_transit = (self.waking_until is not None
                      or self.transition_until is not None)
        if self.serving is not None:
            power = self._active_power
            bucket = _SERVING_BUCKET[self.serving.priority]
        elif in_transit:
            power = self._transit_power
            bucket = "transition"
        else:
            power = self._power
            if self.state is not _ACTIVE:
                bucket = "low_power"
            elif self.inflight_transfers > 0:
                bucket = "idle_dma"
            else:
                bucket = "idle_threshold"
        delta = now - self._last
        if delta > 0:
            buckets[BUCKET_INDEX[bucket]] += delta
        return [self.energy.total, power, *buckets]

    def _count_transition(self, source: PowerState,
                          target: PowerState) -> None:
        edge = EDGE_NAMES[source._value_, target._value_]
        self.transition_counts[edge] = self.transition_counts.get(edge, 0) + 1

    # --- power state ------------------------------------------------------

    def start_walk(self, now: float) -> None:
        """The chip went idle at ``now``: its walk down the schedule
        starts."""
        self.idle_since = now
        self.descent_index = 0
        if self._steps:
            self.descent_due = now + self._steps[0].threshold

    def finish_walk(self) -> None:
        """Apply every step left in the walk (the run is over)."""
        self._walk(_INF, False)

    def _walk(self, now: float, ties_past: bool) -> None:
        """Apply every walk boundary before ``now`` (at ``now`` too when
        ``ties_past``), each at its own time: accrue up to it, then begin
        the step's downward transition or finish it."""
        steps = self._steps
        due = self.descent_due
        while due < now or (ties_past and due == now):
            self._accrue(due)
            self.last_boundary = due
            step = steps[self.descent_index]
            if self.transition_until is None:
                self._transit_power = step.down_watts
                due = self.transition_until = due + step.down_cycles
                continue
            self._count_transition(self.state, step.target)
            self.state = step.target
            self._power = step.watts
            self.transition_until = None
            self.descent_index += 1
            if self.descent_index < len(steps):
                due = max(self.idle_since
                          + steps[self.descent_index].threshold, due)
            else:
                due = _INF
        self.descent_due = due

    def is_low_power(self, now: float) -> bool:
        if self.waking_until is not None:
            return False  # already on the way up
        if self.descent_due <= now:
            self._walk(now, self._instant.ties_past)
        return self.state is not _ACTIVE or self.transition_until is not None

    def begin_wake(self, now: float) -> float:
        """Start (or join) a wake-up; returns the ready time. Ends the
        walk."""
        if self.waking_until is not None:
            return self.waking_until
        if self.descent_due <= now:
            self._walk(now, self._instant.ties_past)
        if self.state is _ACTIVE and self.transition_until is None:
            return now
        self._accrue(now)
        self.descent_due = _INF
        if self.transition_until is not None:
            # Finish the downward transition first.
            step = self._steps[self.descent_index]
            ready = self.transition_until
            self._count_transition(self.state, step.target)
        else:
            # The walk's last finished step entered the current state.
            step = self._steps[self.descent_index - 1]
            ready = now
        self._transit_power = step.up_watts
        ready += step.up_cycles
        self.waking_until = ready
        self.wake_count += 1
        # The remaining downward leg is subsumed into the transit window;
        # charge it at the downward power by splitting the accrual.
        if self.transition_until is not None and self.transition_until > now:
            leg = self.transition_until - now
            leg_joules = step.down_watts * leg / self._frequency
            self.time.transition += leg
            self.energy.transition += leg_joules
            if self.tracer is not None:
                self.tracer.span(now, leg, "transition", self._track,
                                 {"bucket": "transition",
                                  "joules": leg_joules})
            self._last = self.transition_until
        self.transition_until = None
        self.state = step.target
        self._power = step.watts
        return ready

    def finish_wake(self, now: float) -> None:
        self.touch(now)
        self.waking_until = None
        self._count_transition(self.state, _ACTIVE)
        self.state = _ACTIVE
        self._power = self._active_power

    # --- queueing ----------------------------------------------------------

    def enqueue(self, request: _Request) -> None:
        self.queue[request.priority].append(request)

    def pop_request(self) -> _Request | None:
        """The next unit of work, highest priority first. An entry of
        several accesses stays queued until its last one is handed out
        (an access carries no state of its own, so the entry stands for
        each of them)."""
        for bucket in self.queue:
            if bucket:
                request = bucket[0]
                if request.count > 1:
                    request.count -= 1
                else:
                    bucket.popleft()
                return request
        return None

    @property
    def has_queued(self) -> bool:
        return any(self.queue)


class PreciseEngine(EngineCore):
    """Per-request event-driven simulation (the validation reference).

    ``telemetry`` and ``digests`` are probes (:mod:`repro.obs.probe`),
    driven exactly as in :class:`~repro.sim.fluid.FluidEngine`.
    """

    name = "precise"
    _ARRIVAL, _EPOCH, _INTERVAL = _EV_ARRIVAL, _EV_EPOCH, _EV_INTERVAL

    def __init__(self, trace: Trace, config: SimulationConfig,
                 technique: str = "baseline", seed: int = 0,
                 tracer=None, vectorize: bool = True,
                 telemetry=None, digests=None) -> None:
        super().__init__(trace, config, technique, seed, tracer)
        memory = config.memory
        self._instant = _Instant()
        chips = [_PChip(i, memory.power_model, self.policy, self._instant)
                 for i in range(memory.num_chips)]

        # Bus state: one transfer owns a bus at a time (FIFO), matching
        # the fluid engine's default sharing discipline.
        self._bus_fifo: list[Deque[_PTransfer]] = [
            deque() for _ in range(config.buses.count)]
        self._bus_current: list[_PTransfer | None] = [None] * config.buses.count
        self._bus_free_at = [0.0] * config.buses.count
        #: Stale ``BUS_FREE`` events to swallow per bus (see
        #: :attr:`_PTransfer.skip_arrivals`).
        self._bus_skip = [0] * config.buses.count
        self._bus_gap = config.request_period_cycles
        self._open_transfers = 0
        #: DMA-memory requests counted as arrived: at their request-at-chip
        #: event, or, for a kernel window, once its last request has
        #: landed (:meth:`_fold_windows`).
        self.arrived_requests = 0
        #: Chip-arrival times of each kernel window not yet folded into
        #: ``arrived_requests``.
        self._window_arrivals: list[np.ndarray] = []

        # Next times at which shared state can be observed (trace
        # arrival, DMA-TA epoch, PL interval; probe ticks are
        # ``self.probes.next_time``); with the per-chip record times
        # below, the array-timeline kernel's batching horizons.
        # Maintained wherever the corresponding events are
        # (re-)scheduled, starting from the first ones ``run`` pushes.
        self._next_arrival_time = (trace.records[0].time if trace.records
                                   else math.inf)
        self._next_epoch_time = self.controller.epoch_cycles() or math.inf
        self._next_interval_time = (config.layout.interval_cycles
                                    if self._pl_enabled else math.inf)
        self._attach(chips, (telemetry, digests))
        #: Index of the first trace record not yet arrived.
        self._next_record = 0
        if vectorize:
            from repro.sim.array_timeline import ArrayTimelineKernel

            self._kernel: ArrayTimelineKernel | None = ArrayTimelineKernel(self)
            records = trace.records
            self._record_pages = np.fromiter(
                (record.page for record in records), dtype=np.int64,
                count=len(records)) % self._total_pages
            self._record_times = np.fromiter(
                (record.time for record in records), dtype=float,
                count=len(records))
            self._record_chip = np.zeros(len(records), dtype=np.int64)
            self._next_on_chip = np.full(len(records), math.inf)
            self._index_records(0)
        else:
            self._kernel = None

    def _index_records(self, start: int) -> None:
        """Index the trace records from ``start`` on by the chip they are
        addressed to, for the kernel's per-chip horizon: each chip's next
        record time (``_chip_next_arrival``) and, per record, the time of
        the next one addressed to its chip (``_next_on_chip``). One
        gather over the layout's chip map; redone when a PL interval
        moves pages."""
        self._chip_next_arrival = [math.inf] * len(self.chips)
        if start >= len(self._record_times):
            return
        chips = self.layout.chip_map()[self._record_pages[start:]]
        times = self._record_times[start:]
        order = np.argsort(chips, kind="stable")
        grouped = chips[order]
        same = grouped[1:] == grouped[:-1]
        following = np.full(len(order), math.inf)
        following[order[:-1][same]] = times[order[1:][same]]
        self._record_chip[start:] = chips
        self._next_on_chip[start:] = following
        firsts = order[np.flatnonzero(np.append(True, ~same))]
        for chip_id, time in zip(chips[firsts].tolist(),
                                 times[firsts].tolist()):
            self._chip_next_arrival[chip_id] = time

    def _arrived_requests(self, now: float) -> float:
        """DMA-memory requests that have reached their chip by the
        reading event at ``now``: those counted in ``arrived_requests``
        plus each open kernel window's requests that land by ``now``,
        exactly the count the scalar engine holds at that event.

        A request landing at ``now`` itself has arrived for an EPOCH,
        which pops after the request-at-chip events of its instant
        (``_instant.ties_past``), and not for a trace ARRIVAL, which pops
        before them. A probe tick finds no windowed request at its
        instant: every window ends before the next tick."""
        self._fold_windows(now)
        count = self.arrived_requests
        side = "right" if self._instant.ties_past else "left"
        for arrivals in self._window_arrivals:
            count += int(np.searchsorted(arrivals, now, side))
        return float(count)

    def _fold_windows(self, now: float) -> None:
        """Count every kernel window whose last request landed before
        ``now`` into ``arrived_requests`` and drop its arrival times."""
        if not self._window_arrivals:
            return
        still_open = []
        for arrivals in self._window_arrivals:
            if arrivals[-1] < now:
                self.arrived_requests += len(arrivals)
            else:
                still_open.append(arrivals)
        self._window_arrivals = still_open

    def _bus_states(self) -> list[tuple[float, float]]:
        """``(busy, queue_depth)`` per bus, for probe snapshots."""
        return [(1.0 if current is not None else 0.0, float(len(fifo)))
                for current, fifo in zip(self._bus_current, self._bus_fifo)]

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        self._start()
        # ``progress`` tracks the last state-changing event only: an
        # epoch or PL interval tick that finds no work left must not
        # stretch the simulated horizon — its handler returns at once,
        # so the horizon stays set by the trace and its work, as in the
        # fluid engine. Probe ticks are not events and never count; the
        # chips' descent walks do (below).
        progress = 0.0
        probes = self.probes
        queue = self.queue
        heap = queue.heap
        handlers = self._HANDLERS
        instant = self._instant
        while heap:
            now, kind, _, payload = heappop(heap)
            queue.now = now
            if now > probes.next_time:
                # Read-only: the ticks see every event before this one.
                probes.catch_up(now)
            instant.ties_past = kind >= _EV_EPOCH
            if kind < _EV_EPOCH or self._work_remaining():
                progress = now
            handlers[kind](self, payload, now)
            if self._records_done:
                self._maybe_drain(now)
        # The trailing tick: the first one after the last event, which
        # may lie past the horizon (the final sample then adds none).
        probes.catch_up(math.inf)

        # Idle chips walk on down to the end of their schedules; each
        # step is a state change, so the horizon reaches the last one.
        end = max(progress, self.trace.duration_cycles)
        for chip in self.chips:
            chip.finish_walk()
            end = max(end, chip.last_boundary)
        for chip in self.chips:
            chip.touch(end)
        kernel = self._kernel
        if kernel is not None:
            kernel.engine = None  # the run is over; break the cycle
            self.wall.charge("kernel", kernel.wall_ns)
            for name in ("batches", "batched_requests", "proc_windows",
                         "proc_accesses"):
                self.registry.counter(f"kernel.{name}").inc(
                    getattr(kernel, name))
        return self._finish(end)

    def _work_remaining(self) -> bool:
        return (not self._records_done or self._open_transfers > 0
                or self.controller.pending_count() > 0
                or any(c.has_queued or c.serving for c in self.chips))

    def _maybe_drain(self, now: float) -> None:
        if (self._records_done and self._open_transfers == 0
                and self.controller.pending_count() > 0
                and not any(c.has_queued or c.serving for c in self.chips)):
            for chip_id, transfers in self.controller.drain(now).items():
                self._do_release(chip_id, transfers, now, notify=True)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, index: int, now: float) -> None:
        record = self.trace.records[index]
        if index + 1 < len(self.trace.records):
            self._next_arrival_time = self.trace.records[index + 1].time
            self.queue.push(self._next_arrival_time, _EV_ARRIVAL, index + 1)
        else:
            self._next_arrival_time = math.inf
            self._records_done = True
        self._next_record = index + 1
        if self._kernel is not None:
            self._chip_next_arrival[self._record_chip.item(index)] = (
                self._next_on_chip.item(index))
        if isinstance(record, DMATransfer):
            self._on_transfer(record, now)
        elif isinstance(record, ProcessorBurst):
            self._on_proc(record, now)

    def _on_transfer(self, record: DMATransfer, now: float) -> None:
        chip_id, bus_id, n_req = self._count_transfer(record, now)
        transfer = _PTransfer(record=record, chip_id=chip_id, bus_id=bus_id,
                              total_requests=n_req, arrival_time=now,
                              seq=self.transfers)
        released = self.controller.admit(transfer, self.chips[chip_id], now)
        if released:
            self._do_release(chip_id, released, now, notify=True)

    def _on_proc(self, record: ProcessorBurst, now: float) -> None:
        page = record.page % self._total_pages
        chip_id = self.layout.chip_of(page)
        chip = self.chips[chip_id]
        self.proc_accesses += record.count
        work = record.count * self._proc_serve_cycles
        dma_here = chip.inflight_transfers
        self.controller.on_proc_access(chip_id, work, dma_here, now)
        chip.enqueue(_Request(priority=_PRIO_PROC, arrival=now,
                              cycles=self._proc_serve_cycles,
                              count=record.count))
        # Buffered DMA heads stay buffered across the burst (the slack
        # account is charged for the coexistence, Section 4.1.3).
        self._kick_chip(chip, now)

    def _do_release(self, chip_id: int, transfers, now: float,
                    notify: bool) -> None:
        chip = self.chips[chip_id]
        latency = 0.0
        if chip.is_low_power(now):
            ready = chip.begin_wake(now)
            latency = ready - now
            self.queue.push(ready, _EV_CHIP_READY, chip_id)
        if notify and latency > 0:
            self.controller.on_wake(chip_id, latency, now, len(transfers))
        for transfer in transfers:
            transfer.release_time = now
            transfer.wake_wait = latency
            self.head_delay_total += transfer.head_delay
            self._open_transfers += 1
            chip.touch(now)
            chip.inflight_transfers += 1
            self._enqueue_on_bus(transfer, now)

    # --- bus -----------------------------------------------------------

    def _enqueue_on_bus(self, transfer: _PTransfer, now: float) -> None:
        bus_id = transfer.bus_id
        if self._bus_current[bus_id] is None:
            self._bus_current[bus_id] = transfer
            self._transmit(transfer, now)
        else:
            self._bus_fifo[bus_id].append(transfer)
            if self.tracer is not None:
                self.tracer.counter(now, "queue_depth", bus_track(bus_id),
                                    float(len(self._bus_fifo[bus_id])))

    def _transmit(self, transfer: _PTransfer, now: float) -> None:
        """Put one DMA-memory request of ``transfer`` on its bus."""
        bus_id = transfer.bus_id
        if transfer.transmitted == 0:
            self.chips[transfer.chip_id].streams.append(transfer)
        start = max(now, self._bus_free_at[bus_id])
        end = start + self._bus_gap
        transfer.transmitted += 1
        transfer.outstanding += 1
        if self.tracer is not None and transfer.transmitted == 1:
            # The transfer's first request hits the wire: the waterfall's
            # wake and bus-queueing stages are now known.
            self.tracer.instant(now, "dma.start", TRACK_SIM,
                                {"id": transfer.seq,
                                 "chip": transfer.chip_id,
                                 "wake": transfer.wake_wait,
                                 "bus_wait": max(0.0, start
                                                 - transfer.release_time)})
        self._land_at(transfer, end)

    def _land_at(self, transfer: _PTransfer, time: float) -> None:
        """The request ``transfer`` has on the wire reaches its chip at
        ``time``, and its bus frees then. Both events rank by bus id:
        tied wire events of one kind pop in bus order, the arbiter rule
        of ``docs/MODEL.md``."""
        bus_id = transfer.bus_id
        self._bus_free_at[bus_id] = time
        self.queue.push(time, _EV_REQUEST_AT_CHIP, transfer, bus_id)
        self.queue.push(time, _EV_BUS_FREE, bus_id, bus_id)

    def _on_bus_free(self, bus_id: int, now: float) -> None:
        """The wire is free: keep the current transfer streaming, or hand
        the bus to the next queued transfer once this one has transmitted
        everything."""
        if self._bus_skip[bus_id]:
            self._bus_skip[bus_id] -= 1
            return
        transfer = self._bus_current[bus_id]
        if transfer is not None:
            if transfer.transmitted < transfer.total_requests:
                if transfer.outstanding >= 2:
                    transfer.stalled = True  # chip is behind; wait for acks
                else:
                    self._transmit(transfer, now)
                return
            self._bus_current[bus_id] = None
        fifo = self._bus_fifo[bus_id]
        if fifo:
            nxt = fifo.popleft()
            if self.tracer is not None:
                self.tracer.counter(now, "queue_depth", bus_track(bus_id),
                                    float(len(fifo)))
            self._bus_current[bus_id] = nxt
            self._transmit(nxt, now)

    def _on_request_ack(self, transfer: _PTransfer, now: float) -> None:
        """The chip served one of the transfer's requests (the ack that
        releases the DMA engine's next transmission when stalled)."""
        transfer.outstanding -= 1
        if (transfer.stalled
                and transfer.transmitted < transfer.total_requests):
            transfer.stalled = False
            self._transmit(transfer, now)
        elif (self._bus_current[transfer.bus_id] is transfer
                and transfer.transmitted >= transfer.total_requests):
            # Last requests acked; pass the bus on if the wire is idle.
            if self._bus_free_at[transfer.bus_id] <= now + 1e-12:
                self._on_bus_free(transfer.bus_id, now)

    # --- chip -----------------------------------------------------------

    def _on_request_at_chip(self, transfer: _PTransfer, now: float) -> None:
        if transfer.skip_arrivals:
            transfer.skip_arrivals -= 1
            return
        chip = self.chips[transfer.chip_id]
        self.arrived_requests += 1
        # A request landing during a wake window starts its service clock
        # when the chip is ready: the wake latency belongs to the power
        # policy (paid in the baseline too), not to the DMA-TA guarantee.
        arrival = now
        if chip.waking_until is not None:
            arrival = max(arrival, chip.waking_until)
        chip.enqueue(_Request(priority=_PRIO_DMA, arrival=arrival,
                              cycles=self._serve_cycles, transfer=transfer))
        self._kick_chip(chip, now)

    def _kick_chip(self, chip: _PChip, now: float) -> None:
        """Start serving if the chip is free, active, and has work."""
        if chip.serving is not None or not chip.has_queued:
            return
        if chip.waking_until is not None:
            return  # CHIP_READY will kick again
        if chip.is_low_power(now):
            ready = chip.begin_wake(now)
            self.queue.push(ready, _EV_CHIP_READY, chip.chip_id)
            return
        chip.touch(now)
        request = chip.pop_request()
        assert request is not None
        chip.serving = request
        chip.descent_due = _INF  # a serve ends the walk
        end = now + request.cycles
        if (self._kernel is not None and request.priority == _PRIO_PROC
                and chip.queue[_PRIO_PROC]):
            end = self._kernel.serve_proc(chip, end)
        self.queue.push(end, _EV_SERVE_DONE, chip.chip_id)

    def _on_chip_ready(self, chip_id: int, now: float) -> None:
        chip = self.chips[chip_id]
        if chip.waking_until is None or chip.waking_until > now + 1e-9:
            return  # stale (a later wake superseded this one)
        chip.finish_wake(now)
        self._kick_chip(chip, now)
        if chip.serving is None:
            chip.start_walk(now)

    def _on_serve_done(self, chip_id: int, now: float) -> None:
        chip = self.chips[chip_id]
        request = chip.serving
        assert request is not None
        chip.touch(now)
        chip.serving = None

        if request.priority == _PRIO_DMA and request.transfer is not None:
            transfer = request.transfer
            transfer.served += 1
            extra = (now - request.arrival) - request.cycles
            self.extra_service_total += max(0.0, extra)
            if self.tracer is not None:
                transfer.extra_cycles += max(0.0, extra)
            self._dma_service_hist.record(
                max(request.cycles, now - request.arrival)
                + transfer.head_delay / transfer.total_requests)
            self._on_request_ack(transfer, now)
            if transfer.done:
                chip.inflight_transfers -= 1
                chip.streams.remove(transfer)
                self._open_transfers -= 1
                if self.tracer is not None:
                    self.tracer.instant(
                        now, "dma.done", TRACK_SIM,
                        {"id": transfer.seq, "chip": transfer.chip_id,
                         "extra": transfer.extra_cycles,
                         "waited": transfer.head_delay,
                         "mig": int(bool(chip.queue[_PRIO_MIGRATION]))})
                record = transfer.record
                if record.request_id is not None:
                    prior = self._last_completion.get(record.request_id, 0.0)
                    self._last_completion[record.request_id] = max(prior, now)

        if chip.has_queued:
            self._kick_chip(chip, now)
        else:
            chip.start_walk(now)
            if self._kernel is not None and chip.streams:
                self._kernel.try_batch(chip, now)

    # --- epochs and intervals ------------------------------------------------

    def _on_epoch(self, payload, now: float) -> None:
        if not self._work_remaining():
            self._next_epoch_time = math.inf
            return
        self.registry.counter("sim.epochs").inc()
        for chip_id, transfers in self.controller.on_epoch(now).items():
            self._do_release(chip_id, transfers, now, notify=True)
        epoch = self.controller.epoch_cycles()
        if epoch:
            self._next_epoch_time = now + epoch
            self.queue.push(self._next_epoch_time, _EV_EPOCH, None)
        else:
            self._next_epoch_time = math.inf

    def _on_interval(self, payload, now: float) -> None:
        if self._records_done and self._open_transfers == 0:
            self._next_interval_time = math.inf
            return
        migration = self._plan_interval(now)
        if migration is not None:
            if self._kernel is not None and migration.num_moves:
                self._index_records(self._next_record)
            for chip_id, cycles in migration.copy_cycles_per_chip(
                    self._page_copy_cycles).items():
                chip = self.chips[chip_id]
                pages = max(1, round(cycles / self._page_copy_cycles))
                for _ in range(pages):
                    chip.enqueue(_Request(priority=_PRIO_MIGRATION,
                                          arrival=now,
                                          cycles=self._page_copy_cycles))
                self._kick_chip(chip, now)
        if not self._records_done:
            self._next_interval_time = now + self.config.layout.interval_cycles
            self.queue.push(self._next_interval_time, _EV_INTERVAL, None)
        else:
            self._next_interval_time = math.inf

    # ------------------------------------------------------------------

    #: Handler per event kind, indexed by kind.
    _HANDLERS = (_on_arrival, _on_bus_free, _on_request_at_chip,
                 _on_serve_done, _on_chip_ready, _on_epoch, _on_interval)
