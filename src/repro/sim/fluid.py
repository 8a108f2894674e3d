"""The fluid (change-point) simulation engine.

State only changes at *change-points*: transfer arrivals and completions,
gather releases, processor bursts, epoch/interval ticks, and wake
completions. Between change-points every chip carries a set of
constant-rate streams and energy accrues in closed form
(:class:`~repro.memory.chip.FluidChip`). For the paper's strictly periodic
DMA-memory request streams this is exact in aggregate, and faster than
per-request simulation: about ten times the precise engine on DMA-only
traffic, and about 1.5 times per request on OLTP-Db, whose processor
bursts add change-points (``docs/ENGINES.md``). The test suite
cross-validates it against :class:`~repro.sim.precise.PreciseEngine`.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from heapq import heappop

from repro.config import SimulationConfig
from repro.io.bus import FluidBus
from repro.io.dma import FluidStream, StreamKind, allocate_chip_capacity
from repro.memory.chip import ChipRates, FluidChip
from repro.memory.system import MemorySystem
from repro.obs.events import TRACK_SIM
from repro.sim.engine import EngineCore, EventKind
from repro.sim.results import SimulationResult
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

#: Remaining-work threshold (serving cycles) below which a stream is done.
_DONE_EPS = 1e-6

# The event kinds, bound once: on Python 3.11 reading a member off its
# Enum class costs about ten global-name lookups, and the run loop and
# the rebalance read one per event and per stream.
_ARRIVAL = EventKind.ARRIVAL
_COMPLETE = EventKind.COMPLETE
_STREAM_START = EventKind.STREAM_START
_EPOCH = EventKind.EPOCH
_INTERVAL = EventKind.INTERVAL


class FluidEngine(EngineCore):
    """One simulation run of a trace under a technique.

    Args:
        trace: the input trace.
        config: platform and technique parameters.
        technique: one of ``nopm`` (no power management, the performance
            reference), ``baseline`` (the low-level dynamic policy alone),
            ``dma-ta``, ``pl``, or ``dma-ta-pl``.
        seed: seed of the baseline random page layout.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; when given
            the run emits power-state residency spans, TA
            buffering/release decisions, slack charges, PL migrations,
            and per-epoch progress counters. ``None`` disables tracing:
            the hot paths pay a single ``is not None`` check.
        telemetry: optional
            :class:`~repro.obs.telemetry.TelemetrySampler`.
        digests: optional :class:`~repro.obs.diff.DigestRecorder`.
            Both are probes (:mod:`repro.obs.probe`): the run loop ticks
            them at each probe's cadence, outside the event heap, and
            hands every due probe one shared snapshot. Observation
            never touches chip accrual, so an observed run stays
            bit-identical in energy.
    """

    name = "fluid"

    def __init__(self, trace: Trace, config: SimulationConfig,
                 technique: str = "baseline", seed: int = 0,
                 tracer=None, telemetry=None, digests=None) -> None:
        super().__init__(trace, config, technique, seed, tracer)
        self.memory = MemorySystem(config.memory, self.policy, self.layout)

        model = config.memory.power_model
        self.buses = [
            FluidBus(i, config.buses.bandwidth_bytes_per_s, model,
                     sharing=config.buses.sharing)
            for i in range(config.buses.count)
        ]
        if self.tracer is not None:
            for bus in self.buses:
                bus.tracer = self.tracer

        # Runtime state.
        self._stream_ids = itertools.count()
        self._streams_at: dict[int, set[FluidStream]] = defaultdict(set)
        self._active: set[FluidStream] = set()
        self._pending_starts = 0
        #: Time of the last event that actually changed state. Stale
        #: (version-superseded) completion events may sit far in the
        #: future; they must not stretch the simulated horizon.
        self._last_progress = 0.0

        # Global DMA work integral (for slack credits).
        self._dma_work_base = 0.0
        self._dma_work_rate = 0.0
        self._dma_work_time = 0.0

        self._opportunistic = config.layout.opportunistic_copies
        self._attach(self.memory.chips, (telemetry, digests))

    # ------------------------------------------------------------------
    # Global request-arrival accounting (slack credits)
    # ------------------------------------------------------------------

    def _served_dma_work(self, now: float) -> float:
        return self._dma_work_base + self._dma_work_rate * (
            now - self._dma_work_time)

    def _arrived_requests(self, now: float) -> float:
        """Arrived (~served) DMA-memory requests by ``now``, excluding
        buffered heads: :meth:`_served_dma_work`'s expression, in this
        frame."""
        return (self._dma_work_base + self._dma_work_rate * (
            now - self._dma_work_time)) / self._serve_cycles

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        self._start()
        probes = self.probes
        queue = self.queue
        heap = queue.heap
        while heap:
            now, kind, _, payload = heappop(heap)
            queue.now = now
            if now > probes.next_time:
                # Read-only: the ticks see every event before this one.
                probes.catch_up(now)
            if kind is _ARRIVAL:
                self._on_arrival(payload, now)
            elif kind is _COMPLETE:
                self._on_complete(payload, now)
            elif kind is _STREAM_START:
                self._on_stream_start(payload, now)
            elif kind is _EPOCH:
                self._on_epoch(now)
            elif kind is _INTERVAL:
                self._on_interval(now)
            if self._records_done:
                self._maybe_drain(now)
                if not self._work_remaining():
                    break  # only stale/periodic events can remain
        else:
            # No event ran the end-of-work check (an empty trace): take
            # the ticks still due, as the precise loop does.
            probes.catch_up(math.inf)

        end = max(self._last_progress, self.trace.duration_cycles)
        self.memory.advance_all(end)
        return self._finish(end)

    def _work_remaining(self) -> bool:
        return (not self._records_done or self._has_live_streams()
                or self._pending_starts > 0
                or any(bus.queue for bus in self.buses)
                or self.controller.pending_count() > 0)

    def _has_live_streams(self) -> bool:
        """Active streams that can still make progress on their own.

        Parked opportunistic migration copies (zero grant, waiting for
        real traffic to ride on) must not keep the run alive forever.
        """
        return any(s.kind is not StreamKind.MIGRATION or s.granted > 0
                   for s in self._active)

    def _bus_states(self) -> list[tuple[float, float]]:
        """``(busy, queue_depth)`` per bus, for probe snapshots."""
        return [(1.0 if bus.current is not None or bus.members else 0.0,
                 float(len(bus.queue))) for bus in self.buses]

    def _maybe_drain(self, now: float) -> None:
        """Release every buffered head once the records are done (the
        run loop's condition for calling) and nothing else can run."""
        if (not self._active and self._pending_starts == 0
                and not any(bus.queue for bus in self.buses)
                and self.controller.pending_count() > 0):
            for chip_id, streams in self.controller.drain(now).items():
                self._release(self.memory.chips[chip_id], streams, now,
                              notify=True)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, index: int, now: float) -> None:
        if now > self._last_progress:
            self._last_progress = now
        record = self.trace.records[index]
        if index + 1 < len(self.trace.records):
            self.queue.push(self.trace.records[index + 1].time,
                            _ARRIVAL, index + 1)
        else:
            self._records_done = True

        if isinstance(record, DMATransfer):
            self._on_transfer(record, now)
        elif isinstance(record, ProcessorBurst):
            self._on_proc_burst(record, now)

    def _on_transfer(self, record: DMATransfer, now: float) -> None:
        chip_id, bus_id, n_req = self._count_transfer(record, now)
        chip = self.memory.chips[chip_id]
        stream = FluidStream(
            kind=StreamKind.DMA,
            chip_id=chip_id,
            total_work=n_req * self._serve_cycles,
            demand=self.buses[bus_id].full_share_demand,
            stream_id=next(self._stream_ids),
            bus_id=bus_id,
            record=record,
            arrival_time=now,
            release_time=now,
            num_requests=n_req,
            seq=self.transfers,
        )
        chip.advance(now)
        released = self.controller.admit(stream, chip, now)
        if released:
            self._release(chip, released, now, notify=True)

    def _on_proc_burst(self, record: ProcessorBurst, now: float) -> None:
        page = record.page % self._total_pages
        chip = self.memory.chips[self.memory.layout.chip_of(page)]
        work = record.count * self._proc_serve_cycles
        self.proc_accesses += record.count

        dma_here = sum(1 for s in self._streams_at[chip.chip_id] if s.is_dma)
        self.controller.on_proc_access(chip.chip_id, work, dma_here, now)

        stream = FluidStream(
            kind=StreamKind.PROC,
            chip_id=chip.chip_id,
            total_work=work,
            demand=1.0,
            stream_id=next(self._stream_ids),
            record=record,
            arrival_time=now,
            release_time=now,
        )
        # Buffered DMA heads stay buffered: the chip wakes only for the
        # burst and returns to gathering afterwards. The slack account is
        # charged for exactly this coexistence (Section 4.1.3).
        self._release(chip, [stream], now, notify=False)

    def _on_stream_start(self, payload, now: float) -> None:
        chip_id, streams = payload
        self._pending_starts -= 1
        self._start_streams(self.memory.chips[chip_id], list(streams), now)

    def _on_complete(self, payload, now: float) -> None:
        stream, version = payload
        if stream.version != version or stream not in self._active:
            return
        chip = self.memory.chips[stream.chip_id]
        chip.advance(now)
        for other in self._streams_at[chip.chip_id]:
            other.sync(now)
        if stream.remaining_work > _DONE_EPS:
            # Numerical drift: reschedule at the refreshed projection.
            stream.version += 1
            self.queue.push(stream.projected_completion(now),
                            _COMPLETE, (stream, stream.version))
            return
        bus_ids = {stream.bus_id} if stream.is_dma else set()
        granted = self._finish_stream(stream, now)
        self._rebalance(bus_ids, {chip.chip_id}, now)
        if granted is not None:
            self._activate(self.memory.chips[granted.chip_id],
                           [granted], now, notify=True)

    def _on_epoch(self, now: float) -> None:
        """Run DMA-TA epoch ticks from ``now`` in one controller call.

        A tick that releases nothing changes no state the run loop's
        post-event checks (or :meth:`_work_remaining`) read, so the
        controller settles every tick that would pop before the next
        queued event, ending early at a tick that releases. Probe ticks
        are not queued events: the controller calls ``probes.catch_up``
        before each tick after the first, so a probe due between two
        epoch ticks samples between them, and an observed run settles
        the same runs of ticks as an unobserved one.
        """
        if not self._work_remaining():
            return
        controller = self.controller
        probes = self.probes
        stop = self.queue.head_time()
        now, ticks, releases = controller.settle_epochs(
            now, stop, self.queue.precedes(stop, _EPOCH),
            probes.catch_up if probes.next_time < math.inf else None)
        self.registry.counter("sim.epochs").inc(ticks)
        self.queue.advance(now)
        for chip_id, streams in releases.items():
            self._release(self.memory.chips[chip_id], streams, now,
                          notify=True)
        self.queue.push(now + controller.epoch_cycles(), _EPOCH, None)

    def _on_interval(self, now: float) -> None:
        if self._records_done and not self._active:
            return
        migration = self._plan_interval(now)
        if migration is not None:
            for chip_id, cycles in migration.copy_cycles_per_chip(
                    self._page_copy_cycles).items():
                stream = FluidStream(
                    kind=StreamKind.MIGRATION,
                    chip_id=chip_id,
                    total_work=cycles,
                    demand=1.0,
                    stream_id=next(self._stream_ids),
                    arrival_time=now,
                    release_time=now,
                )
                if self._opportunistic:
                    # Section 4.2.2: copies piggyback on cycles the chip
                    # is active for other traffic — never wake it.
                    stream.service_start = now
                    stream.last_sync = now
                    self._streams_at[chip_id].add(stream)
                    self._active.add(stream)
                    self._rebalance(set(), {chip_id}, now)
                else:
                    self._release(self.memory.chips[chip_id], [stream],
                                  now, notify=False)
        if not self._records_done:
            self.queue.push(now + self.config.layout.interval_cycles,
                            _INTERVAL, None)

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------

    def _release(self, chip: FluidChip, streams: list[FluidStream],
                 now: float, notify: bool) -> None:
        """Let ``streams`` proceed: DMA streams enter their bus queues
        (one transfer owns a bus at a time under FIFO sharing); processor
        and migration streams go straight to the chip."""
        direct: list[FluidStream] = []
        for stream in streams:
            stream.release_time = now
            if not stream.is_dma:
                direct.append(stream)
                continue
            if self.buses[stream.bus_id].enqueue(stream, now):
                self._activate(self.memory.chips[stream.chip_id],
                               [stream], now, notify=notify)
        if direct:
            self._activate(chip, direct, now, notify=False)

    def _activate(self, chip: FluidChip, streams: list[FluidStream],
                  now: float, notify: bool) -> None:
        """A bus grant (or direct release) reached the chip: wake it if
        needed and begin serving when it is ready."""
        chip.advance(now)
        latency = chip.wake_latency(now)
        dma_count = sum(1 for s in streams if s.is_dma)
        if notify and latency > 0 and dma_count:
            self.controller.on_wake(chip.chip_id, latency, now, dma_count)
        ready = chip.wake(now)
        for stream in streams:
            stream.service_start = ready
            stream.last_sync = ready
            if stream.is_dma:
                # The gather delay is what DMA-TA's guarantee covers;
                # wake latency is the low-level policy's cost and is
                # paid under the baseline as well (more often, in fact).
                self.head_delay_total += (
                    stream.release_time - stream.arrival_time)
                if self.tracer is not None:
                    self.tracer.instant(
                        now, "dma.start", TRACK_SIM,
                        {"id": stream.seq, "chip": chip.chip_id,
                         "wake": max(0.0, ready - now),
                         "bus_wait": max(0.0, now - stream.release_time)})
        if ready > now + 1e-9:
            self._pending_starts += 1
            self.queue.push(ready, _STREAM_START,
                            (chip.chip_id, tuple(streams)))
        else:
            self._start_streams(chip, streams, now)

    def _start_streams(self, chip: FluidChip, streams: list[FluidStream],
                       now: float) -> None:
        bus_ids: set[int] = set()
        for stream in streams:
            if stream.is_dma:
                bus_ids.add(stream.bus_id)
            self._streams_at[chip.chip_id].add(stream)
            self._active.add(stream)
        self._rebalance(bus_ids, {chip.chip_id}, now)

    def _finish_stream(self, stream: FluidStream,
                       now: float) -> FluidStream | None:
        """Retire a completed stream; returns the next bus grant, if any."""
        self._streams_at[stream.chip_id].discard(stream)
        self._active.discard(stream)
        granted = None
        if stream.is_dma:
            granted = self.buses[stream.bus_id].finish(stream, now)
            self.extra_service_total += stream.extra_service_cycles
            requests = stream.num_requests or 1
            per_request_extra = (
                stream.release_time - stream.arrival_time
                + stream.extra_service_cycles) / requests
            self._dma_service_hist.record(
                self.config.undisturbed_service_cycles + per_request_extra)
            if self.tracer is not None:
                self.tracer.instant(
                    now, "dma.done", TRACK_SIM,
                    {"id": stream.seq, "chip": stream.chip_id,
                     "extra": stream.extra_service_cycles,
                     "waited": max(0.0, stream.release_time
                                   - stream.arrival_time),
                     "mig": int(any(
                         s.kind is StreamKind.MIGRATION
                         for s in self._streams_at[stream.chip_id]))})
            record = stream.record
            if isinstance(record, DMATransfer) and record.request_id is not None:
                prior = self._last_completion.get(record.request_id, 0.0)
                self._last_completion[record.request_id] = max(prior, now)
        return granted

    # ------------------------------------------------------------------
    # Rate recomputation (the heart of the fluid model)
    # ------------------------------------------------------------------

    def _rebalance(self, bus_ids: set[int], chip_ids: set[int],
                   now: float) -> None:
        if now > self._last_progress:
            self._last_progress = now
        touched = set(chip_ids)
        for bus_id in bus_ids:
            touched |= {s.chip_id for s in self.buses[bus_id].members}

        # Phase 1: bring accounting up to date at the old rates.
        for chip_id in touched:
            self.memory.chips[chip_id].advance(now)
            for stream in self._streams_at[chip_id]:
                stream.sync(now)

        # Capture the global work integral before rates change.
        self._dma_work_base = self._served_dma_work(now)
        self._dma_work_time = now

        # Phase 2: refresh bus shares; retire streams that just finished.
        granted_now: list[FluidStream] = []
        pending_buses = set(bus_ids)
        while True:
            for bus_id in pending_buses:
                extra = self.buses[bus_id].refresh_demands()
                for chip_id in extra - touched:
                    self.memory.chips[chip_id].advance(now)
                    for stream in self._streams_at[chip_id]:
                        stream.sync(now)
                touched |= extra
            pending_buses = set()
            finished = [s for chip_id in touched
                        for s in self._streams_at[chip_id]
                        if s.remaining_work <= _DONE_EPS]
            if not finished:
                break
            for stream in finished:
                if stream.is_dma:
                    pending_buses.add(stream.bus_id)
                granted = self._finish_stream(stream, now)
                if granted is not None:
                    granted_now.append(granted)
            if not pending_buses:
                break

        # Phase 3: re-allocate chip capacity and reschedule completions.
        # One grouping by priority feeds the grants, the chip's rates
        # and has_dma; the pushes follow the streams' own order.
        push = self.queue.push
        for chip_id in touched:
            chip = self.memory.chips[chip_id]
            active = self._streams_at[chip_id]
            if not active:
                if chip.busy:
                    chip.set_idle(now)
                continue
            proc, dma, migration = allocate_chip_capacity(active)
            if self._opportunistic and not proc and not dma:
                # Opportunistic copies alone must not hold the chip up:
                # park them (zero grant) and let the chip descend; they
                # resume at the next rebalance that brings real traffic.
                for stream in active:
                    stream.granted = 0.0
                    stream.version += 1
                if chip.busy:
                    chip.set_idle(now)
                continue
            chip.set_busy(now, bool(dma), ChipRates(
                dma=sum([s.granted for s in dma]),
                proc=sum([s.granted for s in proc]),
                migration=sum([s.granted for s in migration])))
            for stream in active:
                stream.version += 1
                # FluidStream.projected_completion's rules, inline.
                if stream.remaining_work <= 1e-9:
                    completion = now
                elif stream.granted <= 0:
                    continue
                else:
                    completion = now + stream.remaining_work / stream.granted
                if completion != math.inf:
                    push(completion, _COMPLETE, (stream, stream.version))

        # Phase 4: refresh the global DMA work rate.
        self._dma_work_rate = sum(
            s.granted for s in self._active if s.is_dma)

        # Phase 5: hand freed buses to their next queued transfers.
        for stream in granted_now:
            self._activate(self.memory.chips[stream.chip_id],
                           [stream], now, notify=True)
