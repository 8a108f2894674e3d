"""What both simulation engines share: the event queue and the core."""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from time import perf_counter_ns
from typing import Any, Iterable

from repro.config import SimulationConfig
from repro.core.controller import BaselineController, MemoryController
from repro.core.layout import PopularityGrouper
from repro.core.migration import MigrationPlanner
from repro.core.popularity import PopularityTracker
from repro.core.temporal_alignment import TemporalAlignmentController
from repro.energy.accounting import EnergyBreakdown, TimeBreakdown
from repro.energy.policies import AlwaysOnPolicy
from repro.errors import (ConfigurationError, GuaranteeViolationError,
                          SimulationError)
from repro.io.devices import BusAssigner
from repro.memory.address import MutableLayout, build_base_layout
from repro.obs.events import TRACK_SIM
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import ProbeSet
from repro.obs.wall import WallLedger
from repro.sim.results import SimulationResult
from repro.traces.records import DMATransfer
from repro.traces.trace import Trace


class EventKind(enum.IntEnum):
    """Event taxonomy. Lower values win ties at equal timestamps.

    COMPLETE precedes ARRIVAL at the same instant so that a chip freed by
    a finishing transfer is seen idle by a simultaneous arrival — matching
    the hardware, where the controller observes completion first.
    """

    COMPLETE = 0
    STREAM_START = 1
    ARRIVAL = 2
    PROC_DONE = 3
    EPOCH = 4
    INTERVAL = 5
    # Where a probe tick (telemetry, digests) falls among the events of
    # its instant: after all of them, so it observes their settled
    # state. No event of this kind is pushed; the run loops tick probes
    # outside the heap (repro.obs.probe).
    PROBE = 6


class EventQueue:
    """A deterministic time-ordered event queue (heapq based).

    Ties are broken by :class:`EventKind`, then by insertion order, so a
    run is fully reproducible.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Timestamp of the last popped event."""
        return self._now

    def push(self, time: float, kind: Any, payload: Any = None) -> int:
        """Schedule an event. ``kind`` must be int-comparable (enum or int).

        Returns the event's sequence number: among events of one time and
        kind, the lower number pops first.
        """
        if time < self._now - 1e-9:
            raise SimulationError(
                f"event scheduled in the past ({time} < {self._now})")
        seq = next(self._seq)
        heapq.heappush(self._heap, (time, kind, seq, payload))
        return seq

    def pop(self) -> tuple[float, Any, Any]:
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, kind, _, payload = heapq.heappop(self._heap)
        self._now = max(self._now, time)
        return time, kind, payload

    def head_time(self) -> float:
        """Timestamp of the next event to pop (``inf`` when empty)."""
        return self._heap[0][0] if self._heap else math.inf

    def precedes(self, time: float, kind: Any) -> bool:
        """True if an event pushed now at ``(time, kind)`` would pop
        before every event already queued."""
        return not self._heap or (time, kind) < self._heap[0][:2]

    def advance(self, time: float) -> None:
        """Move the clock to ``time`` for an event a handler runs inline
        instead of pushing it (valid only when :meth:`precedes` holds)."""
        self._now = max(self._now, time)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


TECHNIQUES = ("nopm", "baseline", "dma-ta", "pl", "dma-ta-pl")


class EngineCore:
    """What the fluid and precise engines share around their loops.

    The core decodes the technique once (policy, layout, controller, PL
    planner), keeps the run counters and the run's
    :class:`~repro.obs.wall.WallLedger`, emits ``sim.config``, pushes
    the first events, counts each arriving DMA transfer, plans each PL
    interval and builds the result. An engine owns its chips, buses and
    event loop. It builds the core, then its chips, then calls
    :meth:`_attach`; its ``run`` calls :meth:`_start`, runs the loop
    and returns :meth:`_finish`. It provides ``_arrived_requests(now)``,
    ``_bus_states()`` and ``_work_remaining()`` for the controller and
    the probes, and its loop ticks the probes (``self.probes``) before
    each event it pops. The core pushes its events with the kinds
    ``_ARRIVAL``, ``_EPOCH`` and ``_INTERVAL``; the precise engine,
    which has its own taxonomy, overrides them.
    """

    name = ""
    _ARRIVAL, _EPOCH, _INTERVAL = (
        EventKind.ARRIVAL, EventKind.EPOCH, EventKind.INTERVAL)

    def __init__(self, trace: Trace, config: SimulationConfig,
                 technique: str, seed: int, tracer) -> None:
        #: The run's wall-clock ledger, timing from construction on
        #: (:func:`~repro.sim.run.build_engine` swaps in the one that
        #: timed its checks and calibration).
        self.wall = WallLedger()
        if technique not in TECHNIQUES:
            raise ConfigurationError(
                f"unknown technique {technique!r}; expected one of {TECHNIQUES}")
        self.trace = trace
        self.config = config
        self.technique = technique
        self.tracer = tracer
        self.registry = MetricsRegistry()

        memory = config.memory
        self.policy = (AlwaysOnPolicy() if technique == "nopm"
                       else config.policy)
        self._pl_enabled = technique in ("pl", "dma-ta-pl")
        base_layout = build_base_layout(config, seed)
        self.layout = (MutableLayout(base_layout) if self._pl_enabled
                       else base_layout)
        if technique in ("dma-ta", "dma-ta-pl"):
            self.mu = config.alignment.mu
            self.controller: MemoryController = TemporalAlignmentController(
                config, self._arrived_requests,
                tracer=self.tracer, registry=self.registry)
        else:
            self.mu = 0.0
            self.controller = BaselineController()

        self._tracker = self._grouper = self._planner = None
        if self._pl_enabled:
            self._tracker = PopularityTracker(
                counter_bits=config.layout.counter_bits,
                aging_shift=config.layout.aging_shift)
            self._grouper = PopularityGrouper(
                memory.num_chips, memory.pages_per_chip, config.layout)
            self._planner = MigrationPlanner(
                config.layout, tracer=self.tracer, registry=self.registry)
        self._previous_hot: set[int] = set()
        self._previous_candidates: set[int] | None = None

        self.assigner = BusAssigner(config.buses.count)
        self.queue = EventQueue()
        self._records_done = not trace.records

        # Statistics.
        self.transfers = 0
        self.requests = 0
        self.proc_accesses = 0
        self.head_delay_total = 0.0
        self.extra_service_total = 0.0
        self.migrations = 0
        self.table_flushes = 0
        self._last_completion: dict[int, float] = {}
        self._dma_service_hist = self.registry.histogram(
            "dma.service_per_request")

        # Cached geometry.
        self._serve_cycles = config.serve_cycles
        self._proc_serve_cycles = config.proc_serve_cycles
        self._page_copy_cycles = (
            memory.page_bytes / memory.power_model.bytes_per_cycle)
        self._total_pages = memory.total_pages

    def _attach(self, chips: list, probes: Iterable) -> None:
        """Adopt the engine's ``chips`` and build its :class:`ProbeSet`."""
        self.chips = chips
        if self.tracer is not None:
            for chip in chips:
                chip.tracer = self.tracer
        self.probes = ProbeSet(self, probes)

    def _start(self) -> None:
        """End the ``build`` phase; emit ``sim.config``; push the first
        arrival, epoch and interval events."""
        self.wall.lap("build")
        config = self.config
        if self.tracer is not None:
            # Run parameters up front, so sinks (the auditor especially)
            # can bootstrap the guarantee/slack replay from the stream
            # alone.
            self.tracer.instant(0.0, "sim.config", TRACK_SIM, {
                "engine": self.name,
                "technique": self.technique,
                "mu": self.mu,
                "service_cycles": config.undisturbed_service_cycles,
                "epoch_cycles": config.alignment.epoch_cycles,
                "frequency_hz": config.memory.power_model.frequency_hz,
                "chips": config.memory.num_chips,
                "buses": config.buses.count,
            })
        if self.trace.records:
            self.queue.push(self.trace.records[0].time, self._ARRIVAL, 0)
        epoch = self.controller.epoch_cycles()
        if epoch:
            self.queue.push(epoch, self._EPOCH, None)
        if self._pl_enabled:
            self.queue.push(config.layout.interval_cycles, self._INTERVAL,
                            None)

    def _count_transfer(self, record: DMATransfer,
                        now: float) -> tuple[int, int, int]:
        """Count an arriving DMA transfer: its requests, its
        ``dma.arrive`` event and its PL page reference. Returns its
        chip, its bus and its number of requests."""
        page = record.page % self._total_pages
        chip_id = self.layout.chip_of(page)
        bus_id = self.assigner.assign(record)
        n_req = record.num_requests(self.config.memory.request_bytes)
        self.transfers += 1
        self.requests += n_req
        if self.tracer is not None:
            self.tracer.instant(now, "dma.arrive", TRACK_SIM,
                                {"id": self.transfers, "chip": chip_id,
                                 "bus": bus_id, "requests": n_req})
        if self._tracker is not None:
            # One reference per DMA transfer: counting individual
            # DMA-memory requests would saturate the narrow counters on a
            # single 8-KB transfer (1024 requests against a 255 cap) and
            # reduce the ranking to "touched recently".
            self._tracker.record(page, 1)
        return chip_id, bus_id, n_req

    def _plan_interval(self, now: float):
        """Re-plan the PL layout at an interval boundary (Section 4.2).

        Returns the applied migration, whose page copies the engine
        makes, or ``None`` when no page was referenced. Timed as the
        ``pl`` phase.
        """
        start = perf_counter_ns()
        migration = None
        ranked = self._tracker.ranked_pages()
        if ranked:
            plan = self._grouper.build_plan(
                ranked, self._previous_hot, self._previous_candidates)
            cold_index = plan.groups[-1].index
            self._previous_hot = {
                page for page, group in plan.page_group.items()
                if group != cold_index}
            self._previous_candidates = plan.candidates
            migration = self._planner.plan_and_apply(plan, self.layout, now)
            self._tracker.age()
            self.migrations += migration.num_moves
            self.table_flushes += migration.table_flushes
        self.wall.charge("pl", perf_counter_ns() - start)
        return migration

    def _finish(self, end: float) -> SimulationResult:
        """End the run at ``end``: take the probes' last sample, then
        build the result and its metrics. Ends the ``loop`` phase and
        times the ``result`` phase; the result carries the ledger as
        ``result.wall``.

        Drops the DMA-TA controller's request counter, a method of this
        engine, as :meth:`ProbeSet.finish` drops the probe set's (the
        precise engine drops its kernel's before it calls this): a
        finished engine is then freed with its last reference, not at
        the next full garbage collection.
        """
        self.wall.lap("loop")
        self.probes.finish(end)
        if isinstance(self.controller, TemporalAlignmentController):
            self.controller.arrived_requests = None
        energy, time = EnergyBreakdown(), TimeBreakdown()
        chip_residency: dict[int, dict[str, float]] = {}
        transitions: dict[str, int] = {}
        for chip in self.chips:
            energy.add(chip.energy)
            time.add(chip.time)
            chip_residency[chip.chip_id] = buckets = chip.time.as_dict()
            buckets.pop("total", None)
            for edge, count in chip.transition_counts.items():
                transitions[edge] = transitions.get(edge, 0) + count
        energy.validate()
        time.validate()

        last = self._last_completion
        responses = {
            request_id: max(0.0, last[request_id] - client.arrival
                            + client.base_cycles)
            for request_id, client in self.trace.clients.items()
            if request_id in last}

        registry = self.registry
        service = self.config.undisturbed_service_cycles
        wakes = sum(chip.wake_count for chip in self.chips)
        registry.counter("sim.transfers").inc(self.transfers)
        registry.counter("sim.requests").inc(self.requests)
        registry.counter("sim.proc_accesses").inc(self.proc_accesses)
        registry.counter("sim.wakes").inc(wakes)
        registry.gauge("dma.service_bound").set((1 + self.mu) * service)
        slack = getattr(self.controller, "slack", None)
        if slack is not None:
            registry.counter("slack.violations").inc(slack.violations)
        result = SimulationResult(
            metrics=registry.report(chip_residency=chip_residency,
                                    transitions=transitions),
            trace_name=self.trace.name,
            technique=self.technique,
            engine=self.name,
            duration_cycles=end,
            energy=energy,
            time=time,
            transfers=self.transfers,
            requests=self.requests,
            proc_accesses=self.proc_accesses,
            mu=self.mu,
            service_cycles=service,
            head_delay_cycles=self.head_delay_total,
            extra_service_cycles=self.extra_service_total,
            client_responses=responses,
            migrations=self.migrations,
            table_flushes=self.table_flushes,
            wakes=wakes,
            controller_stats=self.controller.stats(),
            chip_energy=[chip.energy.total for chip in self.chips],
        )
        result.wall = self.wall

        # The paper's soft guarantee (Section 4): the average extra
        # service per DMA-memory request stays within mu*T.
        bound = self.mu * service
        extra_service = result.avg_extra_service_cycles
        result.guarantee_violated = (
            self.mu > 0 and extra_service > bound * (1 + 1e-6) + 1e-9)
        if result.guarantee_violated and self.config.strict_guarantee:
            raise GuaranteeViolationError(
                f"average extra service {extra_service:.3f} cycles exceeds "
                f"mu*T = {bound:.3f}")
        self.wall.lap("result")
        return result
