"""Runtime stream state and chip-capacity allocation.

A *stream* is work flowing through a chip at a (piecewise-constant) rate:

* a **DMA** stream is one released transfer — its nominal demand is its
  bus-bandwidth share divided by the chip bandwidth (1/3 of a chip for a
  full PCI-X bus against RDRAM-1600), because the bus cannot deliver
  DMA-memory requests any faster;
* a **PROC** stream is a burst of processor cache-line accesses served
  back-to-back (demand 1, highest priority per Section 4.1.3);
* a **MIGRATION** stream is a PL page-copy batch that soaks up whatever
  capacity is left (lowest priority, Section 4.2.2).

:func:`allocate_chip_capacity` performs priority-ordered water-filling of
one chip's capacity across its streams; the engine calls it at every
change-point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import SimulationError
from repro.traces.records import DMATransfer, ProcessorBurst


class StreamKind(enum.Enum):
    """Stream categories in descending service priority."""

    PROC = 0
    DMA = 1
    MIGRATION = 2


@dataclass
class FluidStream:
    """One in-flight unit of chip work.

    Work is measured in *chip serving cycles*. A granted share ``g`` (a
    fraction of chip capacity) drains work at ``g`` cycles per cycle, so a
    stream with ``remaining_work`` finishes in ``remaining_work / g``.

    Attributes:
        kind: stream category (priority class).
        chip_id: chip the stream runs on.
        bus_id: bus carrying the stream (DMA streams only).
        total_work: total chip serving cycles the stream needs.
        demand: nominal fraction of chip capacity the stream can consume
            (bus-limited for DMA; 1.0 for PROC and MIGRATION).
        stream_id: the stream's identity and hash, unique within a run.
            The engine numbers its streams from its own counter: the
            ids order the stream sets it iterates and sums over, so a
            run's results must not depend on what ran before it.
        record: originating trace record, if any.
        arrival_time: when the transfer arrived at the controller.
        release_time: when service was allowed to begin (gathering and
            wake-up delays push this past ``arrival_time``).
        granted: current granted share of chip capacity.
    """

    kind: StreamKind
    chip_id: int
    total_work: float
    demand: float
    stream_id: int
    bus_id: int | None = None
    record: DMATransfer | ProcessorBurst | None = None
    arrival_time: float = 0.0
    release_time: float = 0.0
    #: DMA-memory requests this stream stands for (0 for PROC/MIGRATION);
    #: used by DMA-TA to size the stream's per-transfer slack budget.
    num_requests: int = 0
    #: Engine-assigned per-run ordinal of DMA transfers (0 for PROC and
    #: MIGRATION streams); keys the audit layer's per-transfer waterfall.
    seq: int = 0

    # Dynamics (engine-managed).
    remaining_work: float = field(init=False)
    granted: float = 0.0
    last_sync: float = field(init=False)
    version: int = 0
    #: When the stream actually began serving at its chip (after the
    #: controller release, any bus queueing, and the chip wake-up).
    service_start: float = field(default=0.0, init=False)
    #: Extra per-request service cycles accumulated from chip-side
    #: throttling (processor priority, chip saturation). See DESIGN.md:
    #: a stream slowed from demand d to grant g for dt cycles delays its
    #: requests by (d - g) * dt serving cycles in total.
    extra_service_cycles: float = field(default=0.0, init=False)
    #: Whether ``kind`` is DMA, and ``kind``'s rank in
    #: :func:`allocate_chip_capacity`'s priority order (0 is served
    #: first). Both are set once, from ``kind``.
    is_dma: bool = field(init=False, repr=False)
    priority: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.total_work <= 0:
            raise SimulationError("stream with non-positive work")
        if not 0 < self.demand <= 1.0 + 1e-12:
            raise SimulationError(f"stream demand {self.demand} out of (0,1]")
        self.remaining_work = self.total_work
        self.last_sync = self.release_time
        self.is_dma = self.kind is StreamKind.DMA
        self.priority = self.kind._value_

    def __hash__(self) -> int:
        return self.stream_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FluidStream) and other.stream_id == self.stream_id

    # --- dynamics -------------------------------------------------------

    def sync(self, now: float) -> None:
        """Drain work for time elapsed since the last change-point.

        The clamps are comparisons that return what ``max(0.0, x)``
        returns (0.0 for -0.0 and NaN too), without its call.
        """
        last = self.last_sync
        if now < last - 1e-9:
            raise SimulationError("stream time moved backwards")
        elapsed = now - last if now > last else 0.0
        granted = self.granted
        remaining = self.remaining_work
        if self.is_dma and not remaining <= 1e-9:
            shortfall = self.demand - granted
            self.extra_service_cycles += elapsed * (
                shortfall if shortfall > 0.0 else 0.0)
        remaining -= elapsed * granted
        self.remaining_work = remaining if remaining > 0.0 else 0.0
        self.last_sync = now

    def projected_completion(self, now: float) -> float:
        """When the stream finishes at its current granted share."""
        if self.remaining_work <= 1e-9:
            return now
        if self.granted <= 0:
            return math.inf
        return now + self.remaining_work / self.granted

    @property
    def done(self) -> bool:
        return self.remaining_work <= 1e-9

    # --- stats ------------------------------------------------------------

    @property
    def head_delay(self) -> float:
        """Delay imposed on the transfer's first request (gather + wake)."""
        return max(0.0, self.release_time - self.arrival_time)


def water_fill(demands: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` across ``demands``.

    Every demand below the fair water level is fully granted; the rest
    split what remains equally. Returns grants in input order.
    """
    if capacity <= 0 or not demands:
        return [0.0] * len(demands)
    total = sum(demands)
    if total <= capacity + 1e-12:
        return list(demands)
    order = sorted(range(len(demands)), key=lambda i: demands[i])
    grants = [0.0] * len(demands)
    remaining = capacity
    active = len(demands)
    for position, index in enumerate(order):
        fair = remaining / active
        grant = min(demands[index], fair)
        grants[index] = grant
        remaining -= grant
        active -= 1
    return grants


def allocate_chip_capacity(
        streams: Iterable[FluidStream]) -> tuple[list[FluidStream], ...]:
    """Set each stream's ``granted`` share of one chip's capacity.

    Priority order PROC > DMA > MIGRATION (Section 4.1.3 solution 1 and
    Section 4.2.2): each class water-fills whatever capacity the classes
    above it left, and a done stream gets 0.0. Callers must have synced
    the streams to the current time first; grants apply from now until
    the next change-point.

    Returns the streams grouped by class, PROC, DMA then MIGRATION, each
    group in ``streams`` order and holding its done streams too.
    """
    groups: tuple[list[FluidStream], ...] = ([], [], [])
    any_done = False
    for stream in streams:
        groups[stream.priority].append(stream)
        if stream.remaining_work <= 1e-9:
            stream.granted = 0.0
            any_done = True
    capacity = 1.0
    for group in groups:
        live = ([s for s in group if not s.remaining_work <= 1e-9]
                if any_done else group)
        if not live:
            continue
        grants = water_fill([s.demand for s in live], capacity)
        for stream, grant in zip(live, grants):
            stream.granted = grant
        left = capacity - sum(grants)
        capacity = left if left > 0.0 else 0.0
    return groups
