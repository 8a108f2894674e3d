"""The I/O bus model.

A :class:`FluidBus` carries the DMA streams flowing over one physical bus
(PCI-X by default). Two sharing disciplines are provided:

* ``"fifo"`` (default, the paper's model) — the bus serves one transfer
  at a time at the full bus rate; later transfers queue. This matches the
  paper's timing analysis throughout: Figure 2(a)'s fixed request period
  set by "the transfer rate of the I/O bus", Figure 3's lockstep
  interleaving of one stream per bus, and the service bound
  ``U = m * T * ceil(r/k)``, which serves each bus's ``m`` pending
  requests *sequentially*. Under FIFO a transfer's request stream always
  runs at full rate, so a chip aligned with ``k`` buses reaches 100%
  utilisation and an unaligned chip sits at exactly ``Rb/Rm``.
* ``"fair"`` — round-robin arbitration at request granularity, modelled
  as an equal bandwidth split among all in-flight transfers. Provided as
  an ablation: it lets concurrency on a bus *stretch* every transfer on
  it, which dilutes DMA-TA's benefit (see the ablation bench).

Either way the bus is the resource whose mismatch with the memory device
(1.064 GB/s against 3.2 GB/s) creates the active-idle waste the paper
attacks.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.energy.states import PowerModel
from repro.errors import ConfigurationError, SimulationError
from repro.io.dma import FluidStream, StreamKind
from repro.obs.events import bus_track

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

SHARING_MODES = ("fifo", "fair")


class FluidBus:
    """One I/O bus and the DMA streams it carries."""

    def __init__(self, bus_id: int, bandwidth_bytes_per_s: float,
                 memory_model: PowerModel, sharing: str = "fifo") -> None:
        if bandwidth_bytes_per_s <= 0:
            raise SimulationError("bus bandwidth must be positive")
        if sharing not in SHARING_MODES:
            raise ConfigurationError(
                f"unknown bus sharing mode {sharing!r}; "
                f"expected one of {SHARING_MODES}")
        self.bus_id = bus_id
        self.sharing = sharing
        #: Chip-capacity demand of a stream owning the whole bus: the
        #: paper's ``Rb / Rm`` (1/3 for PCI-X against RDRAM-1600),
        #: capped at 1.0 for buses faster than the memory device.
        self.full_share_demand = min(
            1.0, bandwidth_bytes_per_s / memory_model.bandwidth_bytes_per_s)

        # FIFO state: the transfer currently owning the bus + the queue.
        self.current: FluidStream | None = None
        self.queue: deque[FluidStream] = deque()
        # Fair state: all in-flight transfers share equally.
        self.members: set[FluidStream] = set()

        self.transfers_carried = 0
        self.max_queue_depth = 0
        #: Set by the engine when tracing: queue-depth counter samples
        #: are emitted on the bus track (``None`` = no tracing).
        self.tracer: "Tracer | None" = None
        self._track = bus_track(bus_id)

    # ------------------------------------------------------------------
    # FIFO discipline
    # ------------------------------------------------------------------

    def enqueue(self, stream: FluidStream, now: float = 0.0) -> bool:
        """Admit a released transfer; True if it owns the bus immediately."""
        self._check(stream)
        self.transfers_carried += 1
        if self.sharing == "fair":
            self.members.add(stream)
            if self.tracer is not None:
                self.tracer.counter(now, "queue_depth", self._track,
                                    float(len(self.members)))
            return True
        if self.current is None:
            self.current = stream
            if self.tracer is not None:
                self.tracer.counter(now, "queue_depth", self._track, 0.0)
            return True
        self.queue.append(stream)
        self.max_queue_depth = max(self.max_queue_depth, len(self.queue))
        if self.tracer is not None:
            self.tracer.counter(now, "queue_depth", self._track,
                                float(len(self.queue)))
        return False

    def finish(self, stream: FluidStream,
               now: float = 0.0) -> FluidStream | None:
        """Retire a completed transfer; returns the next granted stream.

        In fair mode there is no grant hand-off (everything already
        runs), so the return value is always None.
        """
        if self.sharing == "fair":
            self.members.discard(stream)
            if self.tracer is not None:
                self.tracer.counter(now, "queue_depth", self._track,
                                    float(len(self.members)))
            return None
        if self.current is stream:
            self.current = self.queue.popleft() if self.queue else None
            if self.tracer is not None:
                self.tracer.counter(now, "queue_depth", self._track,
                                    float(len(self.queue)))
            return self.current
        # A stream that never reached the head (e.g. retired at drain).
        try:
            self.queue.remove(stream)
        except ValueError:
            pass
        return None

    # ------------------------------------------------------------------
    # Demand bookkeeping
    # ------------------------------------------------------------------

    def member_demand(self) -> float:
        """Per-stream chip demand under the current occupancy."""
        if self.sharing == "fifo":
            return self.full_share_demand
        count = max(1, len(self.members))
        return self.full_share_demand / count

    def refresh_demands(self) -> set[int]:
        """Recompute member demands after a membership change (fair mode).

        Returns the chip ids whose allocations must be redone. FIFO mode
        never changes a granted stream's demand, so this is a no-op there.
        """
        if self.sharing == "fifo":
            return set()
        demand = self.member_demand()
        touched: set[int] = set()
        for stream in self.members:
            if stream.demand != demand:
                stream.demand = demand
                stream.version += 1
            touched.add(stream.chip_id)
        return touched

    def _check(self, stream: FluidStream) -> None:
        if stream.kind is not StreamKind.DMA:
            raise SimulationError("only DMA streams ride buses")
        if stream.bus_id != self.bus_id:
            raise SimulationError(
                f"stream bound to bus {stream.bus_id}, not {self.bus_id}")
