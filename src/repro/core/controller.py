"""Memory-controller policies: the interface and the baseline.

The controller sits between the DMA engines and the chips. Its only
authority in this model is *when* a transfer's requests are allowed
through to a chip; the low-level power policy (static or dynamic) still
owns the chip power states. The baseline controller lets everything
through immediately — this is the "previous approaches" system the paper
compares against. :class:`~repro.core.temporal_alignment.
TemporalAlignmentController` overrides admission to gather requests.
"""

from __future__ import annotations

import abc
import math
from typing import Callable

from repro.io.dma import FluidStream
from repro.memory.chip import FluidChip


class MemoryController(abc.ABC):
    """Admission policy for DMA transfers at the memory controller."""

    @abc.abstractmethod
    def admit(self, stream: FluidStream, chip: FluidChip,
              now: float) -> list[FluidStream]:
        """Decide what to do with a newly arrived transfer.

        Returns the streams to start *now* at ``chip``: an empty list means
        the transfer was buffered (DMA-TA gathering); a non-empty list is a
        release and may include previously buffered transfers.
        """

    def epoch_cycles(self) -> float | None:
        """Epoch length for periodic accounting, or None for no epochs."""
        return None

    def settle_epochs(self, now: float, stop: float = -math.inf,
                      at_stop: bool = False,
                      before_tick: Callable[[float], None] | None = None
                      ) -> tuple[float, int, dict[int, list[FluidStream]]]:
        """Run periodic bookkeeping ticks from ``now``, one epoch apart.

        Runs the tick at ``now``, then each next tick that would still
        pop before the engine's next queued event at ``stop`` (at
        ``stop`` itself when ``at_stop``), and ends after the first tick
        that releases anything. ``before_tick(t)``, when given, is
        called before each tick after the first, with that tick's time
        ``t`` (the fluid engine ticks its probes due before ``t``).
        Returns the last tick run, the number of ticks run and that
        tick's ``chip_id -> streams`` to release.
        """
        return now, 1, {}

    def on_epoch(self, now: float) -> dict[int, list[FluidStream]]:
        """One bookkeeping tick; returns ``chip_id -> streams`` to
        release."""
        return self.settle_epochs(now)[2]

    def on_wake(self, chip_id: int, wake_latency: float, now: float,
                pending_requests: int = 1) -> None:
        """A chip serving this controller's release is being woken."""

    def on_proc_access(self, chip_id: int, work_cycles: float,
                       dma_streams_at_chip: int, now: float) -> None:
        """Processor accesses of ``work_cycles`` hit ``chip_id``."""

    def drain(self, now: float) -> dict[int, list[FluidStream]]:
        """Trace ended: release everything still buffered."""
        return {}

    def pending_count(self) -> int:
        """Number of buffered transfers (pending head requests)."""
        return 0

    def holds_heads(self, chip_id: int) -> bool:
        """True while a head bound for ``chip_id`` is buffered."""
        return False

    def stats(self) -> dict[str, float]:
        """Controller-specific counters for the simulation result."""
        return {}


class BaselineController(MemoryController):
    """Pass-through admission: every transfer starts immediately.

    With the dynamic low-level policy underneath, this is exactly the
    paper's baseline ("the dynamic energy management scheme [16]").
    """

    def __init__(self) -> None:
        self.transfers_admitted = 0

    def admit(self, stream: FluidStream, chip: FluidChip,
              now: float) -> list[FluidStream]:
        self.transfers_admitted += 1
        return [stream]

    def stats(self) -> dict[str, float]:
        return {"transfers_admitted": float(self.transfers_admitted)}
