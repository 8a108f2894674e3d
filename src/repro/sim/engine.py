"""Event-queue plumbing shared by both simulation engines."""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any

from repro.errors import SimulationError


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
    # PROBE pops last at equal timestamps so every probe (telemetry,
    # digests) observes the post-everything state of its instant; the
    # handler is read-only.
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

    def push(self, time: float, kind: Any, payload: Any = None) -> None:
        """Schedule an event. ``kind`` must be int-comparable (enum or int)."""
        if time < self._now - 1e-9:
            raise SimulationError(
                f"event scheduled in the past ({time} < {self._now})")
        heapq.heappush(self._heap, (time, kind, next(self._seq), payload))

    def pop(self) -> tuple[float, Any, Any]:
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, kind, _, payload = heapq.heappop(self._heap)
        self._now = max(self._now, time)
        return time, kind, payload

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
