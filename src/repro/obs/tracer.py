"""Tracers: where the event stream goes.

A tracer is a sink for :class:`~repro.obs.events.Event` records plus the
``span``/``instant``/``counter`` convenience constructors. Passing
``None`` to :func:`repro.simulate` records nothing and costs one pointer
comparison per instrumentation site — the "zero overhead when disabled"
contract. Two sinks:

* :class:`RingTracer` — keeps the last ``capacity`` events in memory
  (unbounded by default). The exporter's usual source.
* :class:`JsonlTracer` — streams one JSON object per line to a file,
  for runs too big to hold in memory. Context-manager closeable.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, IO, Mapping

from repro.obs.events import PH_COUNTER, PH_INSTANT, PH_SPAN, Event


class Tracer:
    """Base tracer: builds events and hands them to :meth:`emit`."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    # --- convenience constructors --------------------------------------

    def span(self, ts: float, dur: float, name: str, track: str,
             args: Mapping[str, Any] | None = None) -> None:
        """Record a complete span (``ph="X"``)."""
        self.emit(Event(ts=ts, name=name, track=track, ph=PH_SPAN,
                        dur=dur, args=args))

    def instant(self, ts: float, name: str, track: str,
                args: Mapping[str, Any] | None = None) -> None:
        """Record a point event (``ph="i"``)."""
        self.emit(Event(ts=ts, name=name, track=track, ph=PH_INSTANT,
                        args=args))

    def counter(self, ts: float, name: str, track: str,
                value: float) -> None:
        """Record a counter sample (``ph="C"``)."""
        self.emit(Event(ts=ts, name=name, track=track, ph=PH_COUNTER,
                        args={"value": value}))

    # --- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Flush and release resources (no-op for in-memory sinks)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RingTracer(Tracer):
    """In-memory sink keeping (up to) the most recent ``capacity`` events.

    Attributes:
        capacity: maximum retained events; ``None`` = unbounded.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._emitted = 0

    def emit(self, event: Event) -> None:
        self._events.append(event)
        self._emitted += 1

    @property
    def events(self) -> list[Event]:
        """The retained events, oldest first."""
        return list(self._events)

    @property
    def emitted(self) -> int:
        """Total events seen (retained + dropped)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by the capacity bound."""
        return self._emitted - len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


class JsonlTracer(Tracer):
    """Streams events as JSON lines to ``path`` (or an open handle)."""

    def __init__(self, path: str | Path | IO[str]) -> None:
        if hasattr(path, "write"):
            self._handle: IO[str] = path  # type: ignore[assignment]
            self._owns_handle = False
            self.path = None
        else:
            self.path = Path(path)
            self._handle = self.path.open("w", encoding="utf-8")
            self._owns_handle = True
        self.emitted = 0

    def emit(self, event: Event) -> None:
        json.dump(event.as_dict(), self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


def read_jsonl_events(path: str | Path) -> list[Event]:
    """Load a :class:`JsonlTracer` file back into :class:`Event` objects."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            events.append(Event(
                ts=float(raw["ts"]), name=raw["name"], track=raw["track"],
                ph=raw.get("ph", PH_INSTANT), dur=float(raw.get("dur", 0.0)),
                args=raw.get("args")))
    return events


__all__ = [
    "Tracer", "RingTracer", "JsonlTracer", "read_jsonl_events",
]
