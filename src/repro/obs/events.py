"""The structured trace-event protocol.

One simulation run emits a stream of :class:`Event` records. The schema
deliberately mirrors the Chrome trace-event format (and therefore
Perfetto), so exporting is a near-identity mapping:

* ``ph`` is the Chrome *phase*: ``"X"`` for a complete span (has a
  duration), ``"i"`` for an instant, ``"C"`` for a counter sample.
* ``track`` names the timeline row the event belongs to — ``"chip:3"``,
  ``"bus:0"``, ``"controller"``, ``"sim"`` — and becomes the Chrome
  thread of the event.
* ``ts``/``dur`` are in **memory cycles**; the exporter converts to
  microseconds using the platform clock.
* ``args`` carries structured details (power-state bucket, batch size,
  slack amounts, ...) and surfaces in the Perfetto UI's detail pane.

Producers never build dicts in hot paths: an :class:`Event` is one slot
object, and every instrumentation site is guarded so that a disabled
tracer costs a single ``is None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: Chrome trace-event phases used by this protocol.
PH_SPAN = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"

PHASES = (PH_SPAN, PH_INSTANT, PH_COUNTER)

#: Well-known track names (chips and buses append ":<id>").
TRACK_CHIP = "chip"
TRACK_BUS = "bus"
TRACK_CONTROLLER = "controller"
TRACK_SIM = "sim"
TRACK_WALL = "wall"
TRACK_AUDIT = "audit"
#: Fleet (cross-process sweep) tracks: the scheduling lane and one row
#: per pool worker (slot 0 is the parent's serial fallback path).
TRACK_FLEET = "fleet"
TRACK_WORKER = "worker"


@dataclass(slots=True)
class Event:
    """One structured trace event.

    Attributes:
        ts: event time in memory cycles.
        name: short event name (``"active"``, ``"ta.release"``, ...).
        track: timeline row (``"chip:0"``, ``"bus:1"``, ``"controller"``,
            ``"sim"``).
        ph: Chrome phase — span/instant/counter.
        dur: span duration in cycles (spans only).
        args: structured detail payload, or ``None``.
    """

    ts: float
    name: str
    track: str
    ph: str = PH_INSTANT
    dur: float = 0.0
    args: Mapping[str, Any] | None = None

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (the JSONL sink's line payload)."""
        out: dict[str, Any] = {
            "ts": self.ts, "name": self.name,
            "track": self.track, "ph": self.ph,
        }
        if self.ph == PH_SPAN:
            out["dur"] = self.dur
        if self.args:
            out["args"] = dict(self.args)
        return out


def chip_track(chip_id: int) -> str:
    """The track name of one memory chip."""
    return f"{TRACK_CHIP}:{chip_id}"


def bus_track(bus_id: int) -> str:
    """The track name of one I/O bus."""
    return f"{TRACK_BUS}:{bus_id}"


def worker_track(slot: int) -> str:
    """The track name of one fleet worker slot (0 = serial fallback)."""
    return f"{TRACK_WORKER}:{slot}"
