"""The wall-clock ledger every simulation run carries.

:func:`repro.simulate` (through :func:`~repro.sim.run.build_engine`)
and the engines time their own phases with
:func:`time.perf_counter_ns` at phase boundaries, never per event:

* ``calibrate`` — the argument checks and the ``cp_limit`` -> ``mu``
  calibration;
* ``build`` — engine construction, the page layout copy included;
* ``loop`` — the event loop, less the three phases split out of it:
  ``probes`` (every :class:`~repro.obs.probe.ProbeSet` tick and its
  final sample), ``pl`` (each PL interval's re-plan) and ``kernel``
  (the precise engine's array-timeline kernel calls that cut a window);
* ``result`` — building the result, less the probes' final sample;
* ``other`` — what the call spends after the result is built: freeing
  the engine (its event heap, chips and streams) and building the
  digest trail.

The phases never overlap and add up, to the nanosecond, to the
ledger's total. The engine attaches the ledger to its result as
``result.wall``, an attribute rather than a dataclass field, so result
equality, ``dataclasses.asdict``, cache keys and digest trails never
see it; it pickles with the result through worker processes and the
result cache.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro import units
from repro.obs.events import PH_SPAN, TRACK_WALL, Event

#: Every phase, in report order.
WALL_PHASES = ("calibrate", "build", "loop", "probes", "pl", "kernel",
               "result", "other")


class WallLedger:
    """Where one run's wall-clock time went.

    :meth:`lap` ends the current phase: it charges the time since the
    previous lap to the phase it names. A phase timed inside the
    current one is :meth:`charge`-d when it ends, and the enclosing lap
    leaves that time out.
    """

    def __init__(self) -> None:
        #: Nanoseconds charged to each phase, in the order first charged.
        self.ns: dict[str, int] = {}
        self._start = self._mark = perf_counter_ns()
        self._inner = 0

    def lap(self, phase: str) -> None:
        """Charge ``phase`` the time since the previous lap, less what
        :meth:`charge` moved out of it."""
        now = perf_counter_ns()
        self.ns[phase] = (self.ns.get(phase, 0)
                          + now - self._mark - self._inner)
        self._mark = now
        self._inner = 0

    def charge(self, phase: str, ns: int) -> None:
        """Move ``ns`` nanoseconds timed inside the current phase to
        ``phase``."""
        self.ns[phase] = self.ns.get(phase, 0) + ns
        self._inner += ns

    @property
    def total(self) -> float:
        """Seconds from the ledger's creation to its last lap."""
        return (self._mark - self._start) / 1e9

    def parts(self) -> dict[str, float]:
        """Seconds per phase, in :data:`WALL_PHASES` order: the phases
        this run timed, and always ``other``."""
        return {phase: self.ns.get(phase, 0) / 1e9
                for phase in WALL_PHASES
                if phase in self.ns or phase == "other"}

    def summary(self) -> str:
        """One line: the total and its parts, in milliseconds."""
        parts = " + ".join(f"{phase} {seconds * 1e3:.2f}"
                           for phase, seconds in self.parts().items())
        return f"wall: {self.total * 1e3:.2f} ms = {parts}"

    def events(self) -> list[Event]:
        """The parts as spans on the ``wall`` track, laid end to end.

        Each span is as wide as its phase's seconds, in memory cycles at
        the exporter's default clock: a bar of the run's host time, not
        a timeline of it.
        """
        events: list[Event] = []
        cursor = 0.0
        for phase, seconds in self.parts().items():
            cycles = seconds * units.RDRAM_FREQUENCY_HZ
            events.append(Event(ts=cursor, name=phase, track=TRACK_WALL,
                                ph=PH_SPAN, dur=cycles,
                                args={"seconds": seconds}))
            cursor += cycles
        return events


__all__ = ["WALL_PHASES", "WallLedger"]
