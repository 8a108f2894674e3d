"""The probe protocol: one event kind and one snapshot per tick.

A run can carry several read-only observers ("probes") — the
:class:`~repro.obs.telemetry.TelemetrySampler` and the
:class:`~repro.obs.diff.DigestRecorder` today. Both engines drive them
through one :class:`ProbeSet`:

* the engine schedules a single ``PROBE`` event kind that pops last at
  its timestamp, so a probe sees the settled state of its instant; the
  event is never counted as progress, so it cannot stretch the
  simulated horizon;
* at each tick the set builds **one** read-only snapshot (a tuple of
  floats laid out as :func:`snapshot_fields`) and hands it to every
  probe due at that tick; each probe keeps its own cadence
  (``sample_cycles``) and its own tick count;
* once the run ends, every probe whose last sample is older than the
  end time gets one final snapshot.

A probe is any object with ``sample_cycles``, ``bind(engine)`` (called
once, at engine construction; sets ``sample_cycles``) and
``sample(snapshot)``. The snapshot is built from the chips'
side-effect-free ``observe`` and never touches accrual, so observed
runs stay bit-identical to unobserved ones.

Both probes keep what they record in a :class:`DownsamplingRing`, so
their memory stays bounded however long the run is.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

from repro.energy.accounting import BUCKETS
from repro.errors import ConfigurationError

#: Run-wide scalars that open every snapshot, in order.
SNAPSHOT_SCALARS = ("ts", "requests", "degradation_cycles", "slack_balance",
                    "slack_pending", "migrations")

#: Per-chip block of a snapshot, in order.
CHIP_FIELDS = ("energy_j", "power_w", *BUCKETS)

#: Per-bus block of a snapshot, in order.
BUS_FIELDS = ("busy", "queue_depth")


def snapshot_fields(config) -> tuple[str, ...]:
    """Field names of a snapshot of a run of ``config``, in order."""
    return (*SNAPSHOT_SCALARS,
            *(f"chip{chip}.{name}" for chip in range(config.memory.num_chips)
              for name in CHIP_FIELDS),
            *(f"bus{bus}.{name}" for bus in range(config.buses.count)
              for name in BUS_FIELDS))


def probe_period(engine, period: float | None) -> float:
    """``period``, or by default the run's DMA-TA epoch length (the
    configured epoch length when the technique has no epochs)."""
    if period is None:
        period = (engine.controller.epoch_cycles()
                  or engine.config.alignment.epoch_cycles)
    return float(period)


class ProbeSet:
    """Every probe attached to one engine run.

    Args:
        engine: the engine. Its ``queue`` receives the PROBE events;
            each snapshot reads its ``chips`` (each with
            ``observe(now)``), ``_arrived_requests(now)``
            (the run's arrived DMA-memory requests, read at the queue's
            clock) and
            ``_bus_states()`` (``(busy, queue_depth)`` per bus).
        kind: the engine's PROBE event kind.
        probes: the attached probes (``None`` entries are skipped).
    """

    def __init__(self, engine, kind, probes: Iterable) -> None:
        self._engine = engine
        self._kind = kind
        self._probes = [probe for probe in probes if probe is not None]
        self._slack = getattr(engine.controller, "slack", None)
        for probe in self._probes:
            probe.bind(engine)
        self._due = [probe.sample_cycles for probe in self._probes]
        self._last = [-math.inf] * len(self._probes)
        #: Time of the next PROBE event (``math.inf``: none pending).
        self.next_time = min(self._due, default=math.inf)

    def schedule(self) -> None:
        """Push the next PROBE event, if a probe is still due (engines
        call this once when their run starts; :meth:`tick` re-arms)."""
        if self.next_time < math.inf:
            self._engine.queue.push(self.next_time, self._kind, None)

    def tick(self, now: float, work_remaining: bool) -> None:
        """Sample every probe due at ``now``; schedule the next tick.

        A probe samples again one period later while work remains.
        """
        snapshot = self.snapshot(now)
        for i, probe in enumerate(self._probes):
            if self._due[i] <= now:
                probe.sample(snapshot)
                self._last[i] = now
                self._due[i] = (now + probe.sample_cycles if work_remaining
                                else math.inf)
        self.next_time = min(self._due)
        self.schedule()

    def finish(self, end: float) -> None:
        """Sample, at ``end``, every probe whose last sample is older.

        Ends the run: the set then lets go of the engine, so that the
        engine -> set -> engine cycle cannot keep a finished engine
        (its chips, layout and streams) alive until the next garbage
        collection.
        """
        due = [probe for probe, last in zip(self._probes, self._last)
               if end > last]
        if due:
            snapshot = self.snapshot(end)
            for probe in due:
                probe.sample(snapshot)
        self._engine = None

    def snapshot(self, now: float) -> tuple[float, ...]:
        """The run's observable state at ``now``, laid out as
        :func:`snapshot_fields`. Reads only: one ``observe(now)`` call
        per chip returns that chip's whole :data:`CHIP_FIELDS` block."""
        engine = self._engine
        requests = engine._arrived_requests(engine.queue.now)
        values = [
            now,
            float(requests),
            float(engine.head_delay_total + engine.extra_service_total),
            (float(self._slack.slack(requests)) if self._slack is not None
             else 0.0),
            float(engine.controller.pending_count()),
            float(engine.migrations),
        ]
        for chip in engine.chips:
            values.extend(chip.observe(now))
        for busy, depth in engine._bus_states():
            values.append(busy)
            values.append(depth)
        return tuple(values)


class DownsamplingRing:
    """Bounded rows with deterministic 2:1 downsampling.

    Row ``i`` always holds the row offered at tick ``i * stride``: when
    the ring is full, every other row is dropped and the acceptance
    stride doubles, so the retained rows stay an evenly spaced subsample
    of the whole stream in O(capacity) memory. The stride depends only
    on the tick count, so two streams of equal length retain the same
    ticks. Thread-safe: the HTTP endpoints read while the simulation
    thread appends.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 8 or capacity % 2:
            raise ConfigurationError("capacity must be an even number >= 8")
        self.capacity = int(capacity)
        self._rows: list = []
        self._stride = 1
        self._ticks = 0
        self._dropped = 0
        self._lock = threading.Lock()

    @property
    def stride(self) -> int:
        with self._lock:
            return self._stride

    @property
    def ticks(self) -> int:
        with self._lock:
            return self._ticks

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def append(self, row) -> bool:
        """Offer one row; returns True if it was retained.

        Ticks that are not multiples of the current stride are dropped
        (a coarser retained row already stands for them).
        """
        with self._lock:
            tick = self._ticks
            self._ticks += 1
            if tick % self._stride:
                self._dropped += 1
                return False
            if len(self._rows) == self.capacity:
                # Keep ticks 0, 2s, 4s, ...: the triggering tick is
                # stride * capacity, a multiple of the doubled stride
                # (capacity is even), so row i still holds tick
                # i * stride after the compaction.
                del self._rows[1::2]
                self._stride *= 2
            self._rows.append(row)
            return True

    def rows(self) -> list:
        """A copy of the retained rows, oldest first."""
        with self._lock:
            return list(self._rows)
