"""The probe protocol: ticks outside the event heap, one snapshot each.

A run can carry several read-only observers ("probes") — the
:class:`~repro.obs.telemetry.TelemetrySampler` and the
:class:`~repro.obs.diff.DigestRecorder` today. Both engines drive them
through one :class:`ProbeSet`:

* a tick is not an event: the set keeps the time of the next one
  (:attr:`ProbeSet.next_time`), and each engine's run loop ticks every
  probe due before the event it has just popped, before handling it
  (:meth:`ProbeSet.catch_up`). A probe therefore reads the settled
  state of its instant, after every event of that instant, and a tick
  can neither count as progress nor stretch the simulated horizon.
  Without probes ``next_time`` stays ``math.inf`` and the loop pays one
  float comparison per event;
* the fluid engine settles runs of quiet DMA-TA epoch ticks in one
  controller call, and passes ``catch_up`` as that call's hook: the
  probes due between two ticks sample between them, so an observed run
  settles the same runs of ticks as its unobserved twin;
* when the event heap runs dry, the loop takes the ticks still due
  (the precise engine's trailing tick); the fluid loop's end-of-work
  ``break`` skips them;
* at each tick the set builds **one** read-only snapshot, the floats
  laid out as :func:`snapshot_fields` packed once into a little-endian
  float64 array, and hands it to every probe due at that tick; each
  probe keeps its own cadence (``sample_cycles``) and its own tick
  count;
* once the run ends, every probe whose last sample is older than the
  end time gets one final snapshot;
* the ticks and the final snapshot are the run's ``probes`` phase in
  its :class:`~repro.obs.wall.WallLedger`.

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
import struct
import threading
from time import perf_counter_ns
from typing import Iterable

import numpy as np

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
        engine: the engine. Its ``wall`` ledger receives the time the
            ticks take; each tick reads its ``_work_remaining()``
            (whether the probes sample again), and each snapshot its
            ``chips`` (each with ``observe(now)``),
            ``_arrived_requests(now)`` (the run's arrived DMA-memory
            requests at the tick) and ``_bus_states()`` (``(busy,
            queue_depth)`` per bus).
        probes: the attached probes (``None`` entries are skipped).
    """

    def __init__(self, engine, probes: Iterable) -> None:
        self._engine = engine
        self._probes = [probe for probe in probes if probe is not None]
        self._slack = getattr(engine.controller, "slack", None)
        for probe in self._probes:
            probe.bind(engine)
        self._due = [probe.sample_cycles for probe in self._probes]
        self._last = [-math.inf] * len(self._probes)
        if self._probes:
            self._pack = struct.Struct(
                f"<{len(snapshot_fields(engine.config))}d").pack
        #: Time of the next tick (``math.inf``: none due).
        self.next_time = min(self._due, default=math.inf)

    def catch_up(self, time: float) -> None:
        """Take every tick due before ``time``, in order.

        A tick samples every probe due at it; a probe samples again one
        period later while the run has work left.
        """
        if self.next_time >= time:
            return
        start = perf_counter_ns()
        engine = self._engine
        while self.next_time < time:
            now = self.next_time
            again = engine._work_remaining()
            snapshot = self.snapshot(now)
            for i, probe in enumerate(self._probes):
                if self._due[i] <= now:
                    probe.sample(snapshot)
                    self._last[i] = now
                    self._due[i] = (now + probe.sample_cycles if again
                                    else math.inf)
            self.next_time = min(self._due)
        engine.wall.charge("probes", perf_counter_ns() - start)

    def finish(self, end: float) -> None:
        """Sample, at ``end``, every probe whose last sample is older.

        Ends the run: the set then lets go of the engine, so that the
        engine -> set -> engine cycle cannot keep a finished engine
        (its chips, layout and streams) alive until the next garbage
        collection.
        """
        if self._probes:
            start = perf_counter_ns()
            due = [probe for probe, last in zip(self._probes, self._last)
                   if end > last]
            if due:
                snapshot = self.snapshot(end)
                for probe in due:
                    probe.sample(snapshot)
            self._engine.wall.charge("probes", perf_counter_ns() - start)
        self._engine = None

    def snapshot(self, now: float) -> np.ndarray:
        """The run's observable state at ``now``, laid out as
        :func:`snapshot_fields`: its floats packed once, as little-endian
        doubles, into a read-only float64 array. Reads only: one
        ``observe(now)`` call per chip returns that chip's whole
        :data:`CHIP_FIELDS` block."""
        engine = self._engine
        requests = engine._arrived_requests(now)
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
            values += chip.observe(now)
        for state in engine._bus_states():
            values += state
        return np.frombuffer(self._pack(*values), dtype="<f8")


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
