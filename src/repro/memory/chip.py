"""The fluid-engine chip model.

A :class:`FluidChip` is a power-state machine whose energy accrues in
closed form between *change-points* (the only moments the engine touches
it). Two regimes exist:

* **Busy** — at least one stream (DMA transfer, processor burst, or
  migration copy) is attached. The chip is ACTIVE; the engine sets the
  current serving rates (fractions of chip capacity per stream kind) and
  :meth:`advance` splits elapsed cycles into serving / idle buckets.
  Active-idle cycles are classified as ``idle_dma`` while a DMA transfer
  is in flight (the paper's dominant waste) and ``idle_threshold``
  otherwise.
* **Idle** — no streams. The chip walks the low-level policy's descent
  profile (threshold wait -> transition -> residency -> ...), all of which
  is a deterministic, precomputed piecewise schedule, so no events are
  needed: :meth:`advance` simply integrates the profile.

Waking a sleeping chip charges the upward-transition time and energy and
returns the cycle at which the chip can serve again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.energy.accounting import (BUCKETS, EnergyBreakdown,
                                     TimeBreakdown, bucket_values)
from repro.energy.policies import PowerPolicy
from repro.energy.states import EDGE_NAMES, PowerModel, PowerState, Transition
from repro.obs.events import chip_track
from repro.obs.probe import CHIP_FIELDS

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

_INF = math.inf
# Bound once: reading a member off its Enum class costs about ten
# global-name lookups on Python 3.11.
_ACTIVE = PowerState.ACTIVE

# Idle-profile segment buckets.
_SEG_ACTIVE_IDLE = "idle_threshold"
_SEG_TRANSITION = "transition"
_SEG_LOW_POWER = "low_power"

#: Position of each residency bucket in an :meth:`FluidChip.observe`
#: block.
_SLOT = {name: CHIP_FIELDS.index(name) for name in BUCKETS}


@dataclass(frozen=True)
class _IdleSegment:
    """One piece of the idle descent profile, in offsets from idle start."""

    start: float
    end: float
    bucket: str
    power_watts: float
    state: PowerState
    # For transition segments: the state being entered.
    target: PowerState | None = None
    #: The wake from the state a wake in this segment starts from (the
    #: target of a transition, else ``state``); None for ACTIVE.
    up: Transition | None = None


@dataclass
class ChipRates:
    """Current serving rates as fractions of chip capacity."""

    dma: float = 0.0
    proc: float = 0.0
    migration: float = 0.0

    @property
    def busy_fraction(self) -> float:
        return self.dma + self.proc + self.migration


class FluidChip:
    """One independently power-managed memory chip (fluid model)."""

    def __init__(
        self,
        chip_id: int,
        model: PowerModel,
        policy: PowerPolicy,
        start_asleep: bool = True,
    ) -> None:
        self.chip_id = chip_id
        self.model = model
        self.policy = policy
        # The model's figures the hot paths read, bound once (the model's
        # ``active_power`` indexes a dict by an Enum member).
        self._active_power = model.active_power
        self._frequency = model.frequency_hz
        self.energy = EnergyBreakdown()
        self.time = TimeBreakdown()
        self.wake_count = 0
        #: Set by the engine when tracing: power-state residency spans
        #: are emitted on the chip's track. ``None`` = no tracing; every
        #: instrumentation site is a single ``is not None`` check.
        self.tracer: Tracer | None = None
        #: ``"from->to"`` power-state transition counts (both directions).
        self.transition_counts: dict[str, int] = {}
        self._track = chip_track(chip_id)

        self._schedule = policy.schedule(model)
        self._profile = self._build_profile()
        self._time = 0.0
        self._busy = False
        self._has_dma_stream = False
        self.rates = ChipRates()

        # Idle bookkeeping: offset into the profile = now - _idle_since.
        if start_asleep and self._profile:
            # Begin parked in the deepest state the policy reaches, as a
            # long-idle server would be at trace start.
            self._idle_since = -self._profile[-1].start
        else:
            self._idle_since = 0.0

        # What observe() may reuse until the chip's accrual state next
        # changes (advance, wake, set_busy, set_idle drop both): the
        # energy total, and the idle walk up to the segment last
        # observed (see _walk_to).
        self._total: float | None = None
        self._walk: tuple | None = None

    # ------------------------------------------------------------------
    # Idle descent profile
    # ------------------------------------------------------------------

    def _build_profile(self) -> list[_IdleSegment]:
        """Precompute the descent profile for one idle period.

        Offsets are measured from the moment the chip became idle. The
        profile always ends with an unbounded segment (the deepest state
        the schedule reaches, or ACTIVE idle forever for an always-on
        policy). Transitions between low-power states are charged at the
        target state's ACTIVE->state cost (Table 1 lists only those).
        """
        segments: list[_IdleSegment] = []
        cursor = 0.0
        state = _ACTIVE
        upward = self.model.upward
        for threshold, target in self._schedule:
            start = max(threshold, cursor)
            if start > cursor:
                bucket = _SEG_ACTIVE_IDLE if state is _ACTIVE else _SEG_LOW_POWER
                segments.append(_IdleSegment(
                    cursor, start, bucket, self.model.power(state), state,
                    up=upward.get(state)))
            down = self.model.downward[target]
            if down.time_cycles > 0:
                segments.append(_IdleSegment(
                    start, start + down.time_cycles, _SEG_TRANSITION,
                    down.power_watts, state, target=target,
                    up=upward[target]))
            cursor = start + down.time_cycles
            state = target
        bucket = _SEG_ACTIVE_IDLE if state is _ACTIVE else _SEG_LOW_POWER
        segments.append(_IdleSegment(
            cursor, _INF, bucket, self.model.power(state), state,
            up=upward.get(state)))
        return segments

    def _segment_at(self, offset: float) -> _IdleSegment:
        for segment in self._profile:
            if offset < segment.end:
                return segment
        return self._profile[-1]

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def has_dma_stream(self) -> bool:
        return self._has_dma_stream

    def state_at(self, now: float) -> PowerState:
        """The chip's power state at ``now`` (ACTIVE while busy/waking)."""
        if self._busy or now < self._time:
            return _ACTIVE
        segment = self._segment_at(now - self._idle_since)
        if segment.bucket == _SEG_TRANSITION:
            # Mid-descent: report the state being left (still draining).
            return segment.state
        return segment.state

    def is_low_power(self, now: float) -> bool:
        """True if a request arriving at ``now`` would find the chip in a
        low-power mode (the DMA-TA buffering condition, Section 4.1.1)."""
        return self.state_at(now) is not _ACTIVE

    # ------------------------------------------------------------------
    # Accrual
    # ------------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Accrue energy and time from the last change-point to ``now``.

        A no-op when ``now`` does not move past the chip's clock — which
        legitimately happens during a wake window, whose whole transition
        cost was charged up front by :meth:`wake`.
        """
        if now <= self._time:
            return
        delta = now - self._time
        if self._busy:
            self._accrue_busy(delta)
        else:
            self._accrue_idle(self._time, now)
        self._time = now
        self._total = self._walk = None

    def _count_transition(self, source: PowerState, target: PowerState) -> None:
        edge = EDGE_NAMES[source._value_, target._value_]
        self.transition_counts[edge] = self.transition_counts.get(edge, 0) + 1

    def _accrue_busy(self, delta: float) -> None:
        power = self._active_power
        seconds = delta / self._frequency
        rates = self.rates
        busy = min(1.0, rates.busy_fraction)
        idle_fraction = max(0.0, 1.0 - busy)
        if self.tracer is not None and delta > 0:
            idle_bucket = ("idle_dma" if self._has_dma_stream
                           else "idle_threshold")
            # The nested joules dict uses the exact expressions of the
            # accrual below, so the audit ledger's replay is
            # bit-comparable with the chip's own accumulation.
            self.tracer.span(self._time, delta, "active", self._track, {
                "serving_dma": delta * rates.dma,
                "serving_proc": delta * rates.proc,
                "migration": delta * rates.migration,
                idle_bucket: delta * idle_fraction,
                "joules": {
                    "serving_dma": power * seconds * rates.dma,
                    "serving_proc": power * seconds * rates.proc,
                    "migration": power * seconds * rates.migration,
                    idle_bucket: power * seconds * idle_fraction,
                },
            })

        self.time.serving_dma += delta * rates.dma
        self.time.serving_proc += delta * rates.proc
        self.time.migration += delta * rates.migration
        self.energy.serving_dma += power * seconds * rates.dma
        self.energy.serving_proc += power * seconds * rates.proc
        self.energy.migration += power * seconds * rates.migration

        idle_cycles = delta * idle_fraction
        idle_joules = power * seconds * idle_fraction
        if self._has_dma_stream:
            self.time.idle_dma += idle_cycles
            self.energy.idle_dma += idle_joules
        else:
            self.time.idle_threshold += idle_cycles
            self.energy.idle_threshold += idle_joules

    def _accrue_idle(self, start: float, end: float) -> None:
        offset_start = start - self._idle_since
        offset_end = end - self._idle_since
        frequency_hz = self.model.frequency_hz
        time, energy = self.time, self.energy
        for segment in self._profile:
            if segment.end <= offset_start:
                continue  # over before the span: nothing to accrue
            # max(segment.start, offset_start) and min(segment.end,
            # offset_end), without the calls.
            lo = (offset_start if offset_start > segment.start
                  else segment.start)
            hi = offset_end if offset_end < segment.end else segment.end
            if hi <= lo:
                continue
            cycles = hi - lo
            joules = segment.power_watts * cycles / frequency_hz
            if segment.bucket == _SEG_ACTIVE_IDLE:
                time.idle_threshold += cycles
                energy.idle_threshold += joules
            elif segment.bucket == _SEG_TRANSITION:
                time.transition += cycles
                energy.transition += joules
                if segment.target is not None and lo < segment.end <= hi:
                    # The downward transition completed inside this span.
                    self._count_transition(segment.state, segment.target)
            else:
                time.low_power += cycles
                energy.low_power += joules
            if self.tracer is not None:
                if segment.bucket == _SEG_ACTIVE_IDLE:
                    name = "active-idle"
                elif segment.bucket == _SEG_TRANSITION:
                    name = (f"to-{segment.target.value}"
                            if segment.target is not None else "transition")
                else:
                    name = segment.state.value
                self.tracer.span(self._idle_since + lo, cycles, name,
                                 self._track, {"bucket": segment.bucket,
                                               "joules": joules})
            if segment.end >= offset_end:
                break

    def observe(self, now: float) -> list[float]:
        """The chip's snapshot block at ``now``, in
        :data:`~repro.obs.probe.CHIP_FIELDS` order: energy-to-date,
        instantaneous power, then residency-to-date per bucket.

        Strictly read-only: the pending ``now - _time`` span is
        classified exactly as :meth:`advance` will classify it, but
        nothing is accrued — splitting an accrual at an observation
        point would change float rounding, and observed runs must stay
        bit-identical in energy. Used by the per-tick probe snapshot
        that telemetry and digests share
        (:class:`~repro.obs.probe.ProbeSet`).

        Between change-points a tick costs O(1): the energy total and
        the idle walk's bucket prefix (:meth:`_walk_to`) are computed
        once and reused while ``now`` stays in the same profile
        segment. The prefix is the full walk's float additions in the
        same order, so the block is bit-identical to a fresh walk. The
        cached walk is tried first: it exists only while the chip is
        idle, and an offset inside its segment lies past the chip's
        clock.
        """
        offset_end = now - self._idle_since
        walk = self._walk
        if walk is None or not walk[0] < offset_end <= walk[1]:
            if self._total is None:
                self._total = self.energy.total
            if now <= self._time:
                # Inside a wake window (or exactly at the chip's clock):
                # the whole transition was charged up front by wake(),
                # so nothing is pending. Report the serving-side power
                # the chip is heading for.
                if self._busy or now < self._time:
                    power = self._active_power
                else:
                    power = self._segment_at(offset_end).power_watts
                return [self._total, power, *bucket_values(self.time)]
            if self._busy:
                delta = now - self._time
                block = [self._total, self._active_power,
                         *bucket_values(self.time)]
                rates = self.rates
                idle_fraction = max(0.0, 1.0 - min(1.0, rates.busy_fraction))
                block[_SLOT["serving_dma"]] += delta * rates.dma
                block[_SLOT["serving_proc"]] += delta * rates.proc
                block[_SLOT["migration"]] += delta * rates.migration
                idle_bucket = ("idle_dma" if self._has_dma_stream
                               else "idle_threshold")
                block[_SLOT[idle_bucket]] += delta * idle_fraction
                return block
            walk = self._walk = self._walk_to(offset_end)
            if walk is None:
                return [self._total,
                        self._segment_at(offset_end).power_watts,
                        *bucket_values(self.time)]
        lo, end, slot, block = walk
        block = block.copy()
        block[slot] += offset_end - lo
        if offset_end == end:
            # The power of the segment that starts here.
            block[1] = self._segment_at(offset_end).power_watts
        return block

    def _walk_to(self, offset_end: float) -> tuple | None:
        """Walk the idle profile from the last accrual towards profile
        offset ``offset_end``, as :meth:`_accrue_idle` would.

        Returns ``(lo, end, slot, block)`` for the segment the walk
        stops in: its pending span starts at offset ``lo``, it ends at
        ``end`` and its bucket sits at ``slot`` of ``block``, the
        :meth:`observe` block with every earlier segment's span added
        and this segment's power. The entry holds for every
        ``offset_end`` in ``(lo, end]``. ``None`` when no segment
        overlaps the span.
        """
        offset_start = self._time - self._idle_since
        block = [self._total, 0.0, *bucket_values(self.time)]
        for segment in self._profile:
            lo = max(segment.start, offset_start)
            hi = min(segment.end, offset_end)
            if hi <= lo:
                continue
            slot = _SLOT[segment.bucket]
            if segment.end >= offset_end:
                block[1] = segment.power_watts
                return lo, segment.end, slot, block
            block[slot] += hi - lo
        return None

    # ------------------------------------------------------------------
    # Busy/idle transitions
    # ------------------------------------------------------------------

    def wake(self, now: float) -> float:
        """Bring the chip to ACTIVE; returns the cycle it is ready to serve.

        The caller must have called :meth:`advance` up to ``now``. The
        upward transition's time and energy are charged here; during the
        wake window the chip's clock is moved to the ready time, so
        intervening :meth:`advance` calls are no-ops.
        """
        if self._busy:
            return max(now, self._time)
        if now < self._time:
            # Already waking from an earlier call; ready at the stored time.
            return self._time

        segment = self._segment_at(now - self._idle_since)
        ready = now
        wake_joules = 0.0
        if segment.bucket == _SEG_TRANSITION and segment.target is not None:
            # Finish the downward transition, then resynchronise.
            remaining = (self._idle_since + segment.end) - now
            # A transition segment draws the downward transition's power.
            drain_joules = segment.power_watts * remaining / self._frequency
            self.time.transition += remaining
            self.energy.transition += drain_joules
            wake_joules += drain_joules
            ready += remaining
            self._count_transition(segment.state, segment.target)
            state = segment.target
        else:
            state = segment.state
        if state is not _ACTIVE:
            up = segment.up
            up_joules = self.model.transition_energy(up)
            self.time.transition += up.time_cycles
            self.energy.transition += up_joules
            wake_joules += up_joules
            ready += up.time_cycles
            self.wake_count += 1
            self._count_transition(state, _ACTIVE)
        if self.tracer is not None and ready > now:
            self.tracer.span(now, ready - now, "wake", self._track,
                             {"bucket": _SEG_TRANSITION,
                              "from": state.value,
                              "joules": wake_joules})
        self._time = ready
        # The chip is ACTIVE from the ready instant: re-anchor the idle
        # profile there so a second wake issued at (or after) ready sees
        # an active chip instead of re-reading the stale descent position
        # and charging a second, phantom resynchronisation.
        self._idle_since = ready
        self._total = self._walk = None
        return ready

    def wake_latency(self, now: float) -> float:
        """Cycles a wake issued at ``now`` would take (without side effects)."""
        if self._busy or now < self._time:
            return 0.0
        segment = self._segment_at(now - self._idle_since)
        latency = 0.0
        if segment.bucket == _SEG_TRANSITION and segment.target is not None:
            latency += (self._idle_since + segment.end) - now
            state = segment.target
        else:
            state = segment.state
        if state is not _ACTIVE:
            latency += segment.up.time_cycles
        return latency

    def set_busy(self, now: float, has_dma_stream: bool, rates: ChipRates) -> None:
        """Mark the chip busy with the given serving rates from ``now`` on.

        ``now`` is clamped to the chip's clock, so calling during a wake
        window marks the chip busy from the ready time onward.
        """
        self._time = max(self._time, now)
        self._busy = True
        self._has_dma_stream = has_dma_stream
        self.rates = rates
        self._total = self._walk = None

    def set_idle(self, now: float) -> None:
        """Mark the chip idle from ``now``; restarts the descent profile."""
        self._busy = False
        self._has_dma_stream = False
        self.rates = ChipRates()
        self._idle_since = max(now, self._time)
        self._total = self._walk = None
