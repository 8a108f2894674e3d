"""The batched array-timeline kernel behind the vectorized precise engine.

The scalar precise engine walks every 8-byte DMA-memory request through
four heap events (bus-free, request-at-chip, serve-done, and a stale
descent timer), and every 64-byte processor access through one
serve-done event. On the paper's geometry — a 12-cycle bus period
against a 4-cycle chip service — a released transfer quickly settles
into the Figure 2(a) steady state: serve 4 cycles, sit active-idle 8,
repeat, with exactly one request on the wire at all times. With several
transfers streaming to one chip from different buses the pattern is the
FIFO service of the merge of one such arithmetic progression per bus. A
processor burst is a fixed sequence of ``proc_serve_cycles`` serves.
Inside these windows nothing is *decided*; the event machinery only
re-derives the sequences, one heap operation at a time.

This module collapses two kinds of window.

**Processor windows** (:meth:`ArrayTimelineKernel.serve_proc`). When the
engine starts one access of a processor burst and more accesses are
queued, the kernel serves every further access whose predecessor
completes strictly before the chip's horizon: the next event addressed
to the chip (its next trace record, a DMA-TA epoch while heads bound
for it are buffered) or seen by every chip (a PL migration interval, a
probe tick). Other chips' arrivals and epochs need no cut: they touch
no state of this chip. The kernel replays the scalar arithmetic access
by access and leaves the last access in service, so the engine state
matches the scalar engine at any instant of that serve. Bus hand-offs
and DMA requests reaching the chip need no cut: neither touches a
serving chip (a hand-off only starts a stream, a request only queues
behind the accesses).

**DMA windows** (:meth:`ArrayTimelineKernel.try_batch`). When a serve
completes and the chip goes idle while transfers are still streaming to
it, the kernel:

1. checks every streaming transfer is in the steady pipeline shape (one
   request on the wire, one just acknowledged, owning its bus, unstalled)
   and the chip is ACTIVE with nothing queued and no wake or descent in
   progress;
2. computes the chip's horizon, as for a processor window, or a bus
   handoff that would start another stream to this chip, if earlier;
   it ends the window sooner where a wire event of another bus could
   come to tie a stream's out of the scalar order (below);
3. materialises each stream's request schedule as a numpy event vector
   (`np.add.accumulate` over the bus period, so the timestamps are
   bit-identical to the scalar engine's iterative ``end = start + gap``
   bus bookkeeping) and merges them into one chip timeline;
4. serves the timeline first-in first-out — a request landing while the
   chip serves waits, exactly as it would in the chip queue — and stops
   before the horizon, a stream's first unbatched request, an exact
   arrival tie (the heap's insertion order decides those) or a serve
   that ends at or after its own stream's next arrival (the bus frees
   first and the stream stalls); the window then ends at the last idle
   boundary before the stop, so the chip is left idle;
5. applies the per-request residency, energy, degradation, and histogram
   accounting in vectorized form, using sequential-semantics reductions
   (`np.add.accumulate` seeded with the running value) so every
   accumulator receives exactly the floating-point value the scalar
   engine's repeated ``+=`` would have produced;
6. rewrites the engine state (bus occupancy, per-transfer progress, chip
   clock, descent generation) to the state the scalar engine would hold,
   and re-arms the in-flight heap events.

Everything outside these windows — wake and descent transitions, DMA-TA
gather/release decisions, migrations, bus handoffs, transfer heads and
tails, DMA requests queued behind processor accesses — stays on the
scalar event path, which is why the kernel is bit-exact rather than
within a tolerance. A DMA window settles three things early that other
chips' events can see, and each is kept exact:

* **The arrived-request count** that DMA-TA admits and epochs read:
  the engine keeps each open window's arrival times and counts the
  requests that have reached their chip by the reading event
  (``PreciseEngine._arrived_requests``).
* **The engine-wide extra-service total**: a window adds its requests'
  extra service when it is settled, ahead of other chips' serves inside
  its span. A window whose nonzero extra service would fall at or after
  the next trace arrival or epoch on any chip falls back to ending
  there, so no nonzero addition is settled ahead of those events. Those additions are almost all exact
  (``docs/ENGINES.md`` gives the numbers).
* **The order of tied wire events**: requests of different buses that
  land at one instant pop in push order, and the window pushes its
  streams' next events when it settles, not one bus period before they
  pop. A stream tied with another bus's pending event must already be
  first among them, and the window ends by the time another bus's
  re-armed event, or a transfer a trace arrival releases, would tie one
  of its streams (:meth:`ArrayTimelineKernel._tie_cut`).

The scalar path remains available as the oracle via
``engine="precise-scalar"``.

Only numpy APIs present since 1.20 are used (``np.add.accumulate``,
``np.maximum``, ``np.searchsorted``, ``np.argsort``); CI pins
``numpy==1.21.*`` on one matrix leg to keep it that way.
"""

from __future__ import annotations

import math
from time import perf_counter_ns
from typing import TYPE_CHECKING

import numpy as np

from repro.energy.states import PowerState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.precise import PreciseEngine, _PChip

#: Below this many requests the batch bookkeeping costs more than the
#: scalar events it replaces.
MIN_BATCH = 8

#: Maximum streams merged per window; chips fed by more are left scalar.
_MAX_STREAMS = 4

#: Safety margin (cycles) subtracted from projected bus-handoff times.
#: The projection uses ``free_at + remaining * gap`` while the engine
#: accumulates iteratively; the float discrepancy is bounded by
#: ``remaining * ulp(t)`` — sub-microcycle at simulation scales — so a
#: millicycle margin is overwhelmingly conservative.
_HANDOFF_MARGIN = 1e-3


def _seq_add(seed: float, values: np.ndarray) -> float:
    """``seed + v0 + v1 + ...`` with scalar left-to-right semantics.

    ``np.add.accumulate`` is specified as the sequential partial-sum
    scan, so the result is bit-identical to a Python ``+=`` loop — the
    property the energy-conservation gate (``energy_delta == 0`` against
    the scalar oracle) rests on.
    """
    arr = np.empty(len(values) + 1)
    arr[0] = seed
    arr[1:] = values
    return float(np.add.accumulate(arr)[-1])


class ArrayTimelineKernel:
    """Window batching for one :class:`PreciseEngine` run."""

    def __init__(self, engine: "PreciseEngine") -> None:
        self.engine = engine
        model = engine.config.memory.power_model
        self.gap = engine._bus_gap
        self.serve = engine._serve_cycles
        self.proc_cycles = engine._proc_serve_cycles
        self.frequency = model.frequency_hz
        #: Scalar ``touch`` uses ``model.active_power`` while serving and
        #: ``model.power(state)`` while active-idle; keep both even though
        #: they are numerically equal, so the arithmetic provenance is
        #: explicit.
        self.p_serve = model.active_power
        self.p_idle = model.power(PowerState.ACTIVE)
        schedule = engine.chips[0].schedule if engine.chips else ()
        first_threshold = schedule[0][0] if schedule else math.inf
        #: DMA windows require (a) a strictly positive idle stretch
        #: between back-to-back requests of one stream (otherwise the
        #: pipeline stalls and the cadence is different) and (b) a power
        #: policy whose first descent threshold cannot fire inside the
        #: longest possible idle stretch, ``gap - serve`` (otherwise the
        #: scalar engine would begin a downward transition mid-stream).
        self.enabled = (self.gap - self.serve > 1e-9
                        and first_threshold >= self.gap - self.serve)
        # Window statistics (surfaced as kernel.* counters).
        self.batches = 0
        self.batched_requests = 0
        self.proc_windows = 0
        self.proc_accesses = 0
        #: Nanoseconds spent cutting windows: the run's ``kernel`` phase.
        self.wall_ns = 0

    # ------------------------------------------------------------------

    def _chip_horizon(self, chip_id: int) -> float:
        """The next event addressed to ``chip_id``, or one that sees
        every chip.

        That is the chip's next trace record (it queues work on the
        chip or releases a transfer to it), the next DMA-TA epoch while
        heads bound for the chip are buffered (an epoch releases only
        buffered heads, and none can be buffered for the chip before
        its next record), the next PL interval (it moves pages and
        queues copies), and the next probe tick (``probes.next_time``,
        which the run loop takes before the first event after it; it
        must see scalar-consistent state; math.inf, no cut at all, when
        unobserved). A window closes strictly before it. Events
        addressed to other chips read nothing a window settles early
        but the arrival count, which the engine keeps exact
        (``PreciseEngine._arrived_requests``), and the engine-wide
        extra-service total (see :meth:`try_batch`).
        """
        engine = self.engine
        horizon = min(engine._chip_next_arrival[chip_id],
                      engine._next_interval_time,
                      engine.probes.next_time)
        if engine.controller.holds_heads(chip_id):
            horizon = min(horizon, engine._next_epoch_time)
        return horizon

    def _horizon(self, chip_id: int, own_buses: set) -> float:
        """Latest time a DMA window is provably undisturbed.

        Besides the chip's own horizon, a transfer queued in another
        bus's FIFO and bound for this chip starts streaming when that
        bus's current transfer finishes transmitting; a conservative
        lower bound on that handoff closes the window too. (The
        window's own buses cannot hand off: every stream keeps at least
        one request untransmitted.)
        """
        engine = self.engine
        horizon = self._chip_horizon(chip_id)
        for other_bus, fifo in enumerate(engine._bus_fifo):
            if other_bus in own_buses or not fifo:
                continue
            if not any(queued.chip_id == chip_id for queued in fifo):
                continue
            current = engine._bus_current[other_bus]
            if current is None:
                return -math.inf  # inconsistent bus state: never batch
            remaining = current.total_requests - current.transmitted
            handoff = (engine._bus_free_at[other_bus]
                       + remaining * self.gap - _HANDOFF_MARGIN)
            horizon = min(horizon, handoff)
        return horizon

    # ------------------------------------------------------------------

    def serve_proc(self, chip: "_PChip", end: float) -> float:
        """Serve the processor accesses queued behind the one ``chip``
        has just started (it completes at ``end``).

        Each access completing strictly before the chip's horizon is
        settled as the scalar engine's serve-done/kick pair would: accrue
        the serve span, start the next access ``proc_cycles`` later. The
        last access started stays in service; returns its completion
        time, for which the caller pushes the one serve-done event.
        """
        horizon = self._chip_horizon(chip.chip_id)
        if not end < horizon:
            return end
        start = perf_counter_ns()
        bursts = chip.queue[0]  # processor accesses: priority 0
        queued = sum(burst.count for burst in bursts)
        cycles = self.proc_cycles
        power = self.p_serve
        frequency = self.frequency
        span = chip.tracer.span if chip.tracer is not None else None
        track = chip._track
        time_total = chip.time.serving_proc
        energy_total = chip.energy.serving_proc
        last = chip._last
        served = 0
        # The same operations, in the same order, as ``touch`` at each
        # serve-done followed by the ``now + cycles`` push at each kick.
        while served < queued and end < horizon:
            delta = end - last
            joules = power * (delta / frequency)
            time_total += delta
            energy_total += joules
            if span is not None:
                span(last, delta, "serve", track,
                     {"bucket": "serving_proc", "joules": joules})
            last = end
            end = last + cycles
            served += 1
        chip.time.serving_proc = time_total
        chip.energy.serving_proc = energy_total
        chip._last = last
        # One generation bump per serve start, as ``_kick_chip`` does.
        chip.descent_generation += served
        remaining = served
        while remaining:
            burst = bursts[0]
            if burst.count > remaining:
                burst.count -= remaining
                break
            remaining -= burst.count
            bursts.popleft()
        self.proc_windows += 1
        self.proc_accesses += served
        self.wall_ns += perf_counter_ns() - start
        return end

    # ------------------------------------------------------------------

    def try_batch(self, chip: "_PChip", now: float) -> bool:
        """Fast-forward the steady window of ``chip``'s streams starting
        after the serve that just completed at ``now``. Returns True if a
        batch was applied (the engine state then matches the scalar
        engine at the last batched serve completion)."""
        if not self.enabled:
            return False
        streams = chip.streams
        n_streams = len(streams)
        if not 0 < n_streams <= _MAX_STREAMS:
            return False
        # The chip must be this window's alone: ACTIVE, nothing queued,
        # no transition in flight. (Transfers parked in a bus FIFO are
        # dormant — counted in ``inflight_transfers`` but invisible
        # until their handoff, which the horizon accounts for.)
        if (chip.serving is not None or chip.has_queued
                or chip.waking_until is not None
                or chip.transition_until is not None
                or chip.state is not PowerState.ACTIVE):
            return False
        engine = self.engine
        # Every stream must be in the steady pipeline shape: one request
        # on the wire, one just acknowledged, owning its bus. The final
        # request's tail (bus handoff, transfer completion) stays
        # scalar, so at most total-1 requests are ever batched.
        for t in streams:
            if (t.outstanding != 1 or t.stalled
                    or t.transmitted != t.served + 1
                    or engine._bus_current[t.bus_id] is not t
                    or not engine._bus_free_at[t.bus_id] > now):
                return False

        own_buses = {t.bus_id for t in streams}
        if len(own_buses) != n_streams:
            return False  # two streams on one bus: not steady
        # Wire events of one instant pop in push order, and the window
        # pushes its streams' next ones now, ahead of any event the
        # scalar engine would push before them. A stream whose pending
        # bus-free event ties another bus's therefore needs to be the
        # first of them already.
        free_at, seqs = engine._bus_free_at, engine._bus_seq
        for t in streams:
            for bus, current in enumerate(engine._bus_current):
                if (current is not None and bus not in own_buses
                        and free_at[bus] == free_at[t.bus_id]
                        and seqs[bus] < seqs[t.bus_id]):
                    return False
        if sum(t.total_requests - t.served - 1 for t in streams) < MIN_BATCH:
            return False
        horizon = self._horizon(chip.chip_id, own_buses)
        if not now < horizon:
            return False
        # A window may still fail to reach MIN_BATCH below; only the
        # calls that cut one are timed.
        start = perf_counter_ns()
        # The window adds its extra service to the engine-wide total now,
        # ahead of other chips' serves inside its span. Past the next
        # trace arrival or epoch on any chip only zero extras (which
        # leave a sum unchanged) may be settled early; a window with
        # others there falls back to ending at it.
        shared = min(horizon, engine._next_arrival_time,
                     engine._next_epoch_time)
        for cut in (horizon, shared):
            if not now < cut:
                return False
            window = self._window(streams, chip._last, cut)
            if window is None:
                return False
            arrivals, begins, ends, stream_of, per_stream, next_up = window
            response = ends - arrivals
            extras = np.maximum(0.0, response - self.serve)
            if not extras[np.searchsorted(ends, shared):].any():
                break
        count = len(ends)

        previous = np.empty(count)
        previous[0] = chip._last
        previous[1:] = ends[:-1]

        # Residency and energy accounting, exactly as the scalar
        # ``touch`` pair per request: an active-idle span from the
        # previous serve end to this serve's start (0.0 when the request
        # queued: ``touch`` then returns early, and adding 0.0 leaves a
        # sum unchanged), then a serve span.
        idle_cycles = begins - previous
        serve_cycles = ends - begins
        idle_joules = self.p_idle * (idle_cycles / self.frequency)
        serve_joules = self.p_serve * (serve_cycles / self.frequency)
        chip.time.idle_dma = _seq_add(chip.time.idle_dma, idle_cycles)
        chip.energy.idle_dma = _seq_add(chip.energy.idle_dma, idle_joules)
        chip.time.serving_dma = _seq_add(chip.time.serving_dma, serve_cycles)
        chip.energy.serving_dma = _seq_add(chip.energy.serving_dma,
                                           serve_joules)

        # Degradation accounting (scalar: ``extra = (now - arrival) -
        # cycles`` clamped at zero, accumulated sequentially) and the
        # per-request service histogram, including each transfer's
        # amortised head delay.
        engine.extra_service_total = _seq_add(engine.extra_service_total,
                                              extras)
        heads = np.array([t.head_delay / t.total_requests for t in streams])
        hist_values = np.maximum(self.serve, response) + heads[stream_of]
        engine._dma_service_hist.record_many(hist_values.tolist())

        if engine.tracer is not None:
            span = engine.tracer.span
            track = chip._track
            previous_l = previous.tolist()
            begins_l = begins.tolist()
            idle_c = idle_cycles.tolist()
            serve_c = serve_cycles.tolist()
            idle_j = idle_joules.tolist()
            serve_j = serve_joules.tolist()
            for i in range(count):
                if idle_c[i] > 0.0:
                    span(previous_l[i], idle_c[i], "active-idle", track,
                         {"bucket": "idle_dma", "joules": idle_j[i]})
                span(begins_l[i], serve_c[i], "serve", track,
                     {"bucket": "serving_dma", "joules": serve_j[i]})
            for s, t in enumerate(streams):
                if per_stream[s]:
                    t.extra_cycles = _seq_add(t.extra_cycles,
                                              extras[stream_of == s])

        # Advance the discrete state to the post-window scalar state.
        from repro.sim.precise import _EV_BUS_FREE, _EV_REQUEST_AT_CHIP

        engine._fold_windows(now)
        engine._window_arrivals.append(arrivals)
        for s, t in enumerate(streams):
            if not per_stream[s]:
                continue
            t.served += per_stream[s]
            t.transmitted += per_stream[s]
            t.skip_arrivals += 1       # the pre-batch wire event pair
            engine._bus_skip[t.bus_id] += 1  # is now stale; swallow it
        chip._last = float(ends[-1])
        chip.idle_since = chip._last
        chip.descent_index = 0
        # Scalar bookkeeping bumps the generation once per serve start
        # and once per descent (re-)arm, which follows every serve that
        # leaves the chip idle; replicate so any descent timer left in
        # the heap is recognised as stale. The window ends idle, and a
        # request that did not queue was preceded by an idle boundary.
        if chip.schedule:
            idle_boundaries = int(np.count_nonzero(idle_cycles[1:])) + 1
            chip.descent_generation += count + idle_boundaries
        else:
            chip.descent_generation += count
        # Re-arm each stream's in-flight request at the post-window time
        # (same push order as ``_transmit``: request-at-chip, bus-free;
        # streams ordered by wire time as their transmits would have
        # been).
        for time_next, t in next_up:
            engine._bus_free_at[t.bus_id] = time_next
            engine.queue.push(time_next, _EV_REQUEST_AT_CHIP, t)
            engine._bus_seq[t.bus_id] = engine.queue.push(
                time_next, _EV_BUS_FREE, t.bus_id)

        self.batches += 1
        self.batched_requests += count
        self.wall_ns += perf_counter_ns() - start
        return True

    def _window(self, streams: list, last: float, horizon: float):
        """The window of ``streams`` from a chip idle since ``last``,
        closed before ``horizon``.

        Returns ``(arrivals, begins, ends, stream_of, per_stream,
        next_up)``: per request its chip arrival, serve start and end
        and stream; per stream its request count; and each stream's
        first unbatched arrival, in wire order. None when the window is
        shorter than :data:`MIN_BATCH` or leaves an exact tie to re-arm.
        """
        chains = self._chains(streams, horizon)
        cut = self._tie_cut(streams, chains)
        if cut < horizon:
            horizon = cut
            chains = self._chains(streams, horizon)
        if len(streams) == 1:
            # One stream never queues: each request is served the
            # instant it lands (``gap > serve``), so the window is every
            # request but the cut element whose serve ends before the
            # horizon, each one followed by an idle boundary.
            chain = chains[0]
            count = len(chain) - 1
            if math.isfinite(horizon):
                count = min(count, int(np.searchsorted(
                    chain + self.serve, horizon, side="left")))
            if count < MIN_BATCH:
                return None
            arrivals = begins = chain[:count]
            return (arrivals, begins, begins + self.serve,
                    np.zeros(count, dtype=int), [count],
                    [(float(chain[count]), streams[0])])
        window = self._fifo_window(last, chains, horizon)
        if window is None:
            return None
        arrivals, begins, ends, stream_of = window
        per_stream = np.bincount(stream_of, minlength=len(streams)).tolist()
        next_up = [(float(chain[per_stream[s]]), streams[s])
                   for s, chain in enumerate(chains) if per_stream[s]]
        next_up.sort(key=lambda pair: pair[0])
        # The re-armed wire events must keep the scalar heap order;
        # bail on exact timestamp collisions rather than guess.
        for (t_a, _), (t_b, _) in zip(next_up, next_up[1:]):
            if t_a == t_b:
                return None
        return arrivals, begins, ends, stream_of, per_stream, next_up

    def _chains(self, streams: list, horizon: float) -> list:
        """One event vector per stream: chain[j] is the chip-arrival time
        of its (j+1)-th upcoming request; the accumulate chain
        reproduces the scalar bus bookkeeping ``end = start + gap``
        bit-for-bit. The last element is the first arrival *not*
        batchable for that stream (its tail, or past the horizon) and
        acts as a window cut in the merge."""
        engine = self.engine
        chains = []
        for t in streams:
            first = engine._bus_free_at[t.bus_id]
            limit = t.total_requests - t.served - 1
            if math.isfinite(horizon):
                by_horizon = int((horizon - self.serve - first)
                                 / self.gap) + 2
                if by_horizon < limit:
                    limit = max(0, by_horizon)
            chain = np.empty(limit + 1)
            chain[0] = first
            chain[1:] = self.gap
            np.add.accumulate(chain, out=chain)
            chains.append(chain)
        return chains

    def _tie_cut(self, streams: list, chains: list) -> float:
        """The time by which the window must hand its streams back to
        the scalar path, so that no tie with another bus's wire event
        pops out of the scalar order (math.inf when none can).

        Tied wire events pop in push order. The scalar engine pushes
        each one bus period before it pops; the window pushes its
        streams' next events when it settles, ahead of every event
        pushed in between. Two later events could tie a stream's:

        * another bus's event that an earlier window re-armed at a time
          on the stream's chain: it was pushed first and pops first, so
          the stream re-arms no later than that time;
        * the first request of a transfer released at a trace arrival
          ``B``, landing on the chain at ``B + gap``: the arrival pops
          before the bus-free events of its instant, so the stream must
          be back on the scalar path by ``B``.
        """
        engine = self.engine
        gap = self.gap
        own = {t.bus_id for t in streams}
        # (a time that may lie on a chain, the time the window ends by)
        probes = [(free_at, free_at) for bus, (free_at, current)
                  in enumerate(zip(engine._bus_free_at,
                                   engine._bus_current))
                  if current is not None and bus not in own]
        records = engine._record_times
        start = engine._next_record
        stop = int(np.searchsorted(records, max(c[-1] for c in chains)))
        probes.extend((time + gap, time)
                      for time in records[start:stop].tolist())
        cut = math.inf
        for chain in chains:
            first, length = chain[0], len(chain)
            for probe, mark in probes:
                k = round((probe - first) / gap)
                if 1 <= k < length and chain[k] == probe:
                    cut = min(cut, mark)
        return cut

    def _fifo_window(self, last: float, chains: list, horizon: float):
        """First-in first-out service of the merged multi-stream
        timeline from a chip idle since ``last``.

        Returns ``(arrivals, begins, ends, stream_of)`` for the window,
        or None when it is shorter than :data:`MIN_BATCH`.
        """
        lengths = [len(c) for c in chains]
        merged = np.concatenate(chains)
        stream_of = np.repeat(np.arange(len(chains)), lengths)
        # Each request's own stream's next arrival (the cut elements,
        # which never enter a window, have none).
        following = np.concatenate([np.append(c[1:], math.inf)
                                    for c in chains])
        order = np.argsort(merged, kind="stable")
        rank = np.empty(len(merged), dtype=int)
        rank[order] = np.arange(len(merged))
        # Never batch at or past any stream's final (cut) element.
        stop = int(rank[np.cumsum(lengths) - 1].min())
        arrivals = merged[order][:stop + 1].tolist()
        following_l = following[order][:stop].tolist()

        serve = self.serve
        begins: list[float] = []
        ends: list[float] = []
        count = 0
        previous_end = last
        previous_arrival = -math.inf
        for i in range(stop):
            arrival = arrivals[i]
            if arrival == previous_arrival:
                break  # exact tie: the heap's insertion order decides
            begin = arrival if arrival > previous_end else previous_end
            end = begin + serve
            if not (end < horizon and end < following_l[i]):
                break  # past the horizon, or its own stream stalls
            begins.append(begin)
            ends.append(end)
            if end < arrivals[i + 1]:
                count = i + 1  # idle boundary: the window may end here
            previous_end = end
            previous_arrival = arrival
        if count < MIN_BATCH:
            return None
        return (np.array(arrivals[:count]), np.array(begins[:count]),
                np.array(ends[:count]), stream_of[order][:count])


__all__ = ["ArrayTimelineKernel", "MIN_BATCH"]
