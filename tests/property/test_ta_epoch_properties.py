"""Property: DMA-TA's O(1) quiet-tick test decides every epoch exactly as
the per-chip loop does, one tick or a run of ticks at a time.

``TemporalAlignmentController.settle_epochs`` ends a tick after the
charge when two bounds over the buffered heads (the oldest arrival and
the largest projected delay ``n*U/2``) prove that no deadline is due and
no slack trigger can fire, and runs further ticks in the same call while
they precede a stop time. :class:`LoopController` keeps the per-chip
loop that runs every check on every tick. Hypothesis drives both through
the same sequence of admits, single epochs, runs of epochs against a
stop time and tie flag, wake and processor charges, served-request
growth and under-charge faults; after every step the two must agree on
the releases (chips and stream order), every counter, the slack
violations and charges, and every trace event, the bounds must equal a
fresh computation over the buffered heads (stale bounds stay safe but
settle fewer ticks), and the kept per-bus head counts must equal a fresh
count.

All quantities are small dyadic values, so float arithmetic is exact and
the boundary cases are reachable; the ``@example`` runs pin a head
exactly at its allowance, a projected delay exactly at the slack, a tick
exactly at the stop time with the tie flag both ways, a run whose first
tick needs the per-chip checks, and a halved epoch charge.
"""

import math
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.config import SimulationConfig, TemporalAlignmentConfig
from repro.core.temporal_alignment import TemporalAlignmentController
from repro.io.dma import FluidStream, StreamKind
from repro.obs.events import TRACK_SIM
from repro.obs.tracer import RingTracer
from repro.sim.engine import EventKind, EventQueue

CHIPS = 4
BUSES = 3  # the default platform's buses; all three saturate a chip


class LoopController(TemporalAlignmentController):
    """The reference: every tick runs the per-chip deadline and slack
    checks."""

    def on_epoch(self, now):
        self._tracer.counter(now, "pending_heads", TRACK_SIM,
                             float(self._pending_total))
        self._tracer.counter(now, "served_requests", TRACK_SIM,
                             self.arrived_requests(now))
        self.slack.charge_epoch(
            self._config.alignment.epoch_cycles, self._pending_total, now)
        releases = {}
        for chip_id in list(self._pending):
            if self._deadline_due(chip_id, now):
                self.releases_by_deadline += 1
                releases[chip_id] = self._pop_pending(chip_id)
                self._record_release(chip_id, releases[chip_id],
                                     "deadline", now)
                continue
            by_bus = self._pending_by_bus(chip_id)
            if self.slack.should_release(by_bus, self._arrived(now), now):
                self.releases_by_slack += 1
                releases[chip_id] = self._pop_pending(chip_id)
                self._record_release(chip_id, releases[chip_id],
                                     "slack", now)
        return releases


class Chip:
    """What admission reads from a chip: its id and whether it sleeps."""

    def __init__(self, chip_id):
        self.chip_id = chip_id
        self.asleep = True

    def is_low_power(self, now):
        return self.asleep


def fresh_bounds(controller):
    """The oldest buffered arrival and the largest projected delay."""
    heads = [s for streams in controller._pending.values() for s in streams]
    projected = 0.0
    for chip_id in controller._pending:
        by_bus = controller._pending_by_bus(chip_id)
        projected = max(projected,
                        math.inf if len(by_bus) >= BUSES
                        else controller.slack.projected_delay(by_bus))
    return min((s.arrival_time for s in heads), default=math.inf), projected


def fresh_by_bus(controller, chip_id):
    """The chip's buffered heads per bus, counted afresh."""
    return dict(Counter(s.bus_id for s in controller._pending.get(chip_id,
                                                                  ())))


def ids(streams):
    return [s.stream_id for s in streams]


def releases_of(releases):
    return [(chip_id, ids(streams)) for chip_id, streams in releases.items()]


def stop_of(now, epoch, ticks, offset):
    """The stop time ``offset`` past the ``ticks``-th tick after ``now``,
    reached by the same additions as the ticks themselves."""
    for _ in range(ticks):
        now += epoch
    return now + offset


def loop_settle(controller, now, epoch, stop, at_stop):
    """One tick at a time: run ticks until one releases or the next would
    not pop before an event queued at ``stop`` (after an epoch tick at
    ``stop`` when ``at_stop``)."""
    queue = EventQueue()
    queue.push(stop, EventKind.PROBE if at_stop else EventKind.ARRIVAL)
    ticks = 0
    while True:
        ticks += 1
        releases = controller.on_epoch(now)
        if releases or not queue.precedes(now + epoch, EventKind.EPOCH):
            return now, ticks, releases
        now += epoch


def step(controller, chips, op, now, stream):
    """Apply one operation; its observable answer."""
    kind = op[0]
    if kind == "admit":
        return ids(controller.admit(stream, chips[op[2]], now))
    if kind == "epoch":
        return releases_of(controller.on_epoch(now))
    if kind == "settle":
        epoch = controller.epoch_cycles()
        stop = stop_of(now, epoch, op[2], op[3] * epoch)
        last, ticks, releases = (
            loop_settle(controller, now, epoch, stop, op[4])
            if isinstance(controller, LoopController)
            else controller.settle_epochs(now, stop, op[4]))
        return last, ticks, releases_of(releases)
    if kind == "wake":
        controller.on_wake(op[2], op[3], now, op[4])
    elif kind == "proc":
        controller.on_proc_access(op[2], op[3], op[4], now)
    elif kind == "undercharge":
        controller.slack.undercharge_fraction = op[2]
    return None


dts = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0, 200.0])
chip_ids = st.integers(min_value=0, max_value=CHIPS - 1)
OPERATIONS = {
    "admit": st.tuples(st.just("admit"), dts, chip_ids,
                       st.integers(min_value=0, max_value=BUSES - 1),
                       st.sampled_from([1, 2, 8, 64, 1024]),
                       st.sampled_from([True, True, True, False])),
    "epoch": st.tuples(st.just("epoch"), dts),
    "wake": st.tuples(st.just("wake"), dts, chip_ids,
                      st.sampled_from([0.0, 1.0, 8.0, 100.0, 4096.0]),
                      st.integers(min_value=1, max_value=4)),
    "proc": st.tuples(st.just("proc"), dts, chip_ids,
                      st.sampled_from([0.0, 2.0, 28.0, 256.0, 65536.0]),
                      st.integers(min_value=0, max_value=2)),
    "serve": st.tuples(st.just("serve"), dts,
                       st.sampled_from([1.0, 10.0, 99.0, 1000.0])),
    # A run of ticks from now against a stop ``offset`` epochs past the
    # ``ticks``-th tick; the flag says whether a tick at the stop time
    # still precedes the event there.
    "settle": st.tuples(st.just("settle"), dts,
                        st.integers(min_value=0, max_value=12),
                        st.sampled_from([0.0, 0.0, 0.5]), st.booleans()),
    "rate": st.tuples(st.just("rate"), dts,
                      st.sampled_from([0.0, 0.25, 1.0, 4.0])),
    "undercharge": st.tuples(st.just("undercharge"), dts,
                             st.sampled_from([0.0, 0.5])),
}
# Admits (mostly to sleeping chips), epochs and runs of epochs three
# times as often as the rest, so heads gather and ticks find them.
operations = st.sampled_from(
    ("admit", "epoch", "settle") * 3
    + ("wake", "proc", "serve", "rate", "undercharge")
).flatmap(OPERATIONS.__getitem__)


@given(served=st.sampled_from([0.0, 100.0, 1000.0, 10000.0]),
       mu=st.sampled_from([0.25, 1.0, 2.0, 8.0]),
       epoch=st.sampled_from([1.0, 10.0, 100.0]),
       deadline_fraction=st.sampled_from([0.25, 0.5, 0.6, 1.0]),
       release_fraction=st.sampled_from([0.25, 0.5, 1.0]),
       ops=st.lists(operations, min_size=10, max_size=80))
@settings(max_examples=300, deadline=None)
# A head exactly at its allowance: served 99 + 1 buffered request at
# mu*T = 4 gives 400 of credit, minus one 10-cycle charge leaves 390,
# shared 390/2 = 195, allowance 0.5 * 195 = 97.5 = the head's wait.
@example(served=99.0, mu=1.0, epoch=10.0, deadline_fraction=0.5,
         release_fraction=1.0,
         ops=[("admit", 0.0, 0, 0, 1, True), ("epoch", 97.5)])
# A projected delay exactly at the slack: 10 requests deposit 40, a
# 28-cycle processor charge and a 10-cycle epoch charge leave 2, and
# one head's n*U/2 = 1 * 4 / 2 = 2.
@example(served=0.0, mu=1.0, epoch=10.0, deadline_fraction=0.5,
         release_fraction=1.0,
         ops=[("admit", 0.0, 0, 0, 10, True), ("proc", 0.0, 0, 28.0, 0),
              ("epoch", 0.25)])
# A quiet tick exactly at the stop time: with the flag it runs (ticks 0,
# 10, 20 and 30 against a stop at 30); without it a run from 40 against
# a stop at 70 ends at 60.
@example(served=1000.0, mu=1.0, epoch=10.0, deadline_fraction=0.5,
         release_fraction=1.0,
         ops=[("admit", 0.0, 0, 0, 64, True), ("settle", 0.0, 3, 0.0, True),
              ("settle", 10.0, 3, 0.0, False)])
# The first tick needs the per-chip checks and releases nothing: a
# 1024-request head's own budget (0.5 * 4096) outlasts the quiet bound
# (0.5 * 3996 / 2), so ticks 1500-1800 scan and keep it; the tick at
# 2100 releases it by its deadline (2048).
@example(served=0.0, mu=1.0, epoch=100.0, deadline_fraction=0.5,
         release_fraction=1.0,
         ops=[("admit", 0.0, 0, 0, 1024, True),
              ("settle", 1500.0, 4, 0.0, False),
              ("settle", 300.0, 12, 0.0, True)])
# Half the epoch charge, as ``repro audit --inject-undercharge 0.5``.
@example(served=100.0, mu=1.0, epoch=10.0, deadline_fraction=0.5,
         release_fraction=1.0,
         ops=[("admit", 0.0, 0, 0, 64, True), ("undercharge", 0.0, 0.5),
              ("settle", 10.0, 12, 0.5, True), ("admit", 0.0, 1, 1, 8, True),
              ("settle", 0.0, 12, 0.0, False)])
def test_quiet_ticks_decide_like_the_loop(served, mu, epoch,
                                          deadline_fraction,
                                          release_fraction, ops):
    config = SimulationConfig(alignment=TemporalAlignmentConfig(
        mu=mu, epoch_cycles=epoch, deadline_fraction=deadline_fraction,
        slack_release_fraction=release_fraction))
    assert config.saturating_buses == BUSES
    served, rate = [served], [0.0]
    tracers = RingTracer(), RingTracer()
    fast, loop = (cls(config, lambda now: served[0] + rate[0] * now,
                      tracer=tracer)
                  for cls, tracer in zip(
                      (TemporalAlignmentController, LoopController), tracers))
    chips = [Chip(i) for i in range(CHIPS)]
    now = 0.0
    for index, op in enumerate(ops):
        now += op[1]
        stream = None
        if op[0] == "serve":
            served[0] += op[2]
        elif op[0] == "rate":
            rate[0] = op[2]
        elif op[0] == "admit":
            chips[op[2]].asleep = op[5]
            stream = FluidStream(
                kind=StreamKind.DMA, chip_id=op[2], total_work=op[4] * 4.0,
                demand=1 / 3, stream_id=index, bus_id=op[3],
                arrival_time=now, release_time=now, num_requests=op[4],
                seq=index + 1)
        answer = step(fast, chips, op, now, stream)
        assert answer == step(loop, chips, op, now, stream), op
        if op[0] == "settle":
            now = answer[0]  # the last tick run
        assert fast.stats() == loop.stats()
        assert fast.slack.violations == loop.slack.violations
        assert fast.slack.total_charges == loop.slack.total_charges
        assert tracers[0].events == tracers[1].events
        assert (fast._oldest_arrival, fast._max_projected) == \
            fresh_bounds(fast)
        assert all(fast._pending_by_bus(chip_id)
                   == fresh_by_bus(fast, chip_id) for chip_id in range(CHIPS))
