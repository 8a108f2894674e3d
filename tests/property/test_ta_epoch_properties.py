"""Property: DMA-TA's O(1) quiet-tick test decides every epoch exactly as
the per-chip loop does.

``TemporalAlignmentController.on_epoch`` ends a tick after the charge
when two bounds over the buffered heads (the oldest arrival and the
largest projected delay ``n*U/2``) prove that no deadline is due and no
slack trigger can fire. :class:`LoopController` keeps the per-chip loop
that runs every check on every tick. Hypothesis drives both through the
same sequence of admits, epochs, wake and processor charges, chip
activations and served-request growth; after every step the two must
agree on the releases (chips and stream order), every counter, the slack
violations and charges, and every trace event, and the bounds must equal
a fresh computation over the buffered heads (stale bounds stay safe but
settle fewer ticks).

All quantities are small dyadic values, so float arithmetic is exact and
the boundary cases are reachable; the two ``@example`` runs pin a head
exactly at its allowance and a projected delay exactly at the slack.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.config import SimulationConfig, TemporalAlignmentConfig
from repro.core.temporal_alignment import TemporalAlignmentController
from repro.io.dma import FluidStream, StreamKind
from repro.obs.tracer import RingTracer

CHIPS = 4
BUSES = 3  # the default platform's buses; all three saturate a chip


class LoopController(TemporalAlignmentController):
    """The reference: every tick runs the per-chip deadline and slack
    checks."""

    def on_epoch(self, now):
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
            if self.slack.should_release(by_bus, self._arrived(), now):
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


def ids(streams):
    return [s.stream_id for s in streams]


def step(controller, chips, op, now, stream):
    """Apply one operation; its observable answer."""
    kind = op[0]
    if kind == "admit":
        return ids(controller.admit(stream, chips[op[2]], now))
    if kind == "epoch":
        return [(chip_id, ids(streams))
                for chip_id, streams in controller.on_epoch(now).items()]
    if kind == "wake":
        controller.on_wake(op[2], op[3], now, op[4])
    elif kind == "proc":
        controller.on_proc_access(op[2], op[3], op[4], now)
    elif kind == "active":
        return ids(controller.on_chip_active(chips[op[2]], now))
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
    "active": st.tuples(st.just("active"), dts, chip_ids),
}
# Admits (mostly to sleeping chips) and epochs three times as often as
# the rest, so heads gather and ticks find them.
operations = st.sampled_from(
    ("admit", "epoch") * 3 + ("wake", "proc", "serve", "active")
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
def test_quiet_ticks_decide_like_the_loop(served, mu, epoch,
                                          deadline_fraction,
                                          release_fraction, ops):
    config = SimulationConfig(alignment=TemporalAlignmentConfig(
        mu=mu, epoch_cycles=epoch, deadline_fraction=deadline_fraction,
        slack_release_fraction=release_fraction))
    assert config.saturating_buses == BUSES
    served = [served]
    tracers = RingTracer(), RingTracer()
    fast, loop = (cls(config, lambda: served[0], tracer=tracer)
                  for cls, tracer in zip(
                      (TemporalAlignmentController, LoopController), tracers))
    chips = [Chip(i) for i in range(CHIPS)]
    now = 0.0
    for index, op in enumerate(ops):
        now += op[1]
        stream = None
        if op[0] == "serve":
            served[0] += op[2]
        elif op[0] == "admit":
            chips[op[2]].asleep = op[5]
            stream = FluidStream(
                kind=StreamKind.DMA, chip_id=op[2], total_work=op[4] * 4.0,
                demand=1 / 3, stream_id=index, bus_id=op[3],
                arrival_time=now, release_time=now, num_requests=op[4],
                seq=index + 1)
        assert (step(fast, chips, op, now, stream)
                == step(loop, chips, op, now, stream)), op
        assert fast.stats() == loop.stats()
        assert fast.slack.violations == loop.slack.violations
        assert fast.slack.total_charges == loop.slack.total_charges
        assert tracers[0].events == tracers[1].events
        assert (fast._oldest_arrival, fast._max_projected) == \
            fresh_bounds(fast)
