"""Property: a precise chip's descent walk, run as a clock, takes the
steps a timer-driven walk takes, at the same times, in the same order.

``_PChip`` keeps its walk down the policy schedule as the time of its
next step boundary (a step's begin, or its finish) and applies every
boundary past at the time it is read. The reference below drives the
walk with timer events instead, the way the precise engine once did: a
chip going idle arms a DESCENT timer for the next step, the timer begins
the step and arms another for its finish, which arms the next step, and
a serve or a wake outdates every pending timer through a generation
count. The timers sit on a private heap ordered by (time, kind, push
order) with the DESCENT kind between the chip's own events (a request,
a serve end, a wake end) and the epoch and interval ticks; a probe tick
follows every event of its time.

Hypothesis drives one chip of each kind through the same idle gaps,
serves and wakes (wakes in mid-transition included) on random power
models and policies: zero and equal thresholds, zero-cycle transitions,
static and break-even policies. Reads land exactly at step boundaries
from both sides of the tie rule, just before and just after them. Every
read must return the same, and at the end both chips must hold the same
buckets (compared as ``float.hex``), the same transitions in the same
order, the same wakes and the same last boundary, which sets the run's
horizon as the last timer popped did.
"""

import math
from collections import Counter
from heapq import heappop, heappush
from itertools import count

from hypothesis import given, settings, strategies as st

from repro import simulate
from repro.energy.accounting import (BUCKET_INDEX, EnergyBreakdown,
                                     TimeBreakdown, bucket_values)
from repro.energy.policies import (DynamicThresholdPolicy, StaticPolicy,
                                   default_dynamic_policy)
from repro.energy.rdram import rdram_1600_model
from repro.energy.states import LOW_POWER_STATES, PowerState, Transition
from repro.sim import precise
from repro.sim.engine import EventQueue
from repro.sim.precise import _PRIO_DMA, _Instant, _PChip, _Request
from repro.traces.synthetic import synthetic_storage_trace

ACTIVE = PowerState.ACTIVE
#: The timer kind, and the kinds of the events the scenario handles:
#: a request reaching the chip, a serve end and a wake end pop before a
#: timer of their time; an epoch tick after it; a probe tick after all.
REQUEST, SERVE_DONE, CHIP_READY, DESCENT, EPOCH, PROBE = 2, 3, 4, 5, 6, 9


class TimerChip:
    """The reference chip: its walk advances only when a timer calls
    :meth:`begin_descent_step` or :meth:`finish_descent_step`."""

    def __init__(self, model, policy):
        self.model = model
        self.schedule = policy.schedule(model)
        self.energy = EnergyBreakdown()
        self.time = TimeBreakdown()
        self.wake_count = 0
        self.edges = []
        self.serving = None
        self.inflight_transfers = 0
        self.state = self.schedule[-1][1] if self.schedule else ACTIVE
        self.descent_generation = 0
        self.descent_index = len(self.schedule)
        self.idle_since = 0.0
        self.waking_until = None
        self.transition_until = None
        self.transition_target = None
        self._transit_power = 0.0
        self._last = 0.0

    def touch(self, now):
        if now <= self._last:
            return
        delta = now - self._last
        self._last = now
        seconds = delta / self.model.frequency_hz
        if self.serving is not None:
            self.time.serving_dma += delta
            self.energy.serving_dma += self.model.active_power * seconds
        elif self.waking_until is not None or self.transition_until is not None:
            self.time.transition += delta
            self.energy.transition += self._transit_power * seconds
        else:
            joules = self.model.power(self.state) * seconds
            if self.state is not ACTIVE:
                self.time.low_power += delta
                self.energy.low_power += joules
            elif self.inflight_transfers > 0:
                self.time.idle_dma += delta
                self.energy.idle_dma += joules
            else:
                self.time.idle_threshold += delta
                self.energy.idle_threshold += joules

    def observe(self, now):
        buckets = list(bucket_values(self.time))
        if self.serving is not None:
            power, bucket = self.model.active_power, "serving_dma"
        elif self.waking_until is not None or self.transition_until is not None:
            power, bucket = self._transit_power, "transition"
        else:
            power = self.model.power(self.state)
            bucket = ("low_power" if self.state is not ACTIVE else
                      "idle_dma" if self.inflight_transfers else
                      "idle_threshold")
        if now - self._last > 0:
            buckets[BUCKET_INDEX[bucket]] += now - self._last
        return [self.energy.total, power, *buckets]

    def _count_transition(self, source, target):
        self.edges.append((source.value, target.value))

    def is_low_power(self, now):
        if self.waking_until is not None:
            return False
        return self.state is not ACTIVE or self.transition_until is not None

    def begin_wake(self, now):
        if self.waking_until is not None:
            return self.waking_until
        if self.state is ACTIVE and self.transition_until is None:
            return now
        self.touch(now)
        self.descent_generation += 1
        ready = now
        if self.transition_until is not None:
            ready = self.transition_until
            pending_state = self.transition_target
            self._count_transition(self.state, pending_state)
        else:
            pending_state = self.state
        up = self.model.upward[pending_state]
        self._transit_power = up.power_watts
        ready += up.time_cycles
        self.waking_until = ready
        self.wake_count += 1
        if self.transition_until is not None and self.transition_until > now:
            down = self.model.downward[self.transition_target]
            leg = self.transition_until - now
            self.time.transition += leg
            self.energy.transition += (down.power_watts * leg
                                       / self.model.frequency_hz)
            self._last = self.transition_until
        self.transition_until = None
        self.transition_target = None
        self.state = pending_state
        return ready

    def finish_wake(self, now):
        self.touch(now)
        self.waking_until = None
        self._count_transition(self.state, ACTIVE)
        self.state = ACTIVE
        self.descent_index = 0
        self.idle_since = now

    def begin_descent_step(self, now):
        if self.descent_index >= len(self.schedule):
            return None
        _, target = self.schedule[self.descent_index]
        self.touch(now)
        down = self.model.downward[target]
        self._transit_power = down.power_watts
        self.transition_until = now + down.time_cycles
        self.transition_target = target
        return self.transition_until

    def finish_descent_step(self, now):
        self.touch(now)
        self._count_transition(self.state, self.transition_target)
        self.state = self.transition_target
        self.transition_until = None
        self.transition_target = None
        self.descent_index += 1

    def next_descent_due(self):
        if self.descent_index >= len(self.schedule):
            return None
        return self.idle_since + self.schedule[self.descent_index][0]


class TimerWalk:
    """The reference's DESCENT timers and their handlers on a private
    heap. A begin timer carries the chip's generation, a finish timer
    the generation negated; a timer whose generation is outdated does
    nothing when it pops."""

    def __init__(self, chip):
        self.chip = chip
        self.heap = []
        self.seq = count()
        self.last_boundary = 0.0  # the last timer that took a step
        self.last_popped = 0.0  # the last timer popped, outdated or not

    def settle(self, now, kind):
        """Pop every timer that pops before an event at (now, kind)."""
        while self.heap and (self.heap[0][0], DESCENT) < (now, kind):
            time, _, _, generation = heappop(self.heap)
            self.last_popped = time
            self.dispatch(generation, time)

    def next_boundary(self):
        """The time of the next timer that will take a step."""
        chip = self.chip
        live = [time for time, _, _, generation in self.heap
                if abs(generation) == chip.descent_generation]
        return min(live, default=math.inf)

    def arm(self, now):
        due = self.chip.next_descent_due()
        if due is None:
            return
        self.chip.descent_generation += 1
        heappush(self.heap, (max(due, now), DESCENT, next(self.seq),
                             self.chip.descent_generation))

    def dispatch(self, generation, now):
        chip = self.chip
        if generation < 0:
            if (-generation == chip.descent_generation
                    and chip.transition_target):
                chip.finish_descent_step(now)
                self.last_boundary = now
                self.arm(now)
            return
        if (generation != chip.descent_generation
                or chip.serving is not None or chip.waking_until is not None):
            return
        end = chip.begin_descent_step(now)
        if end is None:
            return
        self.last_boundary = now
        heappush(self.heap, (end, DESCENT, next(self.seq),
                             -chip.descent_generation))


class ClockChip(_PChip):
    """The chip under test, logging its transitions in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.edges = []

    def _count_transition(self, source, target):
        self.edges.append((source.value, target.value))
        super()._count_transition(source, target)


class Pair:
    """One clock chip and one timer chip, handed the same events: the
    engine's handling of one chip, from a request to its serve's end."""

    def __init__(self, model, policy):
        self.instant = _Instant()
        self.clock = ClockChip(0, model, policy, self.instant)
        self.timer = TimerChip(model, policy)
        self.timers = TimerWalk(self.timer)
        self.now, self.kind = 0.0, 0

    def at(self, now, kind):
        """Handle an event at (now, kind): later than the last one."""
        if (now, kind) < (self.now, self.kind):
            now, kind = self.now, max(kind, self.kind)
        self.now, self.kind = now, kind
        self.timers.settle(now, kind)
        self.instant.ties_past = kind > DESCENT
        return now

    def both(self, method, *args):
        ours = getattr(self.clock, method)(*args)
        theirs = getattr(self.timer, method)(*args)
        if method == "observe":
            ours, theirs = [x.hex() for x in ours], [x.hex() for x in theirs]
        assert ours == theirs, (method, args)
        return ours

    def read(self, now, kind, what):
        now = self.at(now, PROBE if what == "observe" else kind)
        if what == "inflight":
            # A transfer released to the chip, or one done with it.
            self.both("touch", now)
            flip = 1 - self.clock.inflight_transfers
            self.clock.inflight_transfers = flip
            self.timer.inflight_transfers = flip
        else:
            self.both(what, now)

    def request(self, now, kind):
        """A request reaches the idle chip: wake it if it is low, then
        serve. Returns when the serve starts."""
        now = self.at(now, kind)
        if self.both("is_low_power", now):
            return self.both("begin_wake", now)
        self.start_serve(now)
        return None

    def ready(self, ready):
        ready = self.at(ready, CHIP_READY)
        self.both("finish_wake", ready)
        self.start_serve(ready)

    def start_serve(self, now):
        self.both("touch", now)
        request = _Request(priority=_PRIO_DMA, arrival=now, cycles=1.0)
        self.clock.serving = self.timer.serving = request
        self.clock.descent_due = math.inf  # as PreciseEngine._kick_chip
        self.timer.descent_generation += 1

    def serve_done(self, end):
        end = self.at(end, SERVE_DONE)
        self.both("touch", end)
        self.clock.serving = self.timer.serving = None
        self.clock.start_walk(end)  # as PreciseEngine._on_serve_done
        self.timer.idle_since = end
        self.timer.descent_index = 0
        self.timers.arm(end)

    def finish(self):
        """The run is over: every step left is taken."""
        self.timers.settle(math.inf, DESCENT)
        self.clock.finish_walk()


@st.composite
def platforms(draw):
    """A Table 1 model with drawn transition times and a policy, or
    Table 1 itself with its break-even policy."""
    model = rdram_1600_model()
    if draw(st.booleans()):
        return model, default_dynamic_policy(model)
    cycles = st.sampled_from([0.0, 0.5, 1.0, 8.0])
    model = model.replace(
        downward={state: Transition(t.power_watts, draw(cycles))
                  for state, t in model.downward.items()},
        upward={state: Transition(t.power_watts, draw(
                    st.sampled_from([0.5, 9.6, 96.0])))
                for state, t in model.upward.items()})
    if draw(st.booleans()):
        return model, StaticPolicy(draw(st.sampled_from(LOW_POWER_STATES)),
                                   draw(st.sampled_from([0.0, 2.0, 20.0])))
    states = draw(st.lists(st.sampled_from(LOW_POWER_STATES), min_size=1,
                           max_size=3, unique=True))
    thresholds = sorted(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 8.0, 20.0, 61.0]),
        min_size=len(states), max_size=len(states))))
    states.sort(key=lambda state: state.depth)
    return model, DynamicThresholdPolicy(tuple(zip(states, thresholds)))


def when(data, pair, start):
    """A time at or after ``start``: the next step boundary exactly,
    just before or after it, or a gap."""
    boundary = pair.timers.next_boundary()
    choice = data.draw(st.sampled_from(
        ["at", "at", "before", "after", "gap"]))
    if boundary == math.inf or choice == "gap":
        return start + data.draw(st.sampled_from([0.0, 0.5, 3.0, 40.0]))
    offset = data.draw(st.sampled_from([0.25, 0.5, 3.0]))
    return max(start, {"at": boundary, "before": boundary - offset,
                       "after": boundary + offset}[choice])


def reads(data, pair, whats, until=math.inf):
    """Reads of the chip up to ``until``, each at a drawn time."""
    for _ in range(data.draw(st.integers(0, 4))):
        pair.read(min(when(data, pair, pair.now), until),
                  data.draw(st.sampled_from([REQUEST, EPOCH])),
                  data.draw(st.sampled_from(whats)))


@settings(max_examples=300, deadline=None)
@given(platform=platforms(), data=st.data())
def test_clock_walk_matches_timer_walk(platform, data):
    pair = Pair(*platform)
    for _ in range(data.draw(st.integers(1, 5))):
        # Idle: the walk runs (at first the chip sits fully descended).
        reads(data, pair, ["touch", "is_low_power", "observe", "inflight"])
        ready = pair.request(when(data, pair, pair.now),
                             data.draw(st.sampled_from([REQUEST, EPOCH])))
        if ready is not None:
            reads(data, pair, ["touch", "observe"], until=ready)
            pair.ready(ready)
        reads(data, pair, ["touch", "observe"])
        pair.serve_done(pair.now + data.draw(st.sampled_from([1.0, 4.0,
                                                              30.0])))
    reads(data, pair, ["touch", "is_low_power", "observe", "inflight"])
    last_event = pair.now
    pair.finish()

    clock, timer = pair.clock, pair.timer
    for name in ("time", "energy"):
        assert ([x.hex() for x in bucket_values(getattr(clock, name))]
                == [x.hex() for x in bucket_values(getattr(timer, name))])
    assert clock.edges == timer.edges
    assert clock.wake_count == timer.wake_count
    assert clock.last_boundary == pair.timers.last_boundary
    # The horizon: the last event, or the last timer popped.
    assert (max(clock.last_boundary, last_event)
            == max(pair.timers.last_popped, last_event))


def test_precise_runs_push_no_timer_events(monkeypatch):
    """Every event a scalar precise run pushes is a trace arrival, one of
    a request's three (bus free, request at chip, serve done), one of a
    processor access's serves, or the end of a wake — none is a descent
    timer — and yet the chips walk down."""
    trace = synthetic_storage_trace(duration_ms=0.3, transfers_per_ms=120,
                                    seed=23)
    kinds = Counter()
    push = EventQueue.push

    def counting_push(self, time, kind, payload=None, rank=None):
        kinds[kind] += 1
        push(self, time, kind, payload, rank)

    monkeypatch.setattr(EventQueue, "push", counting_push)
    result = simulate(trace, technique="baseline", engine="precise-scalar")
    assert sum(kinds.values()) == (len(trace.records) + 3 * result.requests
                                   + result.proc_accesses + result.wakes)
    assert kinds[precise._EV_CHIP_READY] == result.wakes
    assert result.metrics.transitions["nap->powerdown"] > 0
