"""FluidChip.observe's cache against a fresh walk of the idle profile.

``observe`` reuses the energy total and the idle walk's bucket prefix
until the chip's accrual state changes. This test drives chips through
seeded random sequences of ``advance`` / ``wake`` / ``set_busy`` /
``set_idle`` / ``observe`` calls and checks every observed float against
:func:`reference_observe`, which walks the whole profile on every call,
in the order :meth:`FluidChip._accrue_idle` accrues it. It also checks
that ``observe`` changes nothing. Seeded ``random.Random``, not
Hypothesis: the draws are the same on every run.
"""

import math
import random

import pytest

from repro.energy.accounting import BUCKET_INDEX, bucket_values
from repro.energy.policies import AlwaysOnPolicy, default_dynamic_policy
from repro.energy.rdram import rdram_1600_model
from repro.memory.chip import ChipRates, FluidChip

SEEDS = range(6)
STEPS = 1500


def reference_observe(chip, now):
    """The chip block at ``now`` by a fresh walk (no cache)."""
    buckets = list(bucket_values(chip.time))
    if now <= chip._time:
        if chip._busy or now < chip._time:
            power = chip.model.active_power
        else:
            power = chip._segment_at(now - chip._idle_since).power_watts
        return [chip.energy.total, power, *buckets]
    delta = now - chip._time
    if chip._busy:
        rates = chip.rates
        idle_fraction = max(0.0, 1.0 - min(1.0, rates.busy_fraction))
        buckets[BUCKET_INDEX["serving_dma"]] += delta * rates.dma
        buckets[BUCKET_INDEX["serving_proc"]] += delta * rates.proc
        buckets[BUCKET_INDEX["migration"]] += delta * rates.migration
        idle_bucket = ("idle_dma" if chip._has_dma_stream
                       else "idle_threshold")
        buckets[BUCKET_INDEX[idle_bucket]] += delta * idle_fraction
        return [chip.energy.total, chip.model.active_power, *buckets]
    offset_start = chip._time - chip._idle_since
    offset_end = now - chip._idle_since
    for segment in chip._profile:
        lo = max(segment.start, offset_start)
        hi = min(segment.end, offset_end)
        if hi <= lo:
            continue
        buckets[BUCKET_INDEX[segment.bucket]] += hi - lo
        if segment.end >= offset_end:
            break
    return [chip.energy.total, chip._segment_at(offset_end).power_watts,
            *buckets]


def segment_end_time(chip, rng, now):
    """A time at or after ``now`` whose profile offset is exactly a
    finite segment end, or ``None`` if none lies ahead."""
    ends = [s.end for s in chip._profile
            if math.isfinite(s.end) and chip._idle_since + s.end >= now]
    if not ends:
        return None
    end = rng.choice(ends)
    near = chip._idle_since + end
    for candidate in (near, math.nextafter(near, -math.inf),
                      math.nextafter(near, math.inf)):
        if candidate >= now and candidate - chip._idle_since == end:
            return candidate
    return None


class Driver:
    """Random calls on one chip, checking each observe."""

    def __init__(self, chip, rng):
        self.chip = chip
        self.rng = rng
        self.now = 0.0
        self.hits = {"wake_window": 0, "reused": 0}

    def step_time(self):
        chip, rng = self.chip, self.rng
        if self.now < chip._time and rng.random() < 0.5:
            # Somewhere inside the wake window.
            self.now = rng.uniform(self.now, chip._time)
            return
        scale = rng.choice((0.0, 2.0, 30.0, 300.0, 30000.0))
        self.now += rng.uniform(0.0, scale)

    def observe(self):
        chip, now = self.chip, self.now
        before = (bucket_values(chip.time), bucket_values(chip.energy),
                  chip._time)
        walk = chip._walk
        expected = reference_observe(chip, now)
        block = chip.observe(now)
        assert block == expected, (now, block, expected)
        assert (bucket_values(chip.time), bucket_values(chip.energy),
                chip._time) == before
        if walk is not None and chip._walk is walk:
            self.hits["reused"] += 1
        if now < chip._time and not chip._busy:
            self.hits["wake_window"] += 1

    def burst(self):
        """Several observes a few cycles apart: one segment, mostly."""
        for _ in range(self.rng.randint(2, 6)):
            self.observe()
            self.now += self.rng.uniform(0.0, 1.5)

    def edge(self):
        """Observe exactly at a segment end ahead, then just past it."""
        exact = segment_end_time(self.chip, self.rng, self.now)
        if exact is not None:
            self.now = exact
            self.observe()
            self.now = math.nextafter(exact, math.inf)
            self.observe()

    def rates(self):
        rng = self.rng
        return ChipRates(dma=rng.choice((0.0, rng.uniform(0.0, 0.6))),
                         proc=rng.choice((0.0, rng.uniform(0.0, 0.5))),
                         migration=rng.choice((0.0, rng.uniform(0.0, 0.3))))

    def maybe_observe(self):
        if self.rng.random() < 0.5:
            self.observe()

    def step(self):
        chip, rng, now = self.chip, self.rng, self.now
        op = rng.choice(("observe", "burst", "edge", "advance", "wake",
                         "busy", "idle"))
        if op == "observe":
            self.observe()
        elif op == "burst":
            self.burst()
        elif op == "edge":
            self.edge()
        else:
            # Observe between the calls made at one time, as a probe
            # tick may, so that each call can meet a warm cache. wake
            # needs an advance first; set_busy and set_idle do not.
            self.maybe_observe()
            if op in ("advance", "wake") or rng.random() < 0.5:
                chip.advance(now)
                self.maybe_observe()
            if op == "wake":
                chip.wake(now)
            elif op == "busy":
                chip.set_busy(now, rng.random() < 0.5, self.rates())
            elif op == "idle":
                chip.set_idle(now)
        self.step_time()


POLICIES = {
    "rdram-dynamic": default_dynamic_policy,
    "always-on": lambda model: AlwaysOnPolicy(),
}


@pytest.mark.parametrize("start_asleep", (True, False),
                         ids=("asleep", "awake"))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_observe_matches_a_fresh_walk(policy, start_asleep):
    model = rdram_1600_model()
    totals = {"wake_window": 0, "reused": 0}
    for seed in SEEDS:
        chip = FluidChip(0, model, POLICIES[policy](model),
                         start_asleep=start_asleep)
        driver = Driver(chip, random.Random(seed))
        for _ in range(STEPS):
            driver.step()
        for name, count in driver.hits.items():
            totals[name] += count
    # The draws reached the cases the cache must get right. An
    # always-on chip never waits to wake.
    assert totals["reused"] > 100
    if policy == "rdram-dynamic":
        assert totals["wake_window"] > 0


def test_observe_on_and_around_every_segment_end():
    """An offset exactly on a segment's end closes that segment's span
    and reads the next segment's power. A fresh awake chip's offsets
    are its times, so every end can be hit exactly; the chip accrues
    part way between ends, as the engine's change-points do."""
    model = rdram_1600_model()
    chip = FluidChip(0, model, default_dynamic_policy(model),
                     start_asleep=False)
    ends = [s.end for s in chip._profile if math.isfinite(s.end)]
    assert len(ends) >= 5
    for end, following in zip(ends, ends[1:] + [2 * ends[-1]]):
        for now in (math.nextafter(end, -math.inf), end,
                    math.nextafter(end, math.inf)):
            assert chip.observe(now) == reference_observe(chip, now)
        chip.advance((end + following) / 2)


def test_reference_agrees_with_accrual():
    """The reference walk is the accrual: observing, then advancing to
    the same time, gives the same residency."""
    model = rdram_1600_model()
    chip = FluidChip(0, model, default_dynamic_policy(model),
                     start_asleep=False)
    for now in (5.0, 25.0, 80.0, 150.0, 4000.0):
        expected = reference_observe(chip, now)
        chip.advance(now)
        assert list(bucket_values(chip.time)) == expected[2:]
