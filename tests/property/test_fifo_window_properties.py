"""Property: the array-timeline kernel's multi-stream window, solved as a
numpy fixed point, is the window the per-request FIFO loop serves.

``ArrayTimelineKernel._fifo_window`` serves the merged arrivals of two
to four streams first-in first-out: ``e_i = max(a_i, e_{i-1}) + serve``.
It finds the ends by repeated whole-array passes from "no request
waits", and stops, as :func:`loop_window` does one request at a time,
at the first serve that ends at or after the horizon or its own
stream's next arrival, or at a stream's last (cut) element; the window
then ends at the last idle boundary before the stop. Tied arrivals are
served in chain order (the kernel passes its streams in bus order).
Hypothesis draws streams on the paper's geometry (12-cycle bus period,
4-cycle serve) from a quarter-cycle grid, so arrivals tie exactly,
streams land closer than one serve apart, four streams over-load the
chip until one stalls, and horizons cut windows anywhere.
Both must return the same four arrays, or both None. A last case lowers
the pass cap, so the window ends early, at the idle boundary before the
first request still unsettled.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.sim import array_timeline
from repro.sim.array_timeline import MIN_BATCH, ArrayTimelineKernel

GAP, SERVE = 12.0, 4.0


def loop_window(serve, last, chains, horizon):
    """The window served one request at a time (the FIFO loop the
    fixed point replaced)."""
    lengths = [len(c) for c in chains]
    merged = np.concatenate(chains)
    stream_of = np.repeat(np.arange(len(chains)), lengths)
    following = np.concatenate([np.append(c[1:], math.inf)
                                for c in chains])
    order = np.argsort(merged, kind="stable")
    rank = np.empty(len(merged), dtype=int)
    rank[order] = np.arange(len(merged))
    stop = int(rank[np.cumsum(lengths) - 1].min())
    arrivals = merged[order][:stop + 1].tolist()
    following_l = following[order][:stop].tolist()
    begins, ends = [], []
    count = 0
    previous_end = last
    for i in range(stop):
        arrival = arrivals[i]
        begin = arrival if arrival > previous_end else previous_end
        end = begin + serve
        if not (end < horizon and end < following_l[i]):
            break
        begins.append(begin)
        ends.append(end)
        if end < arrivals[i + 1]:
            count = i + 1
        previous_end = end
    if count < MIN_BATCH:
        return None
    return (np.array(arrivals[:count]), np.array(begins[:count]),
            np.array(ends[:count]), stream_of[order][:count])


def fixed_point_window(last, chains, horizon):
    kernel = SimpleNamespace(serve=SERVE)
    return ArrayTimelineKernel._fifo_window(kernel, last, chains, horizon)


def chain(first, length):
    """A stream's arrivals, accumulated as the kernel's chains are."""
    values = np.empty(length)
    values[0] = first
    values[1:] = GAP
    return np.add.accumulate(values)


def assert_same(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None
    for ours, theirs in zip(got, expected):
        assert ours.dtype == theirs.dtype
        assert ours.tolist() == theirs.tolist()


@st.composite
def windows(draw):
    streams = draw(st.integers(2, 4))
    base = draw(st.sampled_from([0.0, 1024.0, 1e6]))
    # Distinct phases within one bus period, one in ten shared (an exact
    # tie), and some streams one or two periods late.
    phases = draw(st.lists(st.integers(0, 47), min_size=streams,
                           max_size=streams, unique=True))
    if draw(st.sampled_from([False] * 9 + [True])):
        phases[1] = phases[0]
    firsts = [base + 0.25 * phase + GAP * draw(st.integers(0, 2))
              for phase in phases]
    chains = [chain(first, draw(st.integers(16, 80))) for first in firsts]
    last = min(firsts) - draw(st.sampled_from([0.25, 4.0, 100.0]))
    span = max(c[-1] for c in chains) - min(firsts)
    horizon = draw(st.one_of(
        st.just(math.inf),
        st.floats(0.25, 1.0).map(lambda x: min(firsts) + x * span),
        st.integers(32, 400).map(lambda k: min(firsts) + 0.5 * k)))
    return last, chains, horizon


@settings(max_examples=300, deadline=None)
@given(windows())
@example((96.0, [chain(100.0, 40), chain(103.0, 40), chain(106.0, 40),
                 chain(109.0, 40)], math.inf))  # over-loaded until a stall
@example((96.0, [chain(100.0, 40), chain(100.0, 40)], math.inf))  # ties
@example((108.0, [chain(100.0, 40), chain(106.0, 40)], math.inf))
# The chip busy past the first arrival: its serve ends just as its
# stream's next request lands, so the stream stalls.
@example((0.0, [chain(100.0, 60), chain(222.0, 60), chain(2.5e2, 60)],
          700.25))  # a late stream, then a horizon cut
def test_fixed_point_matches_loop(window):
    last, chains, horizon = window
    assert_same(fixed_point_window(last, chains, horizon),
                loop_window(SERVE, last, chains, horizon))


def test_pass_cap_ends_at_idle_boundary(monkeypatch):
    """One stream alone, then a second landing two cycles behind it: each
    of its requests waits for one serve, so the window needs two passes.
    With one, it ends at the last idle boundary before the first wait."""
    last, chains = 96.0, [chain(100.0, 60), chain(12 * 10 + 102.0, 40)]
    loop = loop_window(SERVE, last, chains, math.inf)
    assert_same(fixed_point_window(last, chains, math.inf), loop)

    arrivals, begins, ends, _ = loop
    first_wait = int(np.flatnonzero(begins > arrivals)[0])
    count = int(np.flatnonzero(ends[:first_wait - 1]
                               < arrivals[1:first_wait])[-1]) + 1
    assert MIN_BATCH <= count < len(arrivals)
    monkeypatch.setattr(array_timeline, "MAX_PASSES", 1)
    assert_same(fixed_point_window(last, chains, math.inf),
                tuple(values[:count] for values in loop))
