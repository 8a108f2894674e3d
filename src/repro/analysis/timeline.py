"""Chip-activity timelines: busy intervals and text-heatmap rendering.

A traced run's chips already say when they were busy: each fluid chip
emits an ``active`` span per busy slice, with the cycles it served per
bucket, and each precise chip a ``serve`` span per request.
:func:`busy_intervals` turns the chip spans a
:class:`~repro.obs.tracer.RingTracer` recorded into per-chip
``(start, end, serving_fraction)`` intervals. The heatmap renders one
character row per chip over the simulated horizon — a direct visual of
what the techniques do: the baseline's traffic speckles every row; after
PL, one or two hot rows darken while the rest go blank, and under DMA-TA
the speckles fuse into short dense bursts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.obs.events import TRACK_CHIP, Event

#: Shade ramp from idle to fully utilised.
SHADES = " .:-=+*#"

Interval = tuple[float, float, float]


def busy_intervals(events: Iterable[Event]) -> dict[int, list[Interval]]:
    """Each chip's busy intervals, from a traced run's chip spans.

    Every chip with a span gets an entry. A fluid ``active`` span's
    serving fraction is the cycles its DMA, processor and migration
    buckets served over its length; a precise ``serve`` span is one
    request served at full rate.
    """
    prefix = f"{TRACK_CHIP}:"
    timelines: dict[int, list[Interval]] = {}
    for event in events:
        if not event.track.startswith(prefix):
            continue
        intervals = timelines.setdefault(int(event.track[len(prefix):]), [])
        if event.name == "serve":
            intervals.append((event.ts, event.ts + event.dur, 1.0))
        elif event.name == "active":
            args = event.args
            served = (args["serving_dma"] + args["serving_proc"]
                      + args["migration"])
            intervals.append((event.ts, event.ts + event.dur,
                              min(1.0, served / event.dur)))
    return timelines


def bucketize(intervals: Sequence[Interval], start: float, end: float,
              buckets: int) -> list[float]:
    """Mean busy fraction of each of ``buckets`` equal time windows."""
    if buckets <= 0:
        raise ConfigurationError("buckets must be positive")
    if end <= start:
        raise ConfigurationError("end must exceed start")
    width = (end - start) / buckets
    load = [0.0] * buckets
    for t0, t1, fraction in intervals:
        lo = max(t0, start)
        hi = min(t1, end)
        if hi <= lo:
            continue
        first = int((lo - start) / width)
        last = min(buckets - 1, int((hi - start) / width))
        for index in range(first, last + 1):
            b0 = start + index * width
            b1 = b0 + width
            overlap = min(hi, b1) - max(lo, b0)
            if overlap > 0:
                load[index] += overlap * fraction / width
    return [min(1.0, value) for value in load]


def render_row(intervals: Sequence[Interval], start: float, end: float,
               width: int) -> str:
    """One chip's timeline as a string of shade characters.

    Any non-negligible activity gets at least the lightest visible shade
    — a 7.7-us transfer inside a 140-us bucket is real traffic even if
    its mean load rounds to zero.
    """
    loads = bucketize(intervals, start, end, width)
    top = len(SHADES) - 1
    chars = []
    for value in loads:
        level = round(value * top)
        if value > 1e-3 and level == 0:
            level = 1
        chars.append(SHADES[level])
    return "".join(chars)


def render_heatmap(timelines: dict[int, Sequence[Interval]],
                   duration_cycles: float, width: int = 72,
                   title: str | None = None) -> str:
    """All chips' activity as a labelled text heatmap.

    Args:
        timelines: ``chip_id -> busy intervals`` (see
            :func:`busy_intervals`).
        duration_cycles: the simulated horizon.
        width: characters per row.
    """
    if not timelines:
        return ("(no timeline recorded; build one with busy_intervals() "
                "from a traced run)")
    lines = [title] if title else []
    label_width = len(f"chip {max(timelines)}")
    for chip_id in sorted(timelines):
        row = render_row(timelines[chip_id], 0.0, duration_cycles, width)
        lines.append(f"{f'chip {chip_id}':<{label_width}} |{row}|")
    ms = duration_cycles / 1.6e9 * 1e3
    lines.append(f"{'':<{label_width}}  0 {'-' * max(0, width - 12)} "
                 f"{ms:.1f} ms")
    lines.append(f"shade: '{SHADES}' = idle .. fully serving")
    return "\n".join(lines)


def activity_share(timelines: dict[int, Sequence[Interval]],
                   duration_cycles: float) -> dict[int, float]:
    """Fraction of the horizon each chip spent busy (any load)."""
    shares = {}
    for chip_id, intervals in timelines.items():
        busy = sum(min(t1, duration_cycles) - t0
                   for t0, t1, _ in intervals if t0 < duration_cycles)
        shares[chip_id] = busy / duration_cycles if duration_cycles else 0.0
    return shares
