"""A lightweight metrics registry and its serialisable report.

Three instrument kinds, deliberately minimal (no labels, no time
windows — a simulation run is one window):

* :class:`Counter` — a monotonically increasing count.
* :class:`Gauge` — a last-write-wins value.
* :class:`Histogram` — raw-sample distribution with exact percentiles
  (simulation-scale cardinalities make reservoir tricks unnecessary).

A :class:`MetricsRegistry` hands instruments out by name and snapshots
into a :class:`MetricsReport` — a plain-data object that is attached to
:class:`~repro.sim.results.SimulationResult`, pickles cheaply (the
cache stores it), and renders to text for the ``repro stats`` CLI verb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.energy.accounting import BUCKETS


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins sampled value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Raw-sample distribution with exact quantiles."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: list[float] = []

    def record(self, value: float) -> None:
        self._values.append(value)

    def record_many(self, values: list[float]) -> None:
        """Append a batch of samples (the summary is order-insensitive,
        so batched recording is equivalent to repeated :meth:`record`)."""
        self._values.extend(values)

    @property
    def count(self) -> int:
        return len(self._values)

    def summary(self) -> "HistogramSummary":
        return HistogramSummary.from_values(self._values)


@dataclass(frozen=True)
class HistogramSummary:
    """The distribution digest stored on a :class:`MetricsReport`."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    mean: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0

    @classmethod
    def from_values(cls, values: list[float]) -> "HistogramSummary":
        if not values:
            return cls()
        ordered = sorted(values)
        total = math.fsum(ordered)
        return cls(
            count=len(ordered), total=total,
            min=ordered[0], max=ordered[-1],
            mean=total / len(ordered),
            p50=percentile(ordered, 0.50),
            p90=percentile(ordered, 0.90),
            p99=percentile(ordered, 0.99),
        )


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class MetricsRegistry:
    """Named instruments for one run (or one executor invocation)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            instrument = self._histograms[name] = Histogram()
            return instrument

    def report(self,
               chip_residency: dict[int, dict[str, float]] | None = None,
               transitions: dict[str, int] | None = None) -> "MetricsReport":
        """Snapshot every instrument into a plain-data report."""
        return MetricsReport(
            counters={k: c.value for k, c in sorted(self._counters.items())},
            gauges={k: g.value for k, g in sorted(self._gauges.items())},
            histograms={k: h.summary()
                        for k, h in sorted(self._histograms.items())},
            chip_residency=chip_residency or {},
            transitions=transitions or {},
        )


@dataclass
class MetricsReport:
    """Everything one run (or executor batch) measured about itself.

    Attributes:
        counters: name -> value.
        gauges: name -> last value.
        histograms: name -> distribution digest.
        chip_residency: ``chip_id -> {bucket: cycles}`` — the per-chip
            time breakdown (the Figure 2(b) buckets: serving_dma,
            serving_proc, idle_dma, idle_threshold, transition,
            low_power, migration).
        transitions: ``"from->to" -> count`` power-state transitions
            over all chips.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSummary] = field(default_factory=dict)
    chip_residency: dict[int, dict[str, float]] = field(default_factory=dict)
    transitions: dict[str, int] = field(default_factory=dict)

    def residency_shares(self, chip_id: int) -> dict[str, float]:
        """One chip's residency as fractions of its recorded time."""
        buckets = self.chip_residency.get(chip_id, {})
        total = sum(buckets.values())
        if total <= 0:
            return {k: 0.0 for k in buckets}
        return {k: v / total for k, v in buckets.items()}


def render_metrics(report: MetricsReport, title: str | None = None) -> str:
    """A human-readable multi-section dump of a report."""
    lines: list[str] = []
    if title:
        lines.append(title)
    if report.counters:
        lines.append("counters:")
        for name, value in report.counters.items():
            lines.append(f"  {name:<32} {value:g}")
    if report.gauges:
        lines.append("gauges:")
        for name, value in report.gauges.items():
            lines.append(f"  {name:<32} {value:g}")
    if report.histograms:
        lines.append("histograms:")
        for name, digest in report.histograms.items():
            if digest.count == 0:
                lines.append(f"  {name:<32} (empty)")
                continue
            lines.append(
                f"  {name:<32} n={digest.count} mean={digest.mean:.3g} "
                f"p50={digest.p50:.3g} p90={digest.p90:.3g} "
                f"p99={digest.p99:.3g} max={digest.max:.3g}")
    if report.transitions:
        lines.append("power transitions:")
        for edge, count in sorted(report.transitions.items()):
            lines.append(f"  {edge:<32} {count}")
    if report.chip_residency:
        lines.append("per-chip state residency (share of recorded time):")
        header = "  chip " + " ".join(f"{b[:9]:>9}" for b in BUCKETS)
        lines.append(header)
        for chip_id in sorted(report.chip_residency):
            shares = report.residency_shares(chip_id)
            row = " ".join(f"{shares.get(b, 0.0) * 100:8.1f}%"
                           for b in BUCKETS)
            lines.append(f"  {chip_id:>4} {row}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


__all__ = [
    "Counter", "Gauge", "Histogram", "HistogramSummary", "percentile",
    "MetricsRegistry", "MetricsReport", "render_metrics",
]
