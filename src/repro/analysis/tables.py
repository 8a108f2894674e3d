"""Plain-text renderers for the bench output (tables and breakdowns)."""

from __future__ import annotations

from typing import Sequence

from repro.energy.accounting import BUCKETS
from repro.sim.results import SimulationResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render a fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_breakdown(results: Sequence[SimulationResult],
                     labels: Sequence[str] | None = None,
                     title: str = "Energy breakdown") -> str:
    """Render energy-breakdown fractions side by side (Figure 2b / 6)."""
    labels = list(labels) if labels else [r.technique for r in results]
    headers = ["bucket"] + labels
    rows = []
    for bucket in BUCKETS:
        row: list[object] = [bucket]
        for result in results:
            share = result.energy.fractions().get(bucket, 0.0)
            row.append(f"{share * 100:5.1f}%")
        rows.append(row)
    totals: list[object] = ["total mJ"]
    for result in results:
        totals.append(f"{result.energy_joules * 1e3:.3f}")
    rows.append(totals)
    return format_table(headers, rows, title=title)
