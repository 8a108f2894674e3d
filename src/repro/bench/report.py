"""Self-contained HTML bench report with per-figure trajectory sparklines.

``repro bench report`` renders the committed trajectories — optionally
with the current ``benchmarks/results/*.json`` run appended as the last
point — into one dependency-free HTML file: a section per figure with
the latest record's metrics (value, paper-expected, deviation), the
wall-clock and fidelity trajectories as inline-SVG sparklines, and the
summed wall-clock ledger of the simulations the run computed.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.bench.record import BenchRecord

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2em auto; max-width: 62em; color: #1a1a2e;
       background: #fafafa; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em;
     border-bottom: 1px solid #d8d8e0; padding-bottom: .25em; }
table { border-collapse: collapse; font-size: .85em; margin: .75em 0; }
th, td { border: 1px solid #d8d8e0; padding: .3em .6em;
         text-align: right; }
th { background: #eef0f6; } td:first-child, th:first-child
{ text-align: left; }
.spark { vertical-align: middle; margin-right: 1.5em; }
.spark-label { font-size: .8em; color: #555; margin-right: .35em; }
.dev-bad { color: #b3261e; } .dev-ok { color: #1b6e3c; }
.meta { color: #666; font-size: .8em; }
.quick { background: #fde293; color: #5f4b00; border-radius: .6em;
         padding: .1em .55em; font-size: .65em; vertical-align: middle;
         margin-left: .5em; }
footer { margin-top: 3em; color: #888; font-size: .75em; }
"""


def sparkline(values: Sequence[float], width: int = 140,
              height: int = 32, stroke: str = "#3f51b5") -> str:
    """One series as an inline SVG polyline (empty string if < 1 point)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    pad = 3
    if len(values) == 1:
        xs = [width / 2.0]
    else:
        step = (width - 2 * pad) / (len(values) - 1)
        xs = [pad + i * step for i in range(len(values))]
    if hi == lo:
        # Zero-variance series (single run, or every run identical):
        # a flat midline marker, not points pinned to the bottom edge.
        ys = [height / 2.0] * len(values)
    else:
        span = hi - lo
        ys = [height - pad - (v - lo) / span * (height - 2 * pad)
              for v in values]
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    last = (f'<circle cx="{xs[-1]:.1f}" cy="{ys[-1]:.1f}" r="2.5" '
            f'fill="{stroke}"/>')
    return (f'<svg class="spark" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" role="img">'
            f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5" '
            f'points="{points}"/>{last}</svg>')


def _metric_rows(record: BenchRecord) -> str:
    rows = []
    for metric in record.metrics:
        deviation = metric.deviation
        if deviation is None:
            expected = deviation_cell = "&mdash;"
        else:
            expected = f"{metric.expected:.4g}"
            css = "dev-bad" if abs(deviation) > 0.10 else "dev-ok"
            deviation_cell = f'<span class="{css}">{deviation:+.1%}</span>'
        rows.append(
            f"<tr><td>{html.escape(metric.name)}</td>"
            f"<td>{metric.value:.4g}</td>"
            f"<td>{html.escape(metric.unit) or '&mdash;'}</td>"
            f"<td>{expected}</td><td>{deviation_cell}</td></tr>")
    return "\n".join(rows)


def _wall_rows(record: BenchRecord) -> str:
    parts = {phase: seconds for phase, seconds in record.wall.items()
             if phase != "runs"}
    total = sum(parts.values())
    if not total:
        return ""
    rows = "\n".join(
        f"<tr><td>{html.escape(phase)}</td><td>{seconds:.3f}</td>"
        f"<td>{seconds / total:.1%}</td></tr>"
        for phase, seconds in parts.items())
    runs = int(record.wall.get("runs", 0))
    return (f"<h3>wall-clock ledger ({runs} computed run(s), "
            f"{total:.3f} s)</h3>"
            "<table><tr><th>phase</th><th>s</th><th>share</th></tr>"
            f"{rows}</table>")


def _figure_section(figure: str, runs: Sequence[BenchRecord]) -> str:
    by_name: dict[str, list[BenchRecord]] = {}
    for run in runs:
        by_name.setdefault(run.name, []).append(run)
    parts = [f"<h2>{html.escape(figure)}</h2>"]
    for name, history in sorted(by_name.items()):
        latest = history[-1]
        walls = [r.wall_s for r in history if r.phases]
        devs = [r.fidelity().get("max_abs_deviation") for r in history]
        devs = [d for d in devs if d is not None]
        meta = ", ".join(f"{k}={v}" for k, v in sorted(latest.meta.items())
                         if k in ("bench_ms", "jobs", "repro", "python"))
        # --quick smoke records are visibly badged: short traces deviate
        # on some figures and must not be read as fidelity regressions.
        badge = ('<span class="quick" title="short-trace smoke run '
                 '(repro bench run --quick); not fidelity-comparable to '
                 'full-length records">quick run</span>'
                 if latest.is_quick else "")
        quick_count = sum(1 for r in history if r.is_quick)
        quick_note = (f"; {quick_count} quick run(s) in trajectory"
                      if quick_count else "")
        parts.append(
            f"<h3>{html.escape(name)}{badge}</h3>"
            f'<p class="meta">{len(history)} run(s); latest '
            f"{html.escape(latest.created) or 'undated'}"
            f"{'; ' + html.escape(meta) if meta else ''}"
            f"{quick_note}</p>")
        spark_bits = []
        if walls:
            spark_bits.append(
                f'<span class="spark-label">wall '
                f"{walls[-1]:.2f}s</span>{sparkline(walls)}")
        if devs:
            spark_bits.append(
                f'<span class="spark-label">max |deviation| '
                f"{devs[-1]:.1%}</span>"
                f"{sparkline(devs, stroke='#b3261e')}")
        if spark_bits:
            parts.append(f"<p>{''.join(spark_bits)}</p>")
        parts.append(
            "<table><tr><th>metric</th><th>value</th><th>unit</th>"
            "<th>paper</th><th>deviation</th></tr>"
            f"{_metric_rows(latest)}</table>")
        if latest.cache:
            cache = ", ".join(f"{k}: {v}"
                              for k, v in sorted(latest.cache.items()))
            parts.append(f'<p class="meta">cache &mdash; '
                         f"{html.escape(cache)}</p>")
        parts.append(_wall_rows(latest))
    return "\n".join(parts)


def render_report(trajectories: Mapping[str, Sequence[BenchRecord]],
                  title: str = "repro bench report") -> str:
    """The full report as one self-contained HTML document."""
    sections = [
        _figure_section(figure, runs)
        for figure, runs in sorted(trajectories.items()) if runs
    ]
    total_runs = sum(len(runs) for runs in trajectories.values())
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f'<p class="meta">{len(sections)} figure(s), '
        f"{total_runs} recorded run(s). Sparklines are oldest &rarr; "
        "newest; the red series is the worst deviation from the paper's "
        "published numbers.</p>"
        + "\n".join(sections)
        + "<footer>generated by <code>repro bench report</code></footer>"
        "</body></html>\n")


def write_report(trajectories: Mapping[str, Sequence[BenchRecord]],
                 path: str | Path,
                 title: str = "repro bench report") -> Path:
    """Render and write the report; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(trajectories, title=title),
                    encoding="utf-8")
    return path


def merge_current(trajectories: Mapping[str, list[BenchRecord]],
                  current: Iterable[BenchRecord]) -> dict[str, list[BenchRecord]]:
    """Trajectories with the current run appended as the newest point."""
    merged: dict[str, list[BenchRecord]] = {
        figure: list(runs) for figure, runs in trajectories.items()}
    for record in current:
        merged.setdefault(record.figure, []).append(record)
    return merged


__all__ = ["sparkline", "render_report", "write_report", "merge_current"]
