"""Self-contained HTML pages for the dashboards (:mod:`repro.obs.serve`).

Pure render functions. Every dashboard's ``/`` is one page shell,
:func:`render_shell`: a heading, the endpoint list, and either static
preformatted panels (``repro diff --serve``) or a live ``#panels``
fragment (``repro watch``, ``repro sweep --watch``). The live fragment
is rebuilt server-side on every poll, reusing the bench report's
inline-SVG sparkline machinery, so the page needs no JS framework and
no external assets: a tiny inline script swaps the fragment every
refresh and mirrors the SSE feed into a log.
"""

from __future__ import annotations

import html
import json
from typing import Mapping, Sequence

from repro.bench.report import sparkline
from repro.obs.telemetry import TelemetryAnomaly, TelemetrySnapshot

#: (column, title, stroke) for the run-wide scalar panels, in page order.
SCALAR_PANELS = (
    ("power_w", "Total power draw (W)", "#b3261e"),
    ("slack_balance", "Slack account balance (cycles)", "#1b6e3c"),
    ("slack_pending", "Pending (buffered) transfers", "#7a5b00"),
    ("migrations", "Cumulative PL page moves", "#3f51b5"),
    ("migration_waves", "Migration waves", "#6a1b9a"),
    ("degradation_cycles", "Degradation to date (cycles)", "#b3261e"),
    ("requests", "Arrived DMA-memory requests", "#00695c"),
)

#: Max points fed to one sparkline (decimated deterministically).
MAX_POINTS = 240


def decimate(values: list[float], limit: int = MAX_POINTS) -> list[float]:
    """Every k-th point so a long series stays readable (keeps the last)."""
    if len(values) <= limit:
        return values
    step = -(-len(values) // limit)  # ceil
    sampled = values[::step]
    if sampled[-1] != values[-1]:
        sampled.append(values[-1])
    return sampled


def _panel(title: str, values: list[float], stroke: str) -> str:
    latest = f"{values[-1]:,.3g}" if values else "&mdash;"
    svg = sparkline(decimate(values), width=260, height=56, stroke=stroke)
    return (f'<div class="panel"><h3>{html.escape(title)}</h3>'
            f'<div class="latest">{latest}</div>{svg}</div>')


def low_power_share(snapshot: TelemetrySnapshot) -> list[float]:
    """Fraction of all chip-cycles to date spent in low-power modes."""
    low = [name for name in snapshot.columns
           if name.startswith("chip") and name.endswith(".low_power")]
    if not low or not len(snapshot):
        return []
    ts = snapshot.column("ts")
    total = sum(snapshot.column(name) for name in low)
    out = []
    for t, cycles in zip(ts, total):
        denom = t * len(low)
        out.append(float(cycles / denom) if denom > 0 else 0.0)
    return out


def render_panels(snapshot: TelemetrySnapshot,
                  anomalies: list[TelemetryAnomaly]) -> str:
    """The auto-refreshed ``#panels`` fragment."""
    parts = ['<div id="panels">']
    if len(snapshot):
        ts = snapshot.column("ts")
        parts.append(
            f'<p class="meta">{snapshot.ticks} samples '
            f'({len(snapshot)} retained, stride {snapshot.stride}) '
            f'&middot; sim clock {ts[-1]:,.0f} cycles</p>')
    else:
        parts.append('<p class="meta">waiting for the first sample&hellip;'
                     '</p>')
    parts.append('<div class="grid">')
    for column, title, stroke in SCALAR_PANELS:
        if column not in snapshot.columns:
            continue
        values = (list(snapshot.column(column)) if len(snapshot) else [])
        parts.append(_panel(title, values, stroke))
    parts.append(_panel("Low-power residency share",
                        low_power_share(snapshot), "#1b6e3c"))
    bus_cols = [name for name in snapshot.columns
                if name.endswith(".queue_depth")]
    for name in bus_cols:
        values = (list(snapshot.column(name)) if len(snapshot) else [])
        parts.append(_panel(f"Bus {name[3:name.index('.')]} queue depth",
                            values, "#555"))
    parts.append('</div>')
    if anomalies:
        parts.append(f'<h3 class="alarm">Anomalies ({len(anomalies)})</h3>'
                     '<ul class="anomalies">')
        for anomaly in anomalies[-20:]:
            parts.append(
                f'<li><code>{html.escape(anomaly.kind)}</code> '
                f'@ {anomaly.ts:,.0f}: {html.escape(anomaly.message)}</li>')
        parts.append('</ul>')
    parts.append('</div>')
    return "".join(parts)


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "&mdash;"
    if seconds >= 90:
        return f"{seconds / 60:.1f} min"
    return f"{seconds:.0f} s"


def render_fleet_panels(snapshot: dict) -> str:
    """The auto-refreshed ``#panels`` fragment of the fleet dashboard.

    ``snapshot`` is :meth:`~repro.obs.fleet.FleetCollector.snapshot`:
    sweep totals, throughput, per-worker rows, stragglers, and stalls.
    """
    done, total = snapshot.get("done", 0), snapshot.get("total", 0)
    finished = snapshot.get("finished", False)
    parts = ['<div id="panels">']
    state = "finished" if finished else "running"
    parts.append(
        f'<p class="meta">{state} &middot; {done}/{total} jobs &middot; '
        f'elapsed {snapshot.get("elapsed_s", 0.0):.1f}s &middot; '
        f'ETA {_fmt_eta(snapshot.get("eta_s"))} &middot; '
        f'stall bound {snapshot.get("stall_bound_s", 0.0):.0f}s</p>')
    parts.append('<div class="grid">')
    cells = (
        ("Jobs done", f"{done} / {total}"),
        ("Running", f'{snapshot.get("running", 0)}'),
        ("Jobs / s", f'{snapshot.get("jobs_per_s", 0.0):.2f}'),
        ("Cache hit rate", f'{snapshot.get("cache_hit_rate", 0.0):.0%}'),
        ("Failed", f'{snapshot.get("failed", 0)}'),
        ("Audit violations", f'{snapshot.get("violations", 0)}'),
        ("Stalls", f'{len(snapshot.get("stalls", []))}'),
    )
    for title, value in cells:
        parts.append(f'<div class="panel"><h3>{html.escape(title)}</h3>'
                     f'<div class="latest">{value}</div></div>')
    parts.append('</div>')

    workers = snapshot.get("workers", [])
    parts.append('<h3>Workers</h3><table class="fleet">'
                 '<tr><th>slot</th><th>pid</th><th>state</th>'
                 '<th>jobs done</th><th>busy (s)</th><th>current job</th>'
                 '<th>idle (s)</th></tr>')
    for row in workers:
        cls = ' class="alarm"' if row.get("state") == "stalled" else ""
        label = "serial (parent)" if row.get("slot") == 0 \
            else f'worker {row.get("slot")}'
        parts.append(
            f'<tr{cls}><td>{html.escape(label)}</td>'
            f'<td>{row.get("pid", "")}</td>'
            f'<td>{html.escape(str(row.get("state", "")))}</td>'
            f'<td>{row.get("jobs_done", 0)}</td>'
            f'<td>{row.get("wall_s", 0.0):.2f}</td>'
            f'<td>{html.escape(str(row.get("busy_tag") or ""))}</td>'
            f'<td>{row.get("idle_s", 0.0):.1f}</td></tr>')
    if not workers:
        parts.append('<tr><td colspan="7" class="meta">no workers seen '
                     'yet</td></tr>')
    parts.append('</table>')

    stragglers = snapshot.get("stragglers", [])
    if stragglers:
        parts.append('<h3>Stragglers</h3><table class="fleet">'
                     '<tr><th>job</th><th>worker</th>'
                     '<th>running (s)</th></tr>')
        for row in stragglers:
            parts.append(
                f'<tr><td>{html.escape(str(row.get("tag") or row.get("key", "")))}</td>'
                f'<td>{row.get("worker", "?")}</td>'
                f'<td>{row.get("running_s", 0.0):.1f}</td></tr>')
        parts.append('</table>')

    stalls = snapshot.get("stalls", [])
    if stalls:
        parts.append(f'<h3 class="alarm">Stalls ({len(stalls)})</h3>'
                     '<ul class="anomalies">')
        for stall in stalls[-20:]:
            parts.append(
                f'<li>{html.escape(str(stall.get("diagnosis", "")))}</li>')
        parts.append('</ul>')
    parts.append('</div>')
    return "".join(parts)


_CSS = """
body { font-family: system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1f1f1f; }
h1 { font-size: 1.3em; } h3 { font-size: .85em; margin: 0 0 .2em; }
.grid { display: flex; flex-wrap: wrap; gap: 1em; }
.panel { border: 1px solid #ddd; border-radius: .5em; padding: .7em 1em;
         min-width: 17em; }
.latest { font-size: 1.2em; font-variant-numeric: tabular-nums; }
.meta { color: #666; font-size: .8em; }
.alarm { color: #b3261e; }
.anomalies { font-size: .85em; }
.spark { vertical-align: middle; }
#log { font-family: monospace; font-size: .75em; color: #555;
       white-space: pre-wrap; max-height: 10em; overflow-y: auto; }
footer { margin-top: 3em; color: #888; font-size: .75em; }
pre { background: #f6f6f6; padding: 1em; overflow-x: auto; }
table.fleet { border-collapse: collapse; font-size: .85em; }
table.fleet th, table.fleet td { border: 1px solid #ddd;
       padding: .25em .6em; text-align: left;
       font-variant-numeric: tabular-nums; }
"""


def render_shell(command: str, title: str, endpoints: Sequence[str], *,
                 refresh_ms: int = 1000,
                 log_lines: Mapping[str, str] | None = None,
                 panels: Sequence[tuple[str, str]] = ()) -> str:
    """The page every dashboard serves at ``/``.

    ``command`` and ``title`` head the page and ``endpoints`` lists the
    server's other paths in the footer. A static page passes ``panels``,
    (heading, text) pairs shown preformatted. A live page passes
    ``log_lines`` instead, mapping each SSE event kind to the JavaScript
    expression of its log line (``e`` is the event, ``d`` its parsed
    data): it polls ``/panels`` every ``refresh_ms`` and tails
    ``/events``, and both degrade gracefully once the server is gone.
    Every string but the script is HTML-escaped.
    """
    parts = [f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head>
<body>
<h1>{html.escape(command)} &mdash; {html.escape(title)}</h1>
"""]
    for heading, text in panels:
        parts.append(f"<h3>{html.escape(heading)}</h3>\n"
                     f"<pre>{html.escape(text)}</pre>\n")
    if log_lines is not None:
        listeners = "".join(
            f"  source.addEventListener({json.dumps(event)}, (e) => {{\n"
            f"    const d = JSON.parse(e.data);\n"
            f"    append({line});\n"
            f"  }});\n" for event, line in log_lines.items())
        parts.append(f"""<div id="panels"><p class="meta">loading&hellip;</p>
</div>
<h3>Event stream</h3>
<div id="log"></div>
<script>
async function poll() {{
  try {{
    const response = await fetch('/panels');
    if (response.ok) {{
      document.getElementById('panels').outerHTML = await response.text();
    }}
  }} catch (err) {{ /* server gone: run finished */ }}
}}
setInterval(poll, {int(refresh_ms)});
poll();
const log = document.getElementById('log');
try {{
  const source = new EventSource('/events');
  const append = (line) => {{
    log.textContent += line + '\\n';
    log.scrollTop = log.scrollHeight;
  }};
{listeners}}} catch (err) {{ /* no SSE: polling still works */ }}
</script>
""")
    paths = " &middot; ".join(f"<code>{html.escape(path)}</code>"
                              for path in endpoints)
    parts.append(f"<footer>Endpoints: {paths}. See docs/OBSERVABILITY.md."
                 "</footer>\n</body></html>\n")
    return "".join(parts)


def render_page(title: str, refresh_ms: int = 1000) -> str:
    """The ``repro watch`` dashboard served at ``/``; its log tails
    telemetry samples and anomalies."""
    return render_shell(
        "repro watch", title, ("/panels", "/data.json", "/metrics",
                               "/events"),
        refresh_ms=refresh_ms, log_lines={
            "anomaly": "'anomaly ' + e.data",
            "sample": "'sample ts=' + d.ts.toFixed(0) + ' power=' + "
                      "d.power_w.toFixed(2) + 'W'",
        })


def render_fleet_page(title: str, refresh_ms: int = 1000) -> str:
    """The ``repro sweep --watch`` dashboard served at ``/``; its log
    tails fleet snapshots and ``fleet.stall`` diagnoses."""
    return render_shell(
        "repro sweep", title, ("/panels", "/fleet.json", "/events"),
        refresh_ms=refresh_ms, log_lines={
            "stall": "'stall ' + e.data",
            "fleet": "'fleet ' + d.done + '/' + d.total + ' jobs, ' + "
                     "d.jobs_per_s.toFixed(2) + ' jobs/s'",
        })


__all__ = ["SCALAR_PANELS", "MAX_POINTS", "decimate", "low_power_share",
           "render_panels", "render_shell", "render_page",
           "render_fleet_panels", "render_fleet_page"]
