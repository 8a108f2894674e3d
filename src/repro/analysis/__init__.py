"""Analysis helpers: sweeps, reports, timelines and table rendering.

:func:`sweep_cp_limit` is the one technique-vs-baseline comparison: it
runs every point against one shared baseline through
:func:`repro.exec.run_many`. Savings, breakdown fractions and the
utilization factor are read off each
:class:`~repro.sim.results.SimulationResult`
(``energy_savings_vs``, ``energy.fractions()``, ``utilization_factor``).
"""

from repro.analysis.sweep import SweepPoint, sweep_cp_limit, sweep_errors
from repro.analysis.tables import format_table, format_series, format_breakdown
from repro.analysis.charts import bar_chart, line_chart, savings_chart
from repro.analysis.timeline import (activity_share, busy_intervals,
                                     render_heatmap)

__all__ = [
    "bar_chart",
    "line_chart",
    "savings_chart",
    "render_heatmap",
    "activity_share",
    "busy_intervals",
    "SweepPoint",
    "sweep_cp_limit",
    "sweep_errors",
    "format_table",
    "format_series",
    "format_breakdown",
]
