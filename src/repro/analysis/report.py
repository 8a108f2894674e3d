"""One-shot experiment reports.

:func:`build_report` runs the full technique matrix on one trace —
baseline, DMA-TA, PL, DMA-TA-PL at a list of CP-Limits — through
:func:`~repro.analysis.sweep.sweep_cp_limit`, against one shared
baseline, and renders a markdown-ish text report with the energy table,
the savings curves, the breakdown comparison, and the guarantee audit.
It is the programmatic equivalent of reading Figures 5-7 for a single
workload, and what the ``repro report`` CLI command prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import savings_chart
from repro.analysis.sweep import sweep_cp_limit, sweep_errors
from repro.analysis.tables import format_breakdown, format_table
from repro.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.sim.results import SimulationResult
from repro.traces.stats import characterize
from repro.traces.trace import Trace

DEFAULT_CP_LIMITS = (0.02, 0.05, 0.10, 0.20, 0.30)


@dataclass
class ExperimentReport:
    """The runs behind one report, for programmatic consumption."""

    trace: Trace
    baseline: SimulationResult
    by_technique: dict[str, dict[float, SimulationResult]] = field(
        default_factory=dict)

    def savings(self, technique: str) -> dict[float, float]:
        return {
            cp: result.energy_savings_vs(self.baseline)
            for cp, result in self.by_technique.get(technique, {}).items()
        }

    def best(self) -> tuple[str, float, float]:
        """``(technique, cp_limit, savings)`` of the best run."""
        best = ("baseline", 0.0, 0.0)
        for technique, runs in self.by_technique.items():
            for cp, result in runs.items():
                saving = result.energy_savings_vs(self.baseline)
                if saving > best[2]:
                    best = (technique, cp, saving)
        return best


def build_report(trace: Trace, config: SimulationConfig | None = None,
                 cp_limits: tuple[float, ...] = DEFAULT_CP_LIMITS,
                 techniques: tuple[str, ...] = ("dma-ta", "dma-ta-pl"),
                 ) -> ExperimentReport:
    """Run the matrix and return the structured report.

    Raises :class:`~repro.errors.SimulationError` naming every failed
    run: a report is never built from part of its matrix.
    """
    if not cp_limits:
        raise ConfigurationError("need at least one CP-Limit")
    if not techniques:
        raise ConfigurationError("need at least one technique")
    points = sweep_cp_limit(trace, list(cp_limits), list(techniques),
                            config=config)
    failures = sweep_errors(points)
    if failures:
        raise SimulationError(failures)
    report = ExperimentReport(trace=trace, baseline=points[0].baseline)
    for technique in techniques:
        report.by_technique[technique] = {
            point.x: point.result for point in points
            if point.technique == technique}
    return report


def render_report(report: ExperimentReport) -> str:
    """The report as displayable text."""
    trace = report.trace
    stats = characterize(trace)
    parts: list[str] = []

    parts.append(f"# Experiment report: {trace.name}")
    parts.append(format_table(
        ["metric", "value"],
        [
            ["duration", f"{stats.duration_ms:.1f} ms"],
            ["transfers", f"{stats.transfers} "
                          f"({stats.transfers_per_ms:.1f}/ms)"],
            ["processor accesses/ms", f"{stats.proc_accesses_per_ms:.0f}"],
            ["top-20% access share",
             f"{stats.top20_access_fraction:.0%}"],
            ["baseline energy",
             f"{report.baseline.energy_joules * 1e3:.3f} mJ"],
            ["baseline uf", f"{report.baseline.utilization_factor:.3f}"],
        ],
        title="Workload"))

    rows = []
    for technique, runs in report.by_technique.items():
        for cp, result in sorted(runs.items()):
            rows.append([
                technique,
                f"{cp:.0%}",
                f"{result.energy_savings_vs(report.baseline):+.1%}",
                f"{result.client_degradation_vs(report.baseline):+.2%}",
                f"{result.utilization_factor:.3f}",
                "VIOLATED" if result.guarantee_violated else "ok",
            ])
    parts.append(format_table(
        ["technique", "CP-Limit", "savings", "client degradation", "uf",
         "guarantee"],
        rows, title="Technique matrix"))

    for technique in report.by_technique:
        parts.append(savings_chart(
            report.savings(technique),
            title=f"{technique}: savings vs CP-Limit"))

    best_technique, best_cp, best_saving = report.best()
    if best_saving > 0:
        best_run = report.by_technique[best_technique][best_cp]
        parts.append(format_breakdown(
            [report.baseline, best_run],
            labels=["baseline", f"{best_technique}@{best_cp:.0%}"],
            title=f"Best run: {best_technique} at CP-Limit {best_cp:.0%} "
                  f"({best_saving:+.1%})"))

    return "\n\n".join(parts)
