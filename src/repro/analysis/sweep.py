"""Parameter-sweep harness used by the figure benches.

Sweeps are executed through :mod:`repro.exec`: every point is one
:class:`~repro.exec.jobs.SimJob`, the baseline is a single shared job
however many points reference it, and callers opt into process-pool
fan-out (``max_workers``) and the on-disk result cache (``cache``)
without changing the shape of the results. A failing point is contained:
it comes back as a :class:`SweepPoint` with ``error`` set while every
other point completes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SimulationConfig
from repro.exec.cache import ResultCache
from repro.exec.jobs import SimJob
from repro.exec.runner import run_many
from repro.obs.audit import audit_result, audit_summary
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace


@dataclass(frozen=True)
class SweepPoint:
    """One point of a technique-vs-baseline sweep.

    Attributes:
        x: the sweep variable (CP-Limit, transfer rate, ratio, ...).
        technique: the technique name.
        savings: fractional energy savings over the shared baseline
            (``nan`` if this point or the baseline failed).
        result: the full technique run (``None`` if it failed).
        baseline: the shared baseline run (``None`` if it failed).
        error: ``None``, or a one-line description of why this point has
            no result.
        wall_s: wall-clock seconds the worker spent computing this
            point's run (0.0 for cache hits and deduplicated points).
        audit: one-line audit findings from
            :func:`repro.obs.audit.audit_result` on this point's result
            (empty when the result passed or the point failed).
    """

    x: float
    technique: str
    savings: float
    result: SimulationResult | None
    baseline: SimulationResult | None
    error: str | None = None
    wall_s: float = 0.0
    audit: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


def sweep_errors(points: list[SweepPoint]) -> str:
    """A human-readable summary of the failed points ('' if none)."""
    failed = [p for p in points if not p.ok]
    if not failed:
        return ""
    lines = [f"{len(failed)}/{len(points)} sweep points failed:"]
    lines += [f"  x={p.x:g} {p.technique}: {p.error}" for p in failed]
    return "\n".join(lines)


def sweep_cp_limit(trace: Trace, cp_limits: list[float],
                   techniques: list[str],
                   config: SimulationConfig | None = None,
                   engine: str = "fluid",
                   max_workers: int = 1,
                   cache: ResultCache | None = None,
                   timeout_s: float | None = None,
                   fleet=None) -> list[SweepPoint]:
    """The Figure 5/7 sweep: savings and uf as CP-Limit varies.

    The baseline run is shared across all points (it has no performance
    guarantee, exactly as in the paper: "our techniques' results are
    always compared to the same baseline result"). It is the one
    technique-vs-baseline comparison path: ``repro sweep``, ``repro
    compare``, ``repro report`` and ``repro bench explain`` all take
    their points from it.

    Args:
        max_workers: fan the points out over this many worker processes
            (1 = serial; results are identical either way).
        cache: optional on-disk result cache (warm sweeps are free).
        timeout_s: per-point timeout under pool execution.
        fleet: optional :class:`~repro.obs.fleet.FleetCollector` for
            cross-process sweep observability (live dashboard, merged
            fleet trace, stalled-worker watchdog).

    Returns:
        Points in ``for cp in cp_limits: for technique in techniques``
        order. A point whose run failed carries ``error`` (and ``nan``
        savings) while the rest of the sweep completes.
    """
    baseline_job = SimJob(trace, "baseline", config=config, engine=engine,
                          tag="baseline")
    point_jobs = [
        SimJob(trace, technique, config=config, engine=engine, cp_limit=cp,
               tag=f"cp={cp:g}:{technique}")
        for cp in cp_limits for technique in techniques
    ]
    outcomes = run_many([baseline_job] + point_jobs,
                        max_workers=max_workers, cache=cache,
                        timeout_s=timeout_s, fleet=fleet)
    base, point_outcomes = outcomes[0], outcomes[1:]
    baseline = base.result

    points: list[SweepPoint] = []
    index = 0
    for cp in cp_limits:
        for technique in techniques:
            outcome = point_outcomes[index]
            index += 1
            error = outcome.error
            if error is None and base.error is not None:
                error = f"baseline failed: {base.error}"
            savings = float("nan")
            if error is None and outcome.result is not None \
                    and baseline is not None and baseline.energy_joules > 0:
                savings = outcome.result.energy_savings_vs(baseline)
            audit: tuple[str, ...] = ()
            if error is None and outcome.result is not None:
                audit = audit_summary(audit_result(outcome.result))
            points.append(SweepPoint(
                x=cp, technique=technique, savings=savings,
                result=outcome.result, baseline=baseline, error=error,
                wall_s=outcome.wall_s, audit=audit))
    return points
