"""``repro bench explain``: root-cause one bench metric's movement.

``repro bench compare`` classifies a metric as regressed/deviating but
stops there. This module turns the verdict into an attribution: it
re-runs the flagged figure point under the *candidate* record's
configuration and under the *baseline* record's configuration, diffs
the two runs' per-epoch digest chains
(:func:`repro.obs.diff.diff_runs`), and attributes the metric delta to

* the first divergent epoch and state field (when the two
  configurations share a duration — a true behavioural regression), or
* the truncation horizon (when the candidate is a ``--quick`` record
  compared against a full-length baseline: the short run's chain is a
  prefix of the long run's, so the divergence sits at the run-length
  boundary and the delta is a short-horizon artefact), plus
* the per-bucket energy-fraction shifts between the two runs, ranked by
  magnitude — which residency bucket the energy moved into.

The attribution is attached to the candidate record's JSON (additive
``explain`` block, like ``fleet``) and summarised in one greppable
``bench.explain:`` line. Exit codes mirror ``repro diff``: 2 =
attributed, 0 = nothing to explain (identical), 1 = error.

Only figure points that map back to a (trace, technique, cp_limit)
simulation can be re-run; currently that is the fig 5 savings grid
(``<trace>/<technique>/cp=<cp>`` metric names). Other figures raise a
clear :class:`~repro.errors.DiffError`.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Any

from repro.bench.record import BenchRecord, Metric
from repro.bench.trajectory import (
    load_result_records,
    load_trajectory,
    trajectory_path,
    write_json_atomic,
)
from repro.energy.accounting import BUCKETS
from repro.errors import DiffError, ReproError
from repro.obs.diff import SimRunSpec, diff_runs
from repro.sim.run import simulate
from repro.traces.oltp import oltp_database_trace, oltp_storage_trace
from repro.traces.synthetic import (
    synthetic_database_trace,
    synthetic_storage_trace,
)

#: fig 5 metric-name grammar: ``<trace>/<technique>/cp=<cp>``.
_FIG5_METRIC = re.compile(
    r"^(?P<trace>[^/]+)/(?P<technique>nopm|baseline|dma-ta|pl|dma-ta-pl)"
    r"/cp=(?P<cp>[0-9.eE+-]+)$")

#: The paper's four evaluation traces, as the bench suite builds them
#: (generator defaults; only the duration varies per record).
_TRACE_MAKERS = {
    "OLTP-St": oltp_storage_trace,
    "OLTP-Db": oltp_database_trace,
    "Synthetic-St": synthetic_storage_trace,
    "Synthetic-Db": synthetic_database_trace,
}


def _pick_record(records: list[BenchRecord], figure: str) -> BenchRecord:
    matches = [r for r in records if r.figure == figure]
    if not matches:
        have = sorted({r.figure for r in records})
        raise DiffError(f"no current record for figure {figure!r} "
                        f"(have: {', '.join(have) or 'none'}); run "
                        "`repro bench run` first")
    return matches[-1]


def _pick_metric(record: BenchRecord, metric_name: str | None) -> Metric:
    if metric_name is not None:
        for metric in record.metrics:
            if metric.name == metric_name:
                return metric
        raise DiffError(f"record {record.name} has no metric "
                        f"{metric_name!r}")
    tied = [m for m in record.metrics if m.deviation is not None]
    if not tied:
        raise DiffError(f"record {record.name} has no paper-tied metric; "
                        "name one with --metric")
    return max(tied, key=lambda m: abs(m.deviation))


def _pick_baseline(record: BenchRecord, metric: Metric,
                   root: str | Path) -> BenchRecord | None:
    """The committed run the candidate metric is explained against.

    Prefers the most recent trajectory run of the same record name that
    carries the metric — same ``bench_ms`` first (a true regression),
    else any duration (the quick-vs-full fidelity comparison).
    """
    history = [r for r in load_trajectory(trajectory_path(record.figure,
                                                          root))
               if r.name == record.name
               and any(m.name == metric.name for m in r.metrics)]
    if not history:
        return None
    same_ms = [r for r in history
               if r.bench_ms is not None and record.bench_ms is not None
               and abs(r.bench_ms - record.bench_ms) < 1e-9
               and r.created != record.created]
    return (same_ms or history)[-1]


def _metric_value(record: BenchRecord, name: str) -> float | None:
    for metric in record.metrics:
        if metric.name == name:
            return metric.value
    return None


def _savings_runs(trace_name: str, technique: str, cp: float,
                  bench_ms: float):
    """Re-run one fig 5 grid point: (baseline run, technique run)."""
    maker = _TRACE_MAKERS.get(trace_name)
    if maker is None:
        raise DiffError(f"trace {trace_name!r} is not one of the paper's "
                        f"evaluation traces {tuple(_TRACE_MAKERS)}")
    trace = maker(duration_ms=bench_ms)
    base = simulate(trace, technique="baseline")
    run = simulate(trace, technique=technique, cp_limit=cp)
    return trace, base, run


def explain_figure(figure: str,
                   metric_name: str | None = None,
                   results_dir: str | Path = "benchmarks/results",
                   root: str | Path = ".",
                   write: bool = True) -> tuple[int, dict[str, Any]]:
    """Attribute one figure metric's movement; returns (exit code,
    explain block). The block is attached to the candidate record's
    JSON under ``benchmarks/results/`` unless ``write`` is false.
    """
    records = load_result_records(results_dir)
    record = _pick_record(records, figure)
    metric = _pick_metric(record, metric_name)
    parsed = _FIG5_METRIC.match(metric.name)
    if parsed is None:
        raise DiffError(
            f"metric {metric.name!r} does not map back to a re-runnable "
            "simulation point (supported: fig 5 "
            "'<trace>/<technique>/cp=<cp>' metrics)")
    trace_name = parsed.group("trace")
    technique = parsed.group("technique")
    cp = float(parsed.group("cp"))
    cand_ms = record.bench_ms
    if cand_ms is None:
        raise DiffError(f"record {record.name} has no bench_ms metadata; "
                        "cannot reproduce its configuration")

    baseline = _pick_baseline(record, metric, root)
    base_ms = baseline.bench_ms if baseline is not None else None
    reference = (_metric_value(baseline, metric.name)
                 if baseline is not None else metric.expected)

    # Re-run the candidate point, and the baseline configuration when it
    # differs (otherwise the candidate runs double as the baseline runs).
    trace_c, base_c, run_c = _savings_runs(trace_name, technique, cp,
                                           cand_ms)
    value_c = run_c.energy_savings_vs(base_c)
    cross_duration = base_ms is not None and abs(base_ms - cand_ms) > 1e-9
    if cross_duration:
        _trace_b, base_b, run_b = _savings_runs(trace_name, technique, cp,
                                                base_ms)
        value_b = run_b.energy_savings_vs(base_b)
    else:
        run_b, value_b = run_c, value_c

    # Digest-diff the two technique runs to localise where their
    # behaviour first departs.
    maker = _TRACE_MAKERS[trace_name]
    spec_c = SimRunSpec(trace=trace_c, technique=technique, cp_limit=cp)
    spec_b = SimRunSpec(trace=maker(duration_ms=base_ms)
                        if cross_duration else trace_c,
                        technique=technique, cp_limit=cp)
    report = diff_runs(spec_c.runner(), spec_b.runner(),
                       label_a=f"{trace_name}@{cand_ms:g}ms",
                       label_b=f"{trace_name}@{base_ms:g}ms"
                       if cross_duration else f"{trace_name} (baseline)",
                       collect_causes=False)

    # Energy attribution: which residency buckets the energy moved
    # between, as fractions of each run's total.
    fractions_c = run_c.energy.fractions()
    fractions_b = run_b.energy.fractions()
    attribution = sorted(
        ({"bucket": bucket,
          "candidate_frac": fractions_c.get(bucket, 0.0),
          "baseline_frac": fractions_b.get(bucket, 0.0),
          "delta": (fractions_c.get(bucket, 0.0)
                    - fractions_b.get(bucket, 0.0))}
         for bucket in BUCKETS),
        key=lambda row: -abs(row["delta"]))

    if report.identical and not cross_duration:
        status = "identical"
        summary = (f"{metric.name}: the candidate run reproduces the "
                   "baseline configuration exactly (identical digest "
                   "chains) — nothing to attribute")
    elif cross_duration:
        status = "attributed"
        top = attribution[0]
        prefix = ("the runs share an identical prefix"
                  if report.divergence is not None
                  and "missing" in report.divergence.name
                  else f"behaviour first diverges at epoch {report.epoch}")
        summary = (
            f"{metric.name}: {value_c:+.3f} at {cand_ms:g} ms vs "
            f"{value_b:+.3f} at {base_ms:g} ms — {prefix}; the shorter "
            f"horizon shifts energy "
            f"{'into' if top['delta'] > 0 else 'out of'} "
            f"'{top['bucket']}' ({top['delta']:+.3f} of total), a "
            "trace-truncation artefact, not a policy change")
    else:
        status = "attributed"
        top = attribution[0]
        summary = (f"{metric.name}: {value_c:+.3f} vs baseline "
                   f"{value_b:+.3f}; first divergent epoch "
                   f"{report.epoch}, field "
                   f"{report.divergence.name if report.divergence else '?'}"
                   f"; largest energy shift: '{top['bucket']}' "
                   f"({top['delta']:+.3f})")

    explain: dict[str, Any] = {
        "metric": metric.name,
        "status": status,
        "value": value_c,
        "expected": metric.expected,
        "baseline_value": value_b if baseline is not None else None,
        "reference_value": reference,
        "bench_ms": cand_ms,
        "baseline_bench_ms": base_ms,
        "baseline_created": baseline.created if baseline else None,
        "divergence": report.as_dict(),
        "energy_attribution": attribution[:4],
        "summary": summary,
    }

    if write:
        record.explain = explain
        write_json_atomic(Path(results_dir) / f"{record.name}.json",
                          record.to_dict())
    return (0 if status == "identical" else 2), explain


def render_explain(figure: str, explain: dict[str, Any]) -> str:
    """Human-readable report plus the greppable ``bench.explain:`` line."""
    lines = [f"bench explain: {figure} / {explain['metric']}"]
    lines.append(f"  candidate: {explain['value']:+.4f} "
                 f"@ {explain['bench_ms']:g} ms"
                 + (f" (paper expects {explain['expected']:+.4f})"
                    if explain.get("expected") is not None else ""))
    if explain.get("baseline_value") is not None:
        lines.append(f"  baseline:  {explain['baseline_value']:+.4f} "
                     f"@ {explain['baseline_bench_ms']:g} ms "
                     f"({explain.get('baseline_created') or 'committed'})")
    divergence = explain.get("divergence", {})
    if divergence.get("identical"):
        lines.append("  digest chains identical")
    elif divergence.get("epoch") is not None:
        lines.append(f"  first divergent epoch: {divergence['epoch']}")
    for row in explain.get("energy_attribution", [])[:4]:
        lines.append(f"    {row['bucket']:<15} candidate "
                     f"{row['candidate_frac']:.3f}  baseline "
                     f"{row['baseline_frac']:.3f}  ({row['delta']:+.3f})")
    lines.append(f"  {explain['summary']}")
    lines.append(f"bench.explain: figure={figure} "
                 f"metric={explain['metric']} status={explain['status']} "
                 f"epoch={divergence.get('epoch')} "
                 f"value={explain['value']:.4f}")
    return "\n".join(lines)


def cmd_explain(args) -> int:
    """CLI glue (``repro bench explain``); handles its own errors so
    exit 2 stays reserved for 'attributed'."""
    try:
        code, explain = explain_figure(
            args.figure, metric_name=args.metric,
            results_dir=args.results_dir, root=args.root,
            write=not args.no_write)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_explain(args.figure, explain))
    if not args.no_write:
        print(f"(explain block attached to the {args.figure} record "
              f"under {args.results_dir})")
    return code


__all__ = ["explain_figure", "render_explain", "cmd_explain"]
