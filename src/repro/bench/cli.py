"""The ``repro bench`` verb family.

* ``repro bench run`` — execute the bench suite (pytest-benchmark under
  the hood); every bench emits a schema-versioned JSON record into
  ``benchmarks/results/``.
* ``repro bench compare`` — classify the fresh records against the
  committed ``BENCH_<figure>.json`` trajectories; ``--fail-on-regression``
  turns a regression into a non-zero exit (the CI gate).
* ``repro bench update-baseline`` — append the fresh records to the
  trajectories, making them the new committed baseline.
* ``repro bench report`` — render the trajectories (plus the current
  run) into one self-contained HTML file with per-figure sparklines.
* ``repro bench explain`` — root-cause one figure metric's movement:
  re-run the point under the candidate and baseline configurations,
  digest-diff the runs (:mod:`repro.obs.diff`), and attach the
  attribution to the record. Exit codes mirror ``repro diff``:
  2 = attributed, 0 = identical, 1 = error.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.bench.compare import compare_records, render_comparison
from repro.bench.trajectory import (
    append_records,
    load_all_trajectories,
    load_result_records,
)
from repro.bench.record import QUICK_BENCH_MS
from repro.errors import ReproError


def add_bench_parser(commands) -> None:
    """Register the ``bench`` subcommand tree on the CLI parser."""
    bench = commands.add_parser(
        "bench", help="machine-readable bench records, regression "
                      "gates, and reports")
    verbs = bench.add_subparsers(dest="bench_command", required=True)

    run = verbs.add_parser(
        "run", help="run the bench suite; each bench writes a JSON "
                    "record next to its .txt report")
    run.add_argument("--quick", action="store_true",
                     help=f"short traces ({QUICK_BENCH_MS:g} ms) for a "
                          "smoke-speed pass")
    run.add_argument("--bench-ms", type=float, default=None,
                     help="explicit trace duration in ms (overrides "
                          "--quick and $REPRO_BENCH_MS)")
    run.add_argument("--figure", action="append", default=None,
                     help="only benches whose file name matches this "
                          "figure id (repeatable), e.g. --figure fig5")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes for prefetched grids")
    run.add_argument("--cache", action="store_true",
                     help="persist results in the on-disk cache "
                          "(REPRO_BENCH_CACHE=1)")
    run.add_argument("--benchmarks-dir", default="benchmarks",
                     help="bench suite location (default: benchmarks/)")

    compare = verbs.add_parser(
        "compare", help="classify the current records against the "
                        "committed BENCH_<figure>.json baselines")
    _add_location_args(compare)
    compare.add_argument("--fail-on-regression", action="store_true",
                         help="exit non-zero when any metric regressed")
    compare.add_argument("--wall-tolerance", type=float, default=None,
                         help="override the relative wall-time band "
                              "(e.g. 0.6 = regress only beyond +60%%)")
    compare.add_argument("-v", "--verbose", action="store_true",
                         help="itemise every verdict, not just "
                              "regressions")

    update = verbs.add_parser(
        "update-baseline", help="append the current records to the "
                                "trajectory files")
    _add_location_args(update)
    update.add_argument("--figure", action="append", default=None,
                        help="only records of this figure (repeatable)")

    report = verbs.add_parser(
        "report", help="render trajectories + current run to one "
                       "self-contained HTML file")
    _add_location_args(report)
    report.add_argument("-o", "--out", default="bench_report.html",
                        help="output HTML path")
    report.add_argument("--title", default="repro bench report")
    report.add_argument("--no-current", action="store_true",
                        help="report the committed trajectories only")

    explain = verbs.add_parser(
        "explain", help="root-cause one metric's movement by re-running "
                        "the point and digest-diffing it against the "
                        "committed baseline (exit 2 = attributed)")
    explain.add_argument("figure", help="figure id, e.g. fig5")
    explain.add_argument("--metric", default=None,
                         help="metric name (e.g. "
                              "'OLTP-St/dma-ta-pl/cp=0.02'); default: "
                              "the worst-deviating paper-tied metric")
    _add_location_args(explain)
    explain.add_argument("--no-write", action="store_true",
                         help="print the attribution without touching "
                              "the record JSON")


def _add_location_args(parser) -> None:
    parser.add_argument("--results-dir", default="benchmarks/results",
                        help="where the current run's JSON records live")
    parser.add_argument("--root", default=".",
                        help="directory holding the BENCH_<figure>.json "
                             "trajectory files")


def cmd_bench(args) -> int:
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "update-baseline": _cmd_update_baseline,
        "report": _cmd_report,
        "explain": _cmd_explain,
    }[args.bench_command]
    return handler(args)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _select_bench_files(bench_dir: Path,
                        figures: list[str] | None) -> list[Path]:
    files = sorted(bench_dir.glob("bench_*.py"))
    if not files:
        raise ReproError(f"no bench_*.py files under {bench_dir}")
    if not figures:
        return files
    selected: list[Path] = []
    for figure in figures:
        matches = [f for f in files if figure in f.stem]
        if not matches:
            raise ReproError(
                f"no bench file matches figure {figure!r} under "
                f"{bench_dir} (have: "
                f"{', '.join(f.stem for f in files)})")
        selected.extend(m for m in matches if m not in selected)
    return selected


def _cmd_run(args) -> int:
    bench_dir = Path(args.benchmarks_dir)
    if not bench_dir.is_dir():
        raise ReproError(
            f"benchmarks directory {bench_dir} not found; run from the "
            "repository root or pass --benchmarks-dir")
    files = _select_bench_files(bench_dir, args.figure)

    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    if args.bench_ms is not None:
        env["REPRO_BENCH_MS"] = f"{args.bench_ms:g}"
    elif args.quick:
        env["REPRO_BENCH_MS"] = f"{QUICK_BENCH_MS:g}"
    if args.jobs is not None:
        env["REPRO_BENCH_JOBS"] = str(args.jobs)
    if args.cache:
        env["REPRO_BENCH_CACHE"] = "1"

    command = [sys.executable, "-m", "pytest", "--benchmark-only", "-q",
               *map(str, files)]
    print(f"running {len(files)} bench file(s) "
          f"(REPRO_BENCH_MS={env.get('REPRO_BENCH_MS', 'default')}) ...")
    completed = subprocess.run(command, env=env)
    results_dir = bench_dir / "results"
    if completed.returncode == 0:
        records = load_result_records(results_dir)
        print(f"\nwrote {len(records)} JSON record(s) under "
              f"{results_dir}/ — next: `repro bench compare`")
    return completed.returncode


# ---------------------------------------------------------------------------
# compare / update-baseline / report
# ---------------------------------------------------------------------------

def _current_records(args):
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        raise ReproError(
            f"results directory {results_dir} not found; run "
            "`repro bench run` first")
    records = load_result_records(results_dir)
    if not records:
        raise ReproError(
            f"no JSON records under {results_dir}; run "
            "`repro bench run` first")
    return records


def _cmd_compare(args) -> int:
    records = _current_records(args)
    trajectories = load_all_trajectories(args.root)
    if not trajectories:
        print(f"warning: no BENCH_*.json trajectories under {args.root}; "
              "every metric is unbaselined (seed them with "
              "`repro bench update-baseline`)", file=sys.stderr)
    comparison = compare_records(records, trajectories,
                                 wall_rel=args.wall_tolerance)
    print(render_comparison(comparison, verbose=args.verbose))
    if comparison.regressions and args.fail_on_regression:
        print(f"\n{len(comparison.regressions)} regression(s) — failing "
              "(--fail-on-regression)", file=sys.stderr)
        return 1
    return 0


def _cmd_update_baseline(args) -> int:
    records = _current_records(args)
    if args.figure:
        records = [r for r in records if r.figure in set(args.figure)]
        if not records:
            raise ReproError(
                f"no current records match figures {args.figure}")
    written = append_records(records, root=args.root)
    for path in written:
        print(f"updated {path}")
    print(f"{len(records)} record(s) appended across "
          f"{len(written)} trajectory file(s)")
    return 0


def _cmd_explain(args) -> int:
    from repro.bench.explain import cmd_explain

    return cmd_explain(args)


def _cmd_report(args) -> int:
    from repro.bench.report import merge_current, write_report

    trajectories = load_all_trajectories(args.root)
    if not args.no_current:
        try:
            current = _current_records(args)
        except ReproError:
            current = []
        trajectories = merge_current(trajectories, current)
    if not trajectories:
        raise ReproError("nothing to report: no trajectories and no "
                         "current records")
    path = write_report(trajectories, args.out, title=args.title)
    figures = len(trajectories)
    runs = sum(len(r) for r in trajectories.values())
    print(f"wrote {path}: {figures} figure(s), {runs} run(s)")
    return 0


__all__ = ["add_bench_parser", "cmd_bench", "QUICK_BENCH_MS"]
