"""Command-line interface.

``python -m repro <command>`` (or the installed ``repro`` script) drives
the library without writing Python: generate the evaluation traces,
characterise them, run single simulations, compare techniques, and sweep
CP-Limits.

Examples::

    repro generate synthetic-st -o st.jsonl --duration-ms 25
    repro characterize st.jsonl
    repro simulate st.jsonl --technique dma-ta-pl --cp-limit 0.1
    repro compare st.jsonl --cp-limit 0.1
    repro sweep st.jsonl --technique dma-ta-pl --cp-limits 0.02,0.1,0.3
    repro calibrate st.jsonl --cp-limit 0.1
    repro trace st.jsonl --technique dma-ta-pl --out trace.json
    repro audit st.jsonl --technique dma-ta --mu 2.0 --strict
    repro stats st.jsonl --technique dma-ta-pl
    repro watch st.jsonl --technique dma-ta-pl --cp-limit 0.1
    repro diff st.jsonl --technique dma-ta --engines precise,precise-scalar
    repro bench run --quick
    repro bench compare --fail-on-regression
    repro bench explain fig5 --metric "OLTP-St/dma-ta-pl/cp=0.02"
    repro bench report -o bench_report.html

``--log-level`` (or the ``REPRO_LOG_LEVEL`` environment variable) turns
on stdlib logging for every ``repro.*`` module — executor pool
fallbacks, cache corruption warnings, trace-generator diagnostics.
``--log-format json`` (or ``REPRO_LOG_FORMAT=json``) switches those
loggers to one structured JSON object per line for machine ingestion
(and implies ``--log-level info`` when no level was given).
Every run carries its wall-clock ledger (:mod:`repro.obs.wall`):
``repro simulate`` prints it as a ``wall:`` line after the summary and
``repro trace`` exports it as a ``wall`` track.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
from dataclasses import replace
from typing import Callable, Iterator, Sequence

from repro import __version__
from repro.analysis.charts import savings_chart
from repro.analysis.tables import format_breakdown, format_table
from repro.config import SimulationConfig
from repro.core.cp_limit import calibrate_mu
from repro.errors import ReproError
from repro.exec.jobs import SimJob
from repro.sim.run import ENGINES, TECHNIQUES
from repro.traces.io import read_trace, write_trace
from repro.traces.oltp import oltp_database_trace, oltp_storage_trace
from repro.traces.replay import DIALECTS, PAGE_LAYOUTS, ReplayConfig, replay_trace
from repro.traces.stats import characterize, popularity_cdf
from repro.traces.synthetic import synthetic_database_trace, synthetic_storage_trace
from repro.traces.zoo import ZOO

#: Every workload name ``repro generate`` accepts: the paper's four
#: evaluation traces plus the workload-zoo families (docs/WORKLOADS.md).
GENERATORS: dict[str, Callable] = {
    "oltp-st": oltp_storage_trace,
    "oltp-db": oltp_database_trace,
    "synthetic-st": synthetic_storage_trace,
    "synthetic-db": synthetic_database_trace,
    **ZOO,
}


def _run_parser(commands, name: str, technique: str,
                **kwargs) -> argparse.ArgumentParser:
    """Add a verb that runs ``technique`` (its default) on one trace:
    the trace plus --technique, --engine, --cp-limit, --mu and --seed."""
    parser = commands.add_parser(name, **kwargs)
    parser.add_argument("trace", help="trace file (JSONL)")
    parser.add_argument("--technique", choices=TECHNIQUES,
                        default=technique)
    parser.add_argument("--engine", choices=ENGINES, default="fluid")
    parser.add_argument("--cp-limit", type=float, default=None,
                        help="client-perceived degradation limit (e.g. 0.1)")
    parser.add_argument("--mu", type=float, default=None,
                        help="raw per-request degradation parameter")
    parser.add_argument("--seed", type=int, default=0,
                        help="page-layout seed")
    return parser


def _job(args, trace, **changes) -> SimJob:
    """The validated run of ``trace`` that the flags of
    :func:`_run_parser` (and ``repro replay``'s) describe, with
    ``changes`` to its fields applied."""
    flags = dict(technique=args.technique, engine=args.engine,
                 cp_limit=args.cp_limit, mu=args.mu, seed=args.seed)
    job = SimJob(trace, **{**flags, **changes})
    job.validate()
    return job


def _add_serve_args(parser: argparse.ArgumentParser, port: int,
                    linger_s: float, live: bool = True) -> None:
    """Add the flags :func:`_serving` reads. A ``live`` dashboard, one
    that polls its panels, also gets --no-browser and --refresh-ms."""
    parser.add_argument("--serve-port", type=int, default=port,
                        help=f"dashboard HTTP port (0 = ephemeral; "
                             f"default {port})")
    parser.add_argument("--host", default="127.0.0.1",
                        help="dashboard bind address (default 127.0.0.1)")
    parser.add_argument("--port-file", default=None,
                        help="write the bound port to this file once "
                             "listening (for scripts pairing with "
                             "--serve-port 0)")
    parser.add_argument("--linger-s", type=float, default=linger_s,
                        help="keep the dashboard up this many seconds "
                             f"after the work ends (default {linger_s:g}; "
                             "0 = exit at once)")
    if live:
        parser.add_argument("--no-browser", action="store_true",
                            help="do not open the dashboard in a browser")
        parser.add_argument("--refresh-ms", type=int, default=1000,
                            help="dashboard panel refresh period")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DMA-aware memory energy management (HPCA 2006) "
                    "reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument(
        "--log-level", type=str.lower,
        choices=("debug", "info", "warning", "error"),
        default=os.environ.get("REPRO_LOG_LEVEL"),
        help="enable stdlib logging at this level for all repro modules "
             "(default: $REPRO_LOG_LEVEL, or off)")
    parser.add_argument(
        "--log-format", type=str.lower, choices=("text", "json"),
        default=os.environ.get("REPRO_LOG_FORMAT", "text"),
        help="module-logger output: human-readable text, or one JSON "
             "object per line for machine ingestion (default: "
             "$REPRO_LOG_FORMAT, or text; json implies --log-level info "
             "when no level is given)")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate one of the four evaluation traces")
    generate.add_argument("kind", choices=sorted(GENERATORS))
    generate.add_argument("-o", "--output", required=True,
                          help="output trace file (JSONL)")
    generate.add_argument("--duration-ms", type=float, default=25.0)
    generate.add_argument("--seed", type=int, default=1)

    replay = commands.add_parser(
        "replay", help="replay a public block trace (MSR-Cambridge/"
                       "CloudPhysics CSV) through the simulator")
    replay.add_argument("csv", help="block-trace CSV file")
    replay.add_argument("--dialect", choices=DIALECTS, default="msr",
                        help="CSV dialect (default: msr)")
    replay.add_argument("--technique", choices=TECHNIQUES, default=None,
                        help="also simulate the replayed trace under "
                             "this technique, with the strict auditor "
                             "watching the run")
    replay.add_argument("--engine", choices=ENGINES, default="fluid")
    replay.add_argument("--cp-limit", type=float, default=None)
    replay.add_argument("--mu", type=float, default=None)
    replay.add_argument("--seed", type=int, default=0,
                        help="page-layout seed for the simulation")
    replay.add_argument("--page-layout", choices=PAGE_LAYOUTS,
                        default="modulo",
                        help="offset->page mapping: 'modulo' keeps disk "
                             "runs sequential, 'hash' scatters them")
    replay.add_argument("--num-pages", type=int, default=None,
                        help="logical page space to fold offsets into "
                             "(default: the simulated memory's size)")
    replay.add_argument("--window", default=None, metavar="START:DUR",
                        help="replay only trace seconds "
                             "[START, START+DUR)")
    replay.add_argument("--time-compression", type=float, default=1.0,
                        help="divide trace time by this factor (1000 = "
                             "1 traced second per simulated ms)")
    replay.add_argument("--proc-per-io", type=float, default=0.0,
                        help="synthesised processor accesses per block "
                             "I/O (the I/O-to-compute ratio)")
    replay.add_argument("-o", "--output", default=None,
                        help="also write the converted trace (JSONL)")

    char = commands.add_parser(
        "characterize", help="print a trace's Table 2-style summary")
    char.add_argument("trace", help="trace file (JSONL)")
    char.add_argument("--cdf", action="store_true",
                      help="also print the Figure 4 popularity CDF")

    _run_parser(commands, "simulate", "baseline",
                help="run one simulation")

    compare = commands.add_parser(
        "compare", help="baseline vs DMA-TA vs DMA-TA-PL on one trace")
    compare.add_argument("trace")
    compare.add_argument("--cp-limit", type=float, default=0.10)

    sweep = commands.add_parser(
        "sweep", help="savings vs CP-Limit for one technique")
    sweep.add_argument("trace")
    sweep.add_argument("--technique", choices=("dma-ta", "dma-ta-pl"),
                       default="dma-ta-pl")
    sweep.add_argument("--cp-limits", default="0.02,0.05,0.1,0.2,0.3",
                       help="comma-separated CP-Limit list")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (1 = serial)")
    sweep.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="read/write the on-disk result cache "
                            "(--no-cache bypasses it; the default)")
    sweep.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR "
                            "or .repro_cache)")
    sweep.add_argument("--fleet", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="cross-process fleet observability (default: "
                            "auto — on for --jobs > 1 and whenever "
                            "--watch or a fleet output is requested; "
                            "--no-fleet forces it off unless --watch "
                            "serves it)")
    sweep.add_argument("--watch", action="store_true",
                       help="serve the live fleet dashboard while the "
                            "sweep runs")
    _add_serve_args(sweep, port=8766, linger_s=0.0)
    sweep.add_argument("--fleet-trace-out", default=None, metavar="JSON",
                       help="write the merged fleet Perfetto trace here")
    sweep.add_argument("--fleet-report-out", default=None, metavar="JSON",
                       help="write the FleetReport JSON here")
    sweep.add_argument("--stall-timeout", type=float, default=None,
                       help="absolute no-heartbeat bound (s) before a "
                            "worker counts as stalled (default: derived "
                            "from observed job wall-times)")
    sweep.add_argument("--inject-stall", default=None, metavar="TAG",
                       help="fault injection: freeze the worker that "
                            "picks up the job with this tag (e.g. "
                            "'cp=0.1:dma-ta') to exercise the watchdog")
    sweep.add_argument("--inject-stall-s", type=float, default=5.0,
                       help="how long the injected freeze lasts "
                            "(default 5s; the frozen worker is "
                            "terminated once the sweep is done)")

    trace_cmd = _run_parser(
        commands, "trace", "dma-ta-pl",
        help="run one traced simulation and export a "
             "Chrome-trace/Perfetto JSON")
    trace_cmd.add_argument("--out", required=True,
                           help="output trace file (load it at "
                                "https://ui.perfetto.dev)")

    audit = _run_parser(
        commands, "audit", "dma-ta",
        help="run one audited simulation: latency waterfalls, "
             "energy-conservation ledger, slack-guarantee replay")
    audit.add_argument("--strict", action="store_true",
                       help="fail fast: raise at the first violation and "
                            "exit non-zero (default: warn and exit 0)")
    audit.add_argument("--slowest", type=int, default=8,
                       help="worst-case transfer waterfalls to retain")
    audit.add_argument("--inject-undercharge", type=float, default=0.0,
                       metavar="FRACTION",
                       help="fault injection: scale the slack account's "
                            "pessimistic epoch charge by (1 - FRACTION); "
                            "the auditor must catch the under-charge "
                            "(requires a DMA-TA technique)")
    audit.add_argument("--out", default=None,
                       help="write the violation/waterfall report (JSON) "
                            "to this file")
    audit.add_argument("--trace-out", default=None,
                       help="also export a Chrome-trace/Perfetto JSON of "
                            "the run's events plus the slowest-transfer "
                            "waterfall spans on the audit track")

    stats = _run_parser(
        commands, "stats", "dma-ta-pl",
        help="run one simulation and print its metrics report")
    stats.add_argument("--histogram", action="append", default=None,
                       metavar="NAME",
                       help="print the full digest of this histogram "
                            "(repeatable); a missing histogram warns "
                            "instead of failing — e.g. ta.batch_size "
                            "is only recorded when DMA-TA runs")

    watch = _run_parser(
        commands, "watch", "dma-ta-pl",
        help="run one simulation while serving a live telemetry "
             "dashboard (HTML + Prometheus /metrics + SSE)")
    watch.add_argument("--sample-cycles", type=float, default=None,
                       help="sampling period in memory cycles (default: "
                            "the run's DMA-TA epoch length)")
    watch.add_argument("--capacity", type=int, default=2048,
                       help="telemetry ring rows kept in memory; on "
                            "overflow every other row is dropped and "
                            "the stride doubles (O(capacity) memory)")
    _add_serve_args(watch, port=8765, linger_s=10.0)
    watch.add_argument("--telemetry-out", default=None, metavar="JSONL",
                       help="append every sample and anomaly to this "
                            "JSONL stream")
    watch.add_argument("--inject-spike", type=float, default=0.0,
                       metavar="CYCLES",
                       help="fault injection: add this many phantom "
                            "degradation cycles to the observed series "
                            "mid-run — the CUSUM detector must flag it; "
                            "the simulation itself is untouched")
    watch.add_argument("--inject-spike-at", type=float, default=0.5,
                       metavar="FRAC",
                       help="where in the trace the injected spike "
                            "lands (fraction of the duration)")

    diff = _run_parser(
        commands, "diff", "dma-ta",
        help="run two configurations of one trace, compare their "
             "per-epoch state-digest chains, and bisect to the first "
             "divergent epoch and field (exit 0 identical, 2 diverged, "
             "1 error)")
    diff.add_argument("--engines", default=None, metavar="A,B",
                      help="engine pair, e.g. precise,precise-scalar — "
                           "overrides --engine per side")
    diff.add_argument("--technique-b", choices=TECHNIQUES, default=None,
                      help="run B technique (default: same as run A)")
    diff.add_argument("--cp-limit-b", type=float, default=None,
                      help="run B CP-Limit (default: same as run A)")
    diff.add_argument("--mu-b", type=float, default=None,
                      help="run B mu (default: same as run A)")
    diff.add_argument("--seed-b", type=int, default=None,
                      help="run B layout seed (default: same as run A)")
    diff.add_argument("--epoch-cycles", type=float, default=None,
                      help="digest period in memory cycles (default: the "
                           "run's DMA-TA epoch length)")
    diff.add_argument("--capacity", type=int, default=4096,
                      help="digest ring rows kept; on overflow every "
                           "other row is dropped and the stride doubles")
    diff.add_argument("--against", default=None, metavar="TRAIL_JSON",
                      help="compare run A against a digest trail saved "
                           "with --save instead of running B (chain-"
                           "level comparison only)")
    diff.add_argument("--save", default=None, metavar="TRAIL_JSON",
                      help="write run A's digest trail to this file")
    diff.add_argument("--inject-epoch-skew", type=int, default=None,
                      metavar="EPOCH",
                      help="fault injection: add --skew-cycles phantom "
                           "degradation cycles to run B's observed "
                           "series at exactly this digest epoch — the "
                           "bisection must localise it; the simulation "
                           "itself is untouched")
    diff.add_argument("--skew-cycles", type=float, default=1.0,
                      help="size of the injected epoch skew")
    diff.add_argument("--no-causes", action="store_true",
                      help="skip tracing the bisection re-runs for "
                           "window causes (faster)")
    diff.add_argument("--trace-out", default=None,
                      help="write an aligned two-run Chrome-trace/"
                           "Perfetto JSON export to this file")
    diff.add_argument("--json-out", default=None,
                      help="write the structured divergence report "
                           "(JSON) to this file")
    diff.add_argument("--serve", action="store_true",
                      help="serve the finished report on a local HTTP "
                           "dashboard")
    _add_serve_args(diff, port=0, linger_s=10.0, live=False)

    calibrate = commands.add_parser(
        "calibrate", help="show the mu a CP-Limit translates to")
    calibrate.add_argument("trace")
    calibrate.add_argument("--cp-limit", type=float, default=0.10)

    report = commands.add_parser(
        "report", help="run the full technique matrix and print a report")
    report.add_argument("trace")
    report.add_argument("--cp-limits", default="0.02,0.05,0.1,0.2,0.3")
    report.add_argument("-o", "--output", default=None,
                        help="also write the report to this file")

    from repro.bench.cli import add_bench_parser

    add_bench_parser(commands)

    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    trace = GENERATORS[args.kind](duration_ms=args.duration_ms,
                                  seed=args.seed)
    write_trace(trace, args.output)
    stats = characterize(trace)
    print(f"wrote {args.output}: {stats.transfers} transfers over "
          f"{stats.duration_ms:.1f} ms "
          f"({stats.transfers_per_ms:.1f}/ms, "
          f"{stats.proc_accesses_per_ms:.0f} proc accesses/ms)")
    return 0


def _cmd_replay(args) -> int:
    window_start, window_s = 0.0, None
    if args.window:
        try:
            start_text, _, dur_text = args.window.partition(":")
            window_start = float(start_text)
            window_s = float(dur_text) if dur_text else None
        except ValueError as exc:
            raise ReproError(
                f"bad --window {args.window!r} (want START:DUR "
                f"in seconds): {exc}") from exc

    sim_config = SimulationConfig()
    num_pages = args.num_pages or sim_config.memory.total_pages
    if num_pages > sim_config.memory.total_pages:
        raise ReproError(
            f"--num-pages {num_pages} exceeds the simulated memory "
            f"({sim_config.memory.total_pages} pages)")
    replay_config = ReplayConfig(
        page_bytes=sim_config.memory.page_bytes,
        num_pages=num_pages,
        page_layout=args.page_layout,
        num_buses=sim_config.buses.count,
        window_start_s=window_start,
        window_s=window_s,
        time_compression=args.time_compression,
        proc_accesses_per_io=args.proc_per_io,
    )
    trace = replay_trace(args.csv, config=replay_config,
                         dialect=args.dialect)
    stats = characterize(trace)
    meta = trace.metadata
    print(f"{trace.name}: {meta['block_ios']} block I/Os "
          f"({meta['block_reads']} reads / {meta['block_writes']} writes) "
          f"over {meta['trace_span_s']:.3f} s of trace time "
          f"-> {stats.transfers} transfers / {stats.duration_ms:.2f} ms "
          f"simulated ({stats.transfers_per_ms:.1f}/ms, "
          f"{len(meta['namespaces'])} disk namespace(s))")
    if args.output:
        write_trace(trace, args.output)
        print(f"wrote {args.output}")
    if args.technique is None:
        return 0
    job = _job(args, trace)
    print()
    return _audited_run(job, strict=True)


def _cmd_characterize(args) -> int:
    trace = read_trace(args.trace)
    stats = characterize(trace)
    rows = [
        ["duration", f"{stats.duration_ms:.2f} ms"],
        ["transfers", stats.transfers],
        ["transfer rate", f"{stats.transfers_per_ms:.1f}/ms"],
        ["network rate", f"{stats.net_transfers_per_ms:.1f}/ms"],
        ["disk rate", f"{stats.disk_transfers_per_ms:.1f}/ms"],
        ["processor rate", f"{stats.proc_accesses_per_ms:.0f}/ms"],
        ["proc per transfer", f"{stats.proc_accesses_per_transfer:.0f}"],
        ["mean transfer", f"{stats.mean_transfer_bytes:.0f} B"],
        ["pages referenced", stats.pages_referenced],
        ["top-20% access share",
         f"{stats.top20_access_fraction * 100:.1f}%"],
        ["client requests", len(trace.clients)],
    ]
    print(format_table(["metric", "value"], rows, title=trace.name))
    if args.cdf:
        points = popularity_cdf(trace, points=10)
        print()
        print(format_table(
            ["pages", "accesses"],
            [[f"{x:.0%}", f"{y:.1%}"] for x, y in points],
            title="popularity CDF (Figure 4)"))
    return 0


def _cmd_simulate(args) -> int:
    result = _job(args, read_trace(args.trace)).run()
    print(result.summary())
    print(result.wall.summary())
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.sweep import sweep_cp_limit, sweep_errors

    trace = read_trace(args.trace)
    points = sweep_cp_limit(trace, [args.cp_limit], ["dma-ta", "dma-ta-pl"])
    failures = sweep_errors(points)
    if failures:
        raise ReproError(failures)
    baseline = points[0].baseline
    ta, tapl = (point.result for point in points)
    print(format_breakdown(
        [baseline, ta, tapl], labels=["baseline", "DMA-TA", "DMA-TA-PL"],
        title=f"{trace.name} at CP-Limit {args.cp_limit:.0%}"))
    rows = []
    for point, label in zip(points, ("DMA-TA", "DMA-TA-PL")):
        result = point.result
        rows.append([
            label,
            f"{point.savings:+.1%}",
            f"{result.client_degradation_vs(baseline):+.2%}",
            f"{result.utilization_factor:.3f}",
        ])
    print()
    print(format_table(
        ["technique", "savings", "client degradation", "uf"], rows))
    return 0


@contextlib.contextmanager
def _serving(args, server, banner: str,
             noun: str = "dashboard") -> Iterator[None]:
    """Serve ``server`` around the body of a ``with`` block.

    Starts it, prints ``banner`` with ``{url}`` filled in, writes
    --port-file and opens a browser unless --no-browser (a verb without
    that flag never opens one). Once the body has finished it keeps
    serving for --linger-s. The server stops on every exit path.
    """
    try:
        server.start()
        print(banner.format(url=server.url))
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
        if not getattr(args, "no_browser", True):
            import webbrowser

            webbrowser.open(server.url)
        yield
        if args.linger_s > 0:
            print(f"{noun} stays up for {args.linger_s:g}s "
                  "(Ctrl-C to stop early)")
            try:
                time.sleep(args.linger_s)
            except KeyboardInterrupt:
                pass
    finally:
        server.stop()


def _cmd_sweep(args) -> int:
    from repro.analysis.sweep import sweep_cp_limit
    from repro.exec import ResultCache

    try:
        cp_limits = [float(x) for x in args.cp_limits.split(",") if x]
    except ValueError as exc:
        raise ReproError(f"bad --cp-limits list: {exc}") from exc
    if not cp_limits:
        raise ReproError("empty --cp-limits list")
    if args.jobs < 1:
        raise ReproError("--jobs must be at least 1")
    trace = read_trace(args.trace)
    cache = ResultCache(root=args.cache_dir) if args.cache else None

    want_fleet = args.fleet
    if want_fleet is None:  # auto: on when there is something to observe
        want_fleet = bool(args.jobs > 1 or args.fleet_trace_out
                          or args.fleet_report_out or args.inject_stall)
    fleet = None
    if want_fleet or args.watch:  # the dashboard serves the collector
        from repro.obs.fleet import FleetCollector, FleetConfig

        fleet = FleetCollector(FleetConfig(
            stall_after_s=args.stall_timeout,
            inject_stall_tag=args.inject_stall or "",
            inject_stall_s=args.inject_stall_s if args.inject_stall
            else 0.0,
        ))
    try:
        serving = contextlib.nullcontext()
        if args.watch:
            from repro.obs.serve import FleetServer

            serving = _serving(args, FleetServer(
                fleet, host=args.host, port=args.serve_port,
                title=f"{trace.name} / {args.technique}",
                refresh_ms=args.refresh_ms),
                "fleet dashboard: {url} (snapshot at {url}fleet.json, "
                "SSE at {url}events)")
        with serving:
            points = sweep_cp_limit(trace, cp_limits, [args.technique],
                                    max_workers=args.jobs, cache=cache,
                                    fleet=fleet)
            exit_code = _report_sweep(args, trace, points, cache, fleet)
    finally:
        if fleet is not None:
            fleet.close()
    return exit_code


def _report_sweep(args, trace, points, cache, fleet) -> int:
    from repro.analysis.sweep import sweep_errors

    chart = {p.x: p.savings for p in points if p.ok}
    if chart:
        print(savings_chart(chart,
                            title=f"{trace.name}: {args.technique} savings "
                                  f"vs CP-Limit"))
    walls = [p.wall_s for p in points if p.wall_s > 0]
    if walls:
        print(f"workers: {len(walls)} jobs computed in "
              f"{sum(walls):.2f}s total "
              f"(mean {sum(walls) / len(walls):.2f}s, "
              f"max {max(walls):.2f}s)")
    if cache is not None:
        stats = cache.stats
        print(f"cache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.stores} stores, {stats.evictions} evictions, "
              f"{stats.corrupt} corrupt ({cache.root})")
    flagged = [(p, finding) for p in points for finding in p.audit]
    if flagged:
        print(f"audit: {len(flagged)} finding(s) across "
              f"{len({id(p) for p, _ in flagged})} point(s):",
              file=sys.stderr)
        for point, finding in flagged:
            print(f"  x={point.x:g} {point.technique}: {finding}",
                  file=sys.stderr)
    else:
        print(f"audit: {sum(1 for p in points if p.ok)} point(s) passed "
              "result invariants")
    if fleet is not None:
        report = fleet.report()
        print(report.render())
        if args.fleet_report_out:
            with open(args.fleet_report_out, "w",
                      encoding="utf-8") as handle:
                json.dump(report.as_dict(), handle, indent=2)
            print(f"wrote {args.fleet_report_out}: fleet report "
                  f"({report.events_received} worker events)")
        if args.fleet_trace_out:
            path = fleet.write_chrome_trace(
                args.fleet_trace_out,
                label=f"{trace.name} / {args.technique}")
            print(f"wrote {path}: merged fleet trace "
                  f"({report.spans_merged} job spans) — load it at "
                  "https://ui.perfetto.dev")
    failures = sweep_errors(points)
    if failures:
        print(failures, file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import RingTracer, write_chrome_trace

    trace = read_trace(args.trace)
    tracer = RingTracer()
    result = _job(args, trace).run(tracer=tracer)
    events = list(tracer.events)
    if not events:
        print(result.summary())
        print("warning: run produced no trace events; skipping export "
              "(events flow only while a tracer is attached — repro "
              "trace/audit attach one automatically; from Python pass "
              "simulate(..., tracer=RingTracer()); for live time series "
              "use repro watch --telemetry-out)",
              file=sys.stderr)
        return 0
    path = write_chrome_trace(events + result.wall.events(), args.out,
                              label=trace.name)
    print(result.summary())
    print(f"\nwrote {path}: {len(events)} events "
          f"({tracer.dropped} dropped) and the wall track — load it at "
          "https://ui.perfetto.dev")
    return 0


def _cmd_audit(args) -> int:
    return _audited_run(
        _job(args, read_trace(args.trace)), strict=args.strict,
        slowest=max(0, args.slowest), undercharge=args.inject_undercharge,
        out=args.out, trace_out=args.trace_out)


def _audited_run(job: SimJob, strict: bool, slowest: int = 8,
                 undercharge: float = 0.0, out: str | None = None,
                 trace_out: str | None = None) -> int:
    """Run ``job`` under an :class:`~repro.obs.audit.Auditor` and print
    its summary and audit report (``repro audit``, ``repro replay
    --technique``); returns the exit code.

    ``undercharge`` scales the slack account's epoch charge down by
    that fraction, a fault the auditor must catch; ``out`` and
    ``trace_out`` name the report JSON and the Perfetto export.
    """
    from repro.errors import AuditError
    from repro.obs import RingTracer, write_chrome_trace
    from repro.obs.audit import Auditor, write_audit_report

    ring = RingTracer() if trace_out else None
    auditor = Auditor(strict=strict, slowest=slowest, downstream=ring)
    # Build the engine without running it, so the under-charge fault can
    # be injected into its slack account.
    engine = job.build_engine(tracer=auditor)
    if undercharge:
        slack = getattr(engine.controller, "slack", None)
        if slack is None:
            raise ReproError(
                "--inject-undercharge needs a slack account; use a "
                "DMA-TA technique (dma-ta or dma-ta-pl)")
        slack.undercharge_fraction = undercharge

    try:
        result = engine.run()
        report = auditor.finalize(result)
    except AuditError as exc:
        print(f"audit: FAIL (strict) — {exc}", file=sys.stderr)
        report = auditor.finalize(None)
        if out:
            path = write_audit_report(report, out)
            print(f"wrote {path}", file=sys.stderr)
        return 1
    print(result.summary())
    print()
    print(report.render())
    if out:
        path = write_audit_report(report, out)
        print(f"\nwrote {path}")
    if ring is not None:
        events = list(ring.events) + report.waterfall_events()
        path = write_chrome_trace(events, trace_out, label=job.trace.name)
        print(f"wrote {path}: {len(events)} events (slack counter on the "
              "controller track, waterfalls on the audit tracks) — load "
              "it at https://ui.perfetto.dev")
    if not report.ok:
        print(f"audit: {len(report.violations)} violation kind(s) "
              f"detected", file=sys.stderr)
        return 1 if strict else 0
    return 0


def _audit_health_line(report) -> str:
    """One-line auditor verdict appended to ``repro stats`` output."""
    if report.ok:
        return "\naudit: ok (0 violations)"
    counts: dict[str, int] = {}
    for violation in report.violations:
        counts[violation.kind] = counts.get(violation.kind, 0) + 1
    detail = ", ".join(f"{kind}: {n}" for kind, n in sorted(counts.items()))
    total = sum(counts.values())
    return (f"\naudit: {total} violation(s) — {detail} "
            "(run repro audit for the full report)")


def _cmd_stats(args) -> int:
    from repro.obs import render_metrics
    from repro.obs.audit import Auditor

    trace = read_trace(args.trace)
    auditor = Auditor(strict=False)
    result = _job(args, trace).run(tracer=auditor)
    report = auditor.finalize(result)
    title = f"{trace.name} / {args.technique} ({args.engine})"
    if result.metrics is None:
        print("warning: this run recorded no metrics report (metrics "
              "come from simulate()'s registry snapshot — re-run via "
              "repro stats/simulate, or use repro trace --out / repro "
              "watch --telemetry-out for event and telemetry streams)",
              file=sys.stderr)
        print(f"{title}\n(no metrics recorded)")
        print(_audit_health_line(report))
        return 0
    print(render_metrics(result.metrics, title=title))
    print(_audit_health_line(report))
    for name in args.histogram or ():
        digest = result.metrics.histograms.get(name)
        if digest is None:
            have = ", ".join(sorted(result.metrics.histograms)) or "none"
            print(f"warning: histogram {name!r} was not recorded by "
                  f"this run (have: {have}) — e.g. ta.batch_size only "
                  "exists when a DMA-TA technique runs", file=sys.stderr)
            continue
        print(f"\nhistogram {name}:")
        for field in ("count", "total", "min", "max", "mean",
                      "p50", "p90", "p99"):
            print(f"  {field:<6} {getattr(digest, field):g}")
    return 0


def _cmd_watch(args) -> int:
    from repro.obs.serve import TelemetryServer
    from repro.obs.telemetry import (
        JsonlExporter,
        TelemetryConfig,
        TelemetrySampler,
    )

    trace = read_trace(args.trace)
    job = _job(args, trace)
    config = TelemetryConfig(
        sample_cycles=args.sample_cycles,
        capacity=args.capacity,
        inject_spike_cycles=args.inject_spike,
        inject_spike_at_frac=args.inject_spike_at,
    )
    jsonl = JsonlExporter(args.telemetry_out) if args.telemetry_out else None
    sampler = TelemetrySampler(config, exporters=[jsonl] if jsonl else [])
    try:
        server = TelemetryServer(
            sampler, host=args.host, port=args.serve_port,
            title=f"{trace.name} / {args.technique} ({args.engine})",
            refresh_ms=args.refresh_ms)
        sampler.exporters.extend(server.exporters)
        with _serving(args, server, "dashboard: {url} (Prometheus at "
                                    "{url}metrics, SSE at {url}events)"):
            result = job.run(telemetry=sampler)
            print(result.summary())
            snapshot = sampler.store.snapshot()
            print(f"\ntelemetry: {snapshot.ticks} samples "
                  f"({len(snapshot)} retained, stride {snapshot.stride}), "
                  f"{len(sampler.anomalies)} anomalies")
            for anomaly in sampler.anomalies:
                print(f"telemetry.anomaly: {anomaly.kind} "
                      f"@ {anomaly.ts:,.0f}: {anomaly.message}")
            if jsonl is not None:
                print(f"wrote {jsonl.path}: {jsonl.lines} JSONL lines")
    finally:
        sampler.close()
    return 0


def _cmd_diff(args) -> int:
    """``repro diff``: first-divergence bisection between two runs.

    Exit codes (satellite convention, mirroring ``fleet.stall:``):
    0 = chains identical, 2 = diverged (the report names the first
    divergent epoch/field), 1 = any error. Errors are handled here —
    not left to :func:`main` — because ``main`` maps :class:`ReproError`
    to exit 2, which this command reserves for divergence.
    """
    from repro.errors import DiffError
    from repro.obs.diff import DigestConfig, diff_runs, read_trail, write_trail

    try:
        engine_a = engine_b = args.engine
        if args.engines:
            parts = [part.strip() for part in args.engines.split(",")]
            if len(parts) != 2 or not all(p in ENGINES for p in parts):
                raise DiffError(f"--engines wants two of {ENGINES} "
                                f"(comma-separated), got {args.engines!r}")
            engine_a, engine_b = parts
        mu_b, cp_limit_b = args.mu, args.cp_limit
        if args.mu_b is not None:
            mu_b, cp_limit_b = args.mu_b, None
        if args.cp_limit_b is not None:
            mu_b, cp_limit_b = None, args.cp_limit_b
        trace = read_trace(args.trace)
        job_a = _job(args, trace, engine=engine_a)
        job_b = _job(args, trace, engine=engine_b, mu=mu_b,
                     cp_limit=cp_limit_b,
                     technique=args.technique_b or args.technique,
                     seed=args.seed if args.seed_b is None else args.seed_b)
        digests = DigestConfig(epoch_cycles=args.epoch_cycles,
                               capacity=args.capacity)
        digests_b = replace(digests,
                            inject_skew_epoch=args.inject_epoch_skew,
                            inject_skew_cycles=args.skew_cycles)

        tracer_a = tracer_b = None
        if args.trace_out:
            from repro.obs.tracer import RingTracer

            tracer_a, tracer_b = RingTracer(), RingTracer()

        run_b, label_b = job_b, None
        if args.against:
            run_b, label_b = read_trail(args.against), f"trail {args.against}"
        report = diff_runs(job_a, run_b, label_b=label_b, digests=digests,
                           digests_b=digests_b,
                           collect_causes=not args.no_causes,
                           tracer_a=tracer_a, tracer_b=tracer_b)
        if args.save:
            trail_a = report.trail_a
            write_trail(trail_a, args.save)
            print(f"wrote {args.save}: {trail_a.ticks} digest epochs "
                  f"(chain tip {trail_a.chain_tip})")

        print(report.render())
        print(report.summary_line())
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(report.as_dict(), handle, indent=2)
            print(f"wrote {args.json_out}")
        if args.trace_out:
            from repro.obs.export import diff_chrome_trace

            payload = diff_chrome_trace(
                tracer_a.events if tracer_a is not None else [],
                tracer_b.events if tracer_b is not None else [],
                label_a=report.label_a, label_b=report.label_b)
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            print(f"wrote {args.trace_out} (aligned two-run Perfetto "
                  "export)")
        if args.serve:
            from repro.obs.serve import DiffServer

            server = DiffServer(report, host=args.host,
                                port=args.serve_port, title=trace.name)
            with _serving(args, server, "diff report at {url}", "report"):
                pass  # the report is done; serve it for --linger-s
    except (ReproError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if report.identical else 2


def _cmd_calibrate(args) -> int:
    trace = read_trace(args.trace)
    calibration = calibrate_mu(trace, SimulationConfig(), args.cp_limit)
    rows = [
        ["CP-Limit", f"{calibration.cp_limit:.0%}"],
        ["mu", f"{calibration.mu:.3f}"],
        ["mean client response",
         f"{calibration.mean_response_cycles / 1.6e6:.3f} ms"],
        ["requests per client", f"{calibration.requests_per_client:.0f}"],
        ["clients used", calibration.clients],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"CP-Limit calibration for {trace.name}"))
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import build_report, render_report

    try:
        cp_limits = tuple(float(x) for x in args.cp_limits.split(",") if x)
    except ValueError as exc:
        raise ReproError(f"bad --cp-limits list: {exc}") from exc
    trace = read_trace(args.trace)
    report = build_report(trace, cp_limits=cp_limits)
    text = render_report(report)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n(report written to {args.output})")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.cli import cmd_bench

    return cmd_bench(args)


_COMMANDS = {
    "generate": _cmd_generate,
    "replay": _cmd_replay,
    "characterize": _cmd_characterize,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "audit": _cmd_audit,
    "stats": _cmd_stats,
    "watch": _cmd_watch,
    "diff": _cmd_diff,
    "calibrate": _cmd_calibrate,
    "report": _cmd_report,
    "bench": _cmd_bench,
}


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line (``--log-format json``).

    Fields: ``ts`` (epoch seconds), ``level``, ``logger``, ``message``,
    plus ``exc`` with the formatted traceback when one is attached.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": record.created,
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload)


def _configure_logging(level_name: str | None,
                       format_name: str = "text") -> None:
    if format_name not in ("text", "json"):
        # An invalid $REPRO_LOG_FORMAT bypasses argparse's choices=
        # (it becomes the default); degrade rather than crash.
        print(f"warning: unknown log format {format_name!r} ignored "
              "(want text or json)", file=sys.stderr)
        format_name = "text"
    if not level_name:
        if format_name != "json":
            return
        level_name = "info"  # asking for JSON logs implies wanting logs
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        print(f"warning: unknown log level {level_name!r} ignored",
              file=sys.stderr)
        return
    if format_name == "json":
        handler = logging.StreamHandler()
        handler.setFormatter(JsonLogFormatter())
        logging.basicConfig(level=level, handlers=[handler])
    else:
        logging.basicConfig(
            level=level,
            format="%(levelname)s %(name)s: %(message)s")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level, args.log_format)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
