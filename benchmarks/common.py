"""Shared infrastructure for the reproduction benches.

Each bench regenerates one of the paper's tables or figures: it runs the
simulations under ``pytest-benchmark`` (one round — these are full
simulations, not microbenchmarks), prints the regenerated rows/series,
and archives them under ``benchmarks/results/`` **twice**: the
human-readable table as ``<name>.txt`` and a schema-versioned
:class:`repro.bench.BenchRecord` as ``<name>.json`` — the machine-
readable record that ``repro bench compare`` classifies against the
committed ``BENCH_<figure>.json`` trajectories (see docs/BENCHMARKS.md).
Both writes are atomic (temp file + rename), so an interrupted bench can
never leave a truncated artifact that later parses as a bogus baseline.

Simulation runs go through :mod:`repro.exec`: every run is memoised by
its *content* key (trace bytes + canonical config + technique params),
so all benches in one session share a single baseline run per (trace,
config) pair, and a bench can prefetch its whole grid through the
parallel executor. Knobs (see docs/EXECUTION.md):

* ``REPRO_BENCH_MS`` — trace duration in ms (default 25). Longer traces
  amortise PL's one-time migration cost and sharpen every estimate, at a
  linear cost in wall-clock time.
* ``REPRO_BENCH_JOBS`` — worker processes for prefetched grids
  (default 1 = serial).
* ``REPRO_BENCH_CACHE`` — set to 1 to persist results in the on-disk
  cache (``$REPRO_CACHE_DIR`` or ``.repro_cache/``) across sessions.

Each record also sums the wall-clock ledgers (``result.wall``, see
:mod:`repro.obs.wall`) of the simulations its bench computed into a
``wall`` block.
"""

from __future__ import annotations

import datetime
import os
import platform
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro import __version__
from repro.bench import BenchRecord, Metric, Phase
from repro.bench.trajectory import write_json_atomic
from repro.config import SimulationConfig
from repro.exec import ResultCache, SimJob, run_many
from repro.obs.audit import audit_result, audit_summary
from repro.sim.results import SimulationResult
from repro.traces.oltp import oltp_database_trace, oltp_storage_trace
from repro.traces.synthetic import synthetic_database_trace, synthetic_storage_trace
from repro.traces.trace import Trace
from repro.traces.zoo import ZOO

RESULTS_DIR = Path(__file__).parent / "results"

#: Trace duration for every bench, in milliseconds.
BENCH_MS = float(os.environ.get("REPRO_BENCH_MS", "25"))

#: Worker processes used by :func:`prefetch_grid` (1 = serial).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Whether bench runs persist results in the on-disk cache.
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", "0").lower() not in (
    "", "0", "no", "false")

#: The CP-Limit grid of Figures 5 and 7.
CP_LIMITS = (0.02, 0.05, 0.10, 0.20, 0.30)

_TRACE_CACHE: dict[str, Trace] = {}
#: In-session result memo, keyed by content (SimJob.key()).
_RUN_CACHE: dict[str, SimulationResult] = {}
#: The shared on-disk cache (None when REPRO_BENCH_CACHE is off).
DISK_CACHE: ResultCache | None = ResultCache() if BENCH_CACHE else None


class _SessionStats:
    """Per-record accumulators for the bench session.

    ``run_cached`` / ``prefetch_grid`` feed it executor outcomes; each
    :func:`save_record` call drains the accumulated state, so counters
    and wall-clock attribute to the bench that triggered the work even
    though the memo is shared across benches.
    """

    def __init__(self) -> None:
        self.memo_hits = 0
        self.memo_misses = 0
        self.disk_base: dict[str, int] = self._disk_counts()
        self.wall: dict[str, float] = {}
        self.audited = 0
        self.audit_findings: list[str] = []

    @staticmethod
    def _disk_counts() -> dict[str, int]:
        return DISK_CACHE.stats.as_dict() if DISK_CACHE else {}

    def note_outcomes(self, outcomes) -> None:
        for outcome in outcomes:
            if outcome.ok and outcome.wall_s > 0:
                # Computed here: neither a cache hit nor a deduplicated
                # follower (both report wall_s 0).
                self.wall["runs"] = self.wall.get("runs", 0) + 1
                for phase, seconds in outcome.result.wall.parts().items():
                    self.wall[phase] = self.wall.get(phase, 0.0) + seconds
            if outcome.ok:
                self.audited += 1
                for finding in audit_summary(audit_result(outcome.result)):
                    line = f"{outcome.job.tag or outcome.job.technique}: " \
                           f"{finding}"
                    if line not in self.audit_findings:
                        self.audit_findings.append(line)

    def drain(self) -> tuple[dict[str, int], dict[str, float], dict]:
        """(cache counters, wall-ledger sums, audit block) accumulated
        since the previous drain."""
        counts = {"memo_hits": self.memo_hits,
                  "memo_misses": self.memo_misses}
        disk_now = self._disk_counts()
        for key, value in disk_now.items():
            counts[f"disk_{key}"] = value - self.disk_base.get(key, 0)
        wall = self.wall
        audit = {"checked": self.audited,
                 "findings": list(self.audit_findings)}
        self.memo_hits = self.memo_misses = 0
        self.disk_base = disk_now
        self.wall = {}
        self.audited = 0
        self.audit_findings = []
        return counts, wall, audit


_SESSION = _SessionStats()


def get_trace(name: str, **overrides) -> Trace:
    """Build (and cache) an evaluation trace by name.

    Accepts the paper's four traces (``OLTP-St`` ... ``Synthetic-Db``)
    plus every workload-zoo family name (``kv-store``, ``drift-diurnal``,
    ...; see docs/WORKLOADS.md).
    """
    key = f"{name}:{sorted(overrides.items())}"
    if key not in _TRACE_CACHE:
        duration = overrides.pop("duration_ms", BENCH_MS)
        makers = {
            "OLTP-St": lambda: oltp_storage_trace(duration_ms=duration,
                                                  **overrides),
            "OLTP-Db": lambda: oltp_database_trace(duration_ms=duration,
                                                   **overrides),
            "Synthetic-St": lambda: synthetic_storage_trace(
                duration_ms=duration, **overrides),
            "Synthetic-Db": lambda: synthetic_database_trace(
                duration_ms=duration, **overrides),
        }
        for family, generator in ZOO.items():
            makers[family] = (
                lambda g=generator: g(duration_ms=duration, **overrides))
        _TRACE_CACHE[key] = makers[name]()
    return _TRACE_CACHE[key]


def _require(outcomes) -> None:
    failed = [o for o in outcomes if not o.ok]
    if failed:
        details = "; ".join(
            f"{o.job.technique}[{o.job.tag}]: {o.error}" for o in failed)
        raise RuntimeError(f"{len(failed)} bench run(s) failed: {details}")


def run_cached(trace: Trace, technique: str,
               config: SimulationConfig | None = None,
               cp_limit: float | None = None,
               label: str | None = None) -> SimulationResult:
    """Run a simulation once per unique content (trace, config, params).

    ``label`` is carried as a job tag for error messages only — unlike
    the old identity-based memo, the content key already distinguishes
    every input that matters (including the config).
    """
    job = SimJob(trace, technique, config=config, cp_limit=cp_limit,
                 tag=label or "")
    key = job.key()
    if key not in _RUN_CACHE:
        _SESSION.memo_misses += 1
        outcomes = run_many([job], cache=DISK_CACHE)
        _require(outcomes)
        _SESSION.note_outcomes(outcomes)
        _RUN_CACHE[key] = outcomes[0].result
    else:
        _SESSION.memo_hits += 1
    return _RUN_CACHE[key]


def prefetch_grid(traces, techniques, cp_limits,
                  config: SimulationConfig | None = None) -> None:
    """Warm the memo for a whole (trace x technique x CP-Limit) grid.

    Builds one baseline job per trace plus one job per grid point and
    executes them through :func:`repro.exec.run_many` with
    ``REPRO_BENCH_JOBS`` workers and the shared on-disk cache. Later
    :func:`run_cached` calls for the same points are memo hits, so
    benches keep their serial-looking bodies while the heavy lifting
    runs in parallel.
    """
    jobs = []
    for trace in traces:
        jobs.append(SimJob(trace, "baseline", config=config,
                           tag=f"{trace.name}:baseline"))
        for technique in techniques:
            for cp in cp_limits:
                jobs.append(SimJob(trace, technique, config=config,
                                   cp_limit=cp,
                                   tag=f"{trace.name}:cp={cp:g}"))
    _SESSION.memo_misses += len({job.key() for job in jobs}
                                - set(_RUN_CACHE))
    outcomes = run_many(jobs, max_workers=BENCH_JOBS, cache=DISK_CACHE)
    _require(outcomes)
    _SESSION.note_outcomes(outcomes)
    for outcome in outcomes:
        _RUN_CACHE[outcome.key] = outcome.result


def save_report(name: str, text: str) -> None:
    """Print the regenerated table and archive it under results/.

    The archive write is atomic: the text lands in a temp file in the
    same directory and is renamed into place, so an interrupted bench
    never leaves a truncated ``.txt``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    fd, tmp_name = tempfile.mkstemp(dir=RESULTS_DIR, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    print(f"\n===== {name} =====")
    print(text)


class Stopwatch:
    """Named wall-clock phases for one bench's JSON record."""

    def __init__(self) -> None:
        self._phases: list[tuple[str, float]] = []

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._phases.append((name, time.perf_counter() - start))

    @property
    def phases(self) -> list[tuple[str, float]]:
        return list(self._phases)


def metric(name: str, value: float, unit: str = "",
           expected: float | None = None) -> Metric:
    """One record metric; ``expected`` is the paper's published value."""
    return Metric(name=name, value=float(value), unit=unit,
                  expected=expected)


def save_record(name: str, figure: str, metrics: list[Metric],
                phases: list[tuple[str, float]] | None = None,
                fleet: dict | None = None) -> Path:
    """Archive one bench run as ``results/<name>.json`` (atomically).

    ``phases`` are the bench's own stopwatch phases, which time its
    simulations with everything else it does; the cache counters and
    the summed wall-clock ledgers of the runs computed since the
    previous record are added (the ledgers kept out of ``phases``, so
    no run is counted twice). ``fleet`` is an optional
    :meth:`repro.obs.fleet.FleetReport.as_dict` rollup from a
    fleet-observed sweep the bench ran.
    """
    cache_counts, wall, audit = _SESSION.drain()
    if audit["findings"]:
        print(f"\naudit: {len(audit['findings'])} finding(s) in "
              f"{name}:")
        for line in audit["findings"]:
            print(f"  {line}")
    all_phases = [Phase(name=pname, wall_s=wall)
                  for pname, wall in (phases or [])]
    record = BenchRecord(
        name=name, figure=figure,
        created=datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        meta={
            "bench_ms": BENCH_MS,
            "jobs": BENCH_JOBS,
            "disk_cache": BENCH_CACHE,
            "python": platform.python_version(),
            "repro": __version__,
        },
        metrics=list(metrics),
        phases=all_phases,
        cache=cache_counts,
        wall=wall,
        audit=audit,
        fleet=dict(fleet) if fleet else {},
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    write_json_atomic(path, record.to_dict())
    return path


def percent(value: float) -> str:
    return f"{value * 100:6.1f}%"
