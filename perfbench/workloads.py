"""The benchmark's three workloads, run through the public API.

Each workload has a set-up step (trace generation and the traces'
fingerprints, the memoised part of every job key) and a run step (the
``simulate()``/sweep calls plus the check of every output). ``run``
returns an :class:`Outcome`: one :class:`Op` per
``simulate()`` call with its verdict, the number of simulated
DMA-memory requests, a digest of every simulated output, and the
workload's deterministic accuracy figures.

Why these three (see README.md for the full rationale):

* ``fig5-st`` — the paper's headline Figure 5 sweep on OLTP-St, fluid
  engine, DMA-only storage traffic; fixed per-point costs (engine
  construction with its page-layout shuffle, mu calibration, job keys,
  audit) sit next to a short event loop.
* ``xval-db`` — OLTP-Db under all five techniques on both engines; 233
  processor accesses per transfer drive both engines' contention paths
  and make the precise engine's array-timeline kernel cut its windows.
* ``observed-drift`` — one DMA-TA-PL run on a drifting zoo trace with
  telemetry, digests and a strict auditor attached, then its
  unobserved twin; the observers dominate and appear nowhere else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.sweep import sweep_cp_limit
from repro.errors import AuditError
from repro.obs.audit import Auditor, audit_result, audit_summary
from repro.obs.diff import DigestRecorder
from repro.obs.telemetry import TelemetrySampler
from repro.sim.run import TECHNIQUES, simulate
from repro.traces.oltp import oltp_database_trace, oltp_storage_trace
from repro.traces.zoo import drift_diurnal_trace

#: Published Figure 5 savings on OLTP-St (technique -> CP-Limit ->
#: savings); the same points as ``PAPER_SAVINGS`` in
#: ``benchmarks/bench_fig5_savings_vs_cplimit.py``.
PAPER_SAVINGS = {
    "dma-ta": {0.02: 0.06, 0.30: 0.248},
    "dma-ta-pl": {0.02: 0.194, 0.10: 0.386, 0.30: 0.445},
}

#: The Figure 5 CP-Limit grid.
FIG5_CP_LIMITS = (0.02, 0.05, 0.10, 0.20, 0.30)

#: The techniques that take a CP-Limit (the Figure 5 curves).
TA_TECHNIQUES = ("dma-ta", "dma-ta-pl")

#: CP-Limit of the DMA-TA runs in ``xval-db`` and ``observed-drift``.
CP_LIMIT = 0.10

#: How far measured client degradation may exceed its CP-Limit, as in
#: the Figure 5 bench's shape assertion.
DEGRADATION_SLACK = 0.015


@dataclass
class Op:
    """One ``simulate()`` call; ``failure`` names why it failed."""

    label: str
    failure: str | None = None


@dataclass
class Outcome:
    """What one run of a workload produced.

    Attributes:
        ops: one entry per ``simulate()`` call, in call order.
        requests: simulated DMA-memory requests over all calls.
        digest: SHA-256 over every simulated output (breakdowns,
            horizons, request counts, per-chip energy) in call order.
        accuracy: deterministic model-error figures of the workload.
        timings: host seconds of selected calls (``observed-drift``
            records its observed run and the unobserved twin).
    """

    ops: list[Op] = field(default_factory=list)
    requests: int = 0
    digest: str = ""
    accuracy: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(op.failure is not None for op in self.ops)


@dataclass
class Inputs:
    """A workload's generated inputs."""

    traces: dict
    #: ``simulate()`` layout seed (``None``: the API default).
    layout_seed: int | None
    #: Each trace's content fingerprint. Computing it is set-up: it is
    #: memoised on the trace and is what every job key hashes, so a
    #: ``repro`` sweep pays it before its first run.
    fingerprints: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.fingerprints = {name: trace.fingerprint()
                             for name, trace in self.traces.items()}


@dataclass(frozen=True)
class Workload:
    """A named workload: ``setup(seed, size_ms)`` then ``run(inputs)``.

    ``size_ms`` is the trace duration; tests pass a small one.
    ``transfers`` is the mean number of DMA transfers the workload's
    traces hold at ``size_ms`` (over generator seeds 1000-1199).
    """

    name: str
    why: str
    size_ms: float
    transfers: int
    setup: Callable[[int | None, float], Inputs]
    run: Callable[[Inputs], Outcome]


#: Candidate workload seeds per benchmark seed (see :func:`typical_seed`).
SEED_CANDIDATES = 1000

#: How far a typical trace's DMA transfer count may be from the
#: workload's mean, as a share of the mean.
TRANSFER_TOLERANCE = 0.01


def typical_seed(spec: Workload, seed: int) -> int:
    """The workload seed that benchmark seed ``seed`` stands for.

    The trace generators draw arrivals from Poisson processes, so the
    number of DMA transfers in a trace, and with it the work a run
    does, varies with the seed: over generator seeds 1000-1199 its
    interquartile range is 8.7% of the median on OLTP-Db, 7.3% on
    OLTP-St and 6.1% on drift-diurnal at the workloads' sizes. This
    returns the first of ``SEED_CANDIDATES * seed + k`` (k = 0, 1, ...)
    whose traces hold within :data:`TRANSFER_TOLERANCE` of
    ``spec.transfers``, or the closest candidate if none does. A seed
    thus changes which transfers a workload simulates, not how many.
    The search generates traces and is not part of set-up; the chosen
    seed goes to the generators and to ``simulate(seed=...)``.
    """
    closest = (float("inf"), seed)
    for k in range(SEED_CANDIDATES):
        candidate = SEED_CANDIDATES * seed + k
        inputs = spec.setup(candidate, spec.size_ms)
        miss = abs(sum(len(trace.transfers)
                       for trace in inputs.traces.values()) - spec.transfers)
        if miss <= TRANSFER_TOLERANCE * spec.transfers:
            return candidate
        closest = min(closest, (miss, candidate))
    return closest[1]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_result(result, violations=(), baseline=None,
                 cp_limit: float | None = None) -> str | None:
    """Why ``result`` fails the output check, or ``None`` if it passes.

    ``violations`` are the result's audit findings; ``baseline`` and
    ``cp_limit`` enable the client-degradation check of a DMA-TA run.
    """
    if violations:
        return f"audit: {violations[0]}"
    if result.guarantee_violated:
        return "per-request guarantee violated"
    if cp_limit is not None and baseline is not None:
        degradation = result.client_degradation_vs(baseline)
        if degradation > cp_limit + DEGRADATION_SLACK:
            return (f"client degradation {degradation:.4f} exceeds "
                    f"CP-Limit {cp_limit:g} + {DEGRADATION_SLACK}")
    return None


def audit(result) -> tuple[str, ...]:
    return audit_summary(audit_result(result))


def breakdowns_equal(a, b) -> bool:
    """Exact equality of two results' energy and time breakdowns."""
    return (dataclasses.astuple(a.energy) == dataclasses.astuple(b.energy)
            and dataclasses.astuple(a.time) == dataclasses.astuple(b.time))


def result_record(result) -> str:
    """The simulated outputs of one result, with floats exact."""
    values = [result.technique, result.engine, result.duration_cycles,
              result.transfers, result.requests, result.proc_accesses,
              result.mu, result.head_delay_cycles,
              result.extra_service_cycles, result.migrations,
              result.table_flushes, result.wakes, result.guarantee_violated]
    values += dataclasses.astuple(result.energy)
    values += dataclasses.astuple(result.time)
    values += result.chip_energy
    return "|".join(map(repr, values))


class _Run:
    """Accumulates ops, requests and the output digest of one run."""

    def __init__(self) -> None:
        self.outcome = Outcome()
        self._hash = hashlib.sha256()

    def record(self, label: str, result, failure: str | None) -> None:
        self.outcome.ops.append(Op(label, failure))
        line = (f"{label}:failed" if result is None
                else f"{label}:{result_record(result)}")
        self._hash.update(line.encode("ascii") + b"\n")
        if result is not None:
            self.outcome.requests += result.requests

    def call(self, label: str, fn, *args, **kwargs):
        """Run one ``simulate()`` call; a raise is a failed op."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.record(label, None, f"{type(exc).__name__}: {exc}")
            return None

    def done(self) -> Outcome:
        self.outcome.digest = self._hash.hexdigest()
        return self.outcome


def _seeded(seed: int | None, **kwargs) -> dict:
    """Generator keyword arguments, adding ``seed`` unless it is None."""
    if seed is not None:
        kwargs["seed"] = seed
    return kwargs


# ---------------------------------------------------------------------------
# fig5-st
# ---------------------------------------------------------------------------

def setup_fig5(seed: int | None, size_ms: float) -> Inputs:
    trace = oltp_storage_trace(**_seeded(seed, duration_ms=size_ms))
    # sweep_cp_limit takes no layout seed, so fig5-st keeps seed 0.
    return Inputs({"OLTP-St": trace}, None)


def run_fig5(inputs: Inputs) -> Outcome:
    trace = inputs.traces["OLTP-St"]
    run = _Run()
    points = sweep_cp_limit(trace, list(FIG5_CP_LIMITS),
                            list(TA_TECHNIQUES))
    baseline = points[0].baseline if points else None
    if baseline is None:
        run.record("baseline", None, "baseline run failed")
    else:
        run.record("baseline", baseline,
                   check_result(baseline, audit(baseline)))
    errors = []
    for point in points:
        label = f"{point.technique}@cp={point.x:g}"
        if not point.ok:
            run.record(label, None, point.error)
            continue
        run.record(label, point.result,
                   check_result(point.result, point.audit, baseline,
                                point.x))
        published = PAPER_SAVINGS[point.technique].get(point.x)
        if published is not None:
            errors.append(abs(point.savings - published))
    outcome = run.done()
    if errors:
        outcome.accuracy["paper_err"] = sum(errors) / len(errors)
    return outcome


# ---------------------------------------------------------------------------
# xval-db
# ---------------------------------------------------------------------------

_ENGINES = ("precise", "fluid")


def _xval_specs():
    for engine in _ENGINES:
        for technique in TECHNIQUES:
            cp = CP_LIMIT if technique in TA_TECHNIQUES else None
            yield engine, technique, cp


def setup_xval(seed: int | None, size_ms: float) -> Inputs:
    trace = oltp_database_trace(**_seeded(seed, duration_ms=size_ms))
    return Inputs({"OLTP-Db": trace}, seed)


def run_xval(inputs: Inputs) -> Outcome:
    trace = inputs.traces["OLTP-Db"]
    seed = inputs.layout_seed or 0
    run = _Run()
    results: dict[tuple[str, str], object] = {}
    for engine, technique, cp in _xval_specs():
        label = f"{engine}:{technique}"
        result = run.call(label, simulate, trace, technique=technique,
                          engine=engine, cp_limit=cp, seed=seed)
        if result is None:
            continue
        results[engine, technique] = result
        run.record(label, result, check_result(
            result, audit(result), results.get((engine, "baseline")), cp))
    outcome = run.done()
    gaps, stretch = {}, []
    for technique in TECHNIQUES:
        precise = results.get(("precise", technique))
        fluid = results.get(("fluid", technique))
        if precise is None or fluid is None:
            continue
        gaps[technique] = (abs(fluid.energy_joules - precise.energy_joules)
                           / precise.energy_joules)
        stretch.append(precise.duration_cycles / fluid.duration_cycles - 1)
    if gaps:
        outcome.accuracy["engine_gap"] = max(gaps.values())
        outcome.accuracy["sim.horizon_excess"] = max(stretch)
        outcome.accuracy.update(
            {f"sim.gap.{technique}": gap for technique, gap in gaps.items()})
    return outcome


# ---------------------------------------------------------------------------
# observed-drift
# ---------------------------------------------------------------------------

def setup_drift(seed: int | None, size_ms: float) -> Inputs:
    trace = drift_diurnal_trace(**_seeded(seed, duration_ms=size_ms))
    return Inputs({"Drift-Diurnal": trace}, seed)


def run_drift(inputs: Inputs) -> Outcome:
    trace = inputs.traces["Drift-Diurnal"]
    seed = inputs.layout_seed or 0
    run = _Run()
    clock = time.perf_counter

    baseline = run.call("baseline", simulate, trace, technique="baseline",
                        seed=seed)
    if baseline is not None:
        run.record("baseline", baseline,
                   check_result(baseline, audit(baseline)))

    auditor = Auditor(strict=True)
    start = clock()
    observed = run.call("observed", simulate, trace, technique="dma-ta-pl",
                        cp_limit=CP_LIMIT, seed=seed,
                        telemetry=TelemetrySampler(),
                        digests=DigestRecorder(), tracer=auditor)
    observed_s = clock() - start

    start = clock()
    twin = run.call("twin", simulate, trace, technique="dma-ta-pl",
                    cp_limit=CP_LIMIT, seed=seed)
    twin_s = clock() - start

    if observed is not None:
        failure = check_result(observed, audit(observed), baseline,
                               CP_LIMIT)
        if failure is None:
            try:
                report = auditor.finalize(observed)
            except AuditError as exc:
                failure = f"auditor: {exc}"
            else:
                if not report.ok:
                    failure = f"auditor: {report.violations[0].kind}"
        if failure is None and twin is not None \
                and not breakdowns_equal(observed, twin):
            failure = "observed breakdowns differ from the unobserved twin"
        run.record("observed", observed, failure)
    if twin is not None:
        run.record("twin", twin,
                   check_result(twin, audit(twin), baseline, CP_LIMIT))
    outcome = run.done()
    outcome.timings = {"observed_s": observed_s, "twin_s": twin_s}
    return outcome


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("fig5-st",
                 "Figure 5 CP-Limit sweep on 10 ms of OLTP-St: fluid "
                 "engine, DMA-only traffic, per-point fixed costs",
                 10.0, 534, setup_fig5, run_fig5),
        Workload("xval-db",
                 "3 ms of OLTP-Db, five techniques on the precise and "
                 "fluid engines: processor contention and the engine gap",
                 3.0, 301, setup_xval, run_xval),
        Workload("observed-drift",
                 "DMA-TA-PL on 6 ms of drift-diurnal with telemetry, "
                 "digests and a strict auditor, then its unobserved twin",
                 6.0, 601, setup_drift, run_drift),
    )
}
