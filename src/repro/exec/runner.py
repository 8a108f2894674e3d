"""The parallel sweep executor.

:func:`run_many` takes a list of :class:`~repro.exec.jobs.SimJob` specs
and returns one :class:`JobOutcome` per job, **in input order**, no
matter how execution was scheduled. The pipeline is:

1. **validate** every spec eagerly (bad jobs raise
   :class:`~repro.errors.ConfigurationError` in the submitting process,
   before anything runs);
2. **deduplicate** by content key, so e.g. a shared baseline run appears
   once in the work list however many sweep points reference it;
3. **probe the cache** (when one is given) for each unique key;
4. **execute** the remaining jobs — serially, or fanned out over a
   ``concurrent.futures.ProcessPoolExecutor`` when ``max_workers > 1``;
5. **store** fresh results back into the cache.

Failure containment: an exception raised inside one job is captured on
that job's outcome (``error``) and every other job still completes. A
*pool* failure — a broken worker process, an unpicklable payload, or an
environment where processes cannot be spawned at all — degrades
gracefully: the affected and remaining jobs are re-run serially in the
submitting process instead.

Hang containment: the submitter never waits unboundedly on the pool.
An explicit per-job ``timeout_s`` marks an overrunning job failed and
abandons its eventual result. With ``timeout_s=None`` (the default) a
*derived* wait bound applies instead — generous (the larger of
:data:`DEFAULT_WAIT_FLOOR_S` and 20x the slowest job observed so far,
floor overridable via ``REPRO_EXEC_WAIT_FLOOR_S``) — and a job that
exceeds it is *downgraded*, not failed: its future is cancelled and the
job re-runs on the serial path in the submitting process. Timeouts and
wait bounds apply to pool execution only — the serial path runs each
job to completion.

The pool's start method follows the platform default; set
``REPRO_EXEC_START_METHOD=spawn`` (or ``forkserver``/``fork``) to
override — useful where fork inherits problematic state (threads, CUDA
handles) into workers.

Fleet observability: pass a :class:`~repro.obs.fleet.FleetCollector` as
``fleet=``. Every job, serial or pooled, observed or not, runs through
one body, :func:`_run_job`. Under a fleet it also posts liveness
messages (``job.started``, ``job.finished``, and ``job.heartbeat``
while it runs in a pool worker) and returns its trace spans with its
result. The runner reports each job's outcome to the collector exactly
once (:meth:`~repro.obs.fleet.FleetCollector.settle`), wherever it
settles the key, so a late message from an abandoned worker cannot
change it. The collector's heartbeat watchdog can declare a silent
worker stalled; the runner then cancels that job's future and requeues
it onto the serial path, so a frozen worker costs one requeue instead
of the whole sweep.
"""

from __future__ import annotations

import concurrent.futures
import functools
import logging
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.jobs import SimJob, validate_jobs
from repro.sim.results import SimulationResult
from repro.sim.run import simulate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.fleet import FleetCollector

#: Exceptions that indict the pool machinery rather than the job itself;
#: jobs failing this way are retried serially in-process. AttributeError
#: and TypeError are how pickle reports an unshippable payload (local
#: function, closure, lock, ...); a genuine in-worker error of those
#: types just gets one redundant serial retry with the same outcome.
_POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError, OSError,
                  AttributeError, TypeError)

#: Environment override of the pool's multiprocessing start method.
START_METHOD_ENV = "REPRO_EXEC_START_METHOD"

#: Environment override of the derived wait bound's floor (seconds).
WAIT_FLOOR_ENV = "REPRO_EXEC_WAIT_FLOOR_S"

#: Default floor of the derived pool wait bound. Generous on purpose:
#: it exists to catch pool deadlocks, not slow jobs.
DEFAULT_WAIT_FLOOR_S = 120.0

#: Derived bound = max(floor, this factor x slowest observed job wall).
_WAIT_WALL_FACTOR = 20.0

#: Poll period of the pool wait loop (also bounds stall-requeue latency).
_POLL_S = 0.05

logger = logging.getLogger(__name__)


@dataclass
class JobOutcome:
    """What happened to one job.

    Attributes:
        job: the submitted spec.
        key: the job's content key (shared by deduplicated jobs).
        result: the simulation result, or ``None`` if the job failed.
        error: ``None`` on success, else a one-line failure description.
        from_cache: the result was loaded from the on-disk cache rather
            than computed in this call.
        wall_s: wall-clock seconds the job's worker spent computing the
            result (0.0 for cache hits, failures, and deduplicated
            followers of an already-computed key).
    """

    job: SimJob
    key: str
    result: SimulationResult | None = None
    error: str | None = None
    from_cache: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


def _execute(job: SimJob, tracer=None) -> SimulationResult:
    """The default job body: one fully-specified simulate() call."""
    return simulate(job.trace, config=job.config, technique=job.technique,
                    engine=job.engine, mu=job.mu, cp_limit=job.cp_limit,
                    seed=job.seed, tracer=tracer)


#: ``(queue, inject_stall_tag, inject_stall_s)`` in a pool worker that
#: a fleet observes; installed by :func:`_observe_worker`.
_POOL_FLEET: tuple[Any, str, float] | None = None


def _observe_worker(fleet_queue, stall_tag: str, stall_s: float) -> None:
    """Pool initializer under a fleet: post liveness to ``fleet_queue``."""
    global _POOL_FLEET
    _POOL_FLEET = (fleet_queue, stall_tag, stall_s)


def _put(fleet_queue, message: dict) -> None:
    """Post one message; observation must never fail the job."""
    try:
        fleet_queue.put(message)
    except Exception:  # parent gone / queue closed
        pass


def _heartbeat(post: Callable[[dict], None], pid: int, key: str,
               stop: threading.Event, period_s: float) -> None:
    while not stop.wait(period_s):
        post({"kind": "job.heartbeat", "worker": pid, "key": key,
              "mono": time.monotonic()})


def _run_job(worker: Callable[..., SimulationResult], job: SimJob,
             key: str, spans: bool = False,
             post: Callable[[dict], None] | None = None,
             ) -> tuple[SimulationResult, float, dict[str, Any] | None]:
    """The one job body, serial or pooled: run ``worker(job)``, timed.

    Returns ``(result, wall_s, observed)``; exceptions propagate
    unchanged. ``observed`` is ``None`` unless a fleet observes the
    job: serially through ``post`` (the collector's
    :meth:`~repro.obs.fleet.FleetCollector.handle`), in a pool worker
    through the queue :func:`_observe_worker` installed. An observed
    job posts ``job.started`` and ``job.finished``, and
    ``job.heartbeat`` while it runs in a pool worker; with ``spans``
    the default body runs under a ring tracer. ``observed`` names the
    worker process, the job's ``time.monotonic()`` start and end, and
    the retained spans.
    """
    pooled = post is None and _POOL_FLEET is not None
    if pooled:
        fleet_queue, stall_tag, stall_s = _POOL_FLEET
        post = functools.partial(_put, fleet_queue)
    if post is None:
        start = time.perf_counter()
        result = worker(job)
        return result, time.perf_counter() - start, None

    from repro.obs.fleet import HEARTBEAT_S, SPAN_CAPACITY
    from repro.obs.tracer import RingTracer

    pid = os.getpid()
    started = time.monotonic()
    post({"kind": "job.started", "worker": pid, "key": key,
          "mono": started})
    stop = threading.Event()
    if pooled:
        if job.label == stall_tag:
            # Freeze *without* heartbeats so the watchdog sees a dead worker.
            time.sleep(stall_s)
        threading.Thread(target=_heartbeat,
                         args=(post, pid, key, stop, HEARTBEAT_S),
                         name="fleet-heartbeat", daemon=True).start()
    tracer = RingTracer(capacity=SPAN_CAPACITY) if spans else None
    start = time.perf_counter()
    try:
        result = worker(job, tracer=tracer) if spans else worker(job)
        wall = time.perf_counter() - start
    finally:
        stop.set()
        finished = time.monotonic()
        post({"kind": "job.finished", "worker": pid, "key": key,
              "mono": finished})
    return result, wall, {
        "worker": pid, "started": started, "finished": finished,
        "spans": [event.as_dict() for event in tracer.events]
        if spans else [],
    }


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def executor_mp_context():
    """The multiprocessing context the pool should use, or ``None``.

    ``None`` means "the platform default". ``REPRO_EXEC_START_METHOD``
    selects an explicit start method (``spawn``, ``forkserver``,
    ``fork``); an invalid value is ignored with a warning rather than
    failing the sweep.
    """
    name = os.environ.get(START_METHOD_ENV, "").strip()
    if not name:
        return None
    try:
        return multiprocessing.get_context(name)
    except ValueError:
        logger.warning(
            "ignoring %s=%r (valid start methods: %s)", START_METHOD_ENV,
            name, ", ".join(multiprocessing.get_all_start_methods()))
        return None


def _wait_floor_s() -> float:
    """The derived wait bound's floor (env-overridable, for tests)."""
    raw = os.environ.get(WAIT_FLOOR_ENV, "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            value = -1.0
        if value > 0:
            return value
        logger.warning("ignoring %s=%r (want a positive number of "
                       "seconds)", WAIT_FLOOR_ENV, raw)
    return DEFAULT_WAIT_FLOOR_S


def run_many(
    jobs: Iterable[SimJob],
    max_workers: int | None = None,
    cache: ResultCache | None = None,
    timeout_s: float | None = None,
    worker: Callable[[SimJob], SimulationResult] | None = None,
    fleet: "FleetCollector | None" = None,
) -> list[JobOutcome]:
    """Run many simulations, possibly in parallel, possibly cached.

    Args:
        jobs: the job specs; the returned list matches their order.
        max_workers: process-pool width; ``None`` or ``1`` runs serially
            in this process (deterministic and dependency-free), ``> 1``
            fans unique jobs out over worker processes.
        cache: optional :class:`~repro.exec.cache.ResultCache`; hits skip
            execution entirely and fresh results are stored back. ``None``
            disables all cache reads **and** writes.
        timeout_s: explicit per-job wait bound for pool execution; an
            overrunning job is marked failed and its result abandoned.
            ``None`` (default) applies the generous *derived* bound
            instead, which downgrades overrunning jobs to the serial
            path rather than failing them (see module docstring).
        worker: override of the job body, mainly for fault-injection
            tests; must be picklable for pool execution (a module-level
            function). Defaults to running :func:`repro.simulate`.
        fleet: optional :class:`~repro.obs.fleet.FleetCollector`; every
            job then posts liveness to it (the default body also ships
            its trace spans with its result), the runner reports each
            outcome to it once, and its watchdog can requeue stalled
            jobs onto the serial path.

    Returns:
        One :class:`JobOutcome` per input job, in input order. Identical
        jobs (same content key) are computed once and share a result.

    Raises:
        ConfigurationError: if any job spec is invalid (raised before
            any job runs).
    """
    jobs = list(jobs)
    validate_jobs(jobs)
    keys = [job.key() for job in jobs]
    first_job: dict[str, SimJob] = {}  # unique keys, first-appearance order
    for job, key in zip(jobs, keys):
        first_job.setdefault(key, job)
    batch = _Batch(first_job, worker, fleet)

    if fleet is not None:
        fleet.start()
        fleet.expect(len(first_job))
        for key, job in first_job.items():
            fleet.note_submitted(key, job)

    if cache is not None:
        for key in first_job:
            hit = cache.get(key)
            if hit is not None:
                batch.settle(key, hit, from_cache=True)

    pending = [key for key in first_job if key not in batch.done]
    try:
        if len(pending) <= 1 or not max_workers or max_workers <= 1:
            for key in pending:
                batch.run_serially(key)
        else:
            _run_pool(batch, pending, min(max_workers, len(pending)),
                      timeout_s)
    finally:
        if fleet is not None:
            fleet.quiesce()

    if cache is not None:
        for key in pending:
            if batch.done[key].ok:
                cache.put(key, batch.done[key].result)

    outcomes = []
    seen: set[str] = set()
    for job, key in zip(jobs, keys):
        first = batch.done[key]
        outcomes.append(replace(first, job=job,
                                wall_s=0.0 if key in seen else first.wall_s))
        seen.add(key)
    return outcomes


class _Batch:
    """The unique jobs of one :func:`run_many` call and their outcomes.

    :meth:`settle` is the one place a key gets its outcome, so the fleet
    (when one observes the batch) hears each outcome exactly once.
    """

    def __init__(self, first_job: dict[str, SimJob],
                 worker: Callable[[SimJob], SimulationResult] | None,
                 fleet: "FleetCollector | None") -> None:
        self.first_job = first_job
        self.spans = worker is None  # only the default body is traced
        self.worker = worker or _execute
        self.fleet = fleet
        self.done: dict[str, JobOutcome] = {}

    def settle(self, key: str, result: SimulationResult | None = None,
               wall_s: float = 0.0, observed: dict[str, Any] | None = None,
               *, error: str | None = None, from_cache: bool = False,
               requeued: bool = False) -> None:
        outcome = JobOutcome(self.first_job[key], key, result, error,
                             from_cache, wall_s)
        self.done[key] = outcome
        if self.fleet is not None:
            self.fleet.settle(outcome, observed, requeued=requeued)

    def run_serially(self, key: str, requeued: bool = False) -> None:
        post = self.fleet.handle if self.fleet is not None else None
        try:
            ran = _run_job(self.worker, self.first_job[key], key,
                           self.spans, post)
        except Exception as exc:
            self.settle(key, error=_describe(exc), requeued=requeued)
        else:
            self.settle(key, *ran, requeued=requeued)


def _run_pool(batch: _Batch, pending: Sequence[str], max_workers: int,
              timeout_s: float | None) -> None:
    """Fan ``pending`` out over a process pool, settling every key.

    Any pool-machinery failure (see :data:`_POOL_FAILURES`) downgrades
    the affected and remaining jobs to the serial path. The wait loop
    polls with :func:`concurrent.futures.wait` so it can, between
    completions: record when each job actually starts running, expire
    jobs past their explicit timeout or derived wait bound, and requeue
    jobs the fleet watchdog has declared stalled.
    """
    try:
        # An unshippable worker fails every job: find out here, before a
        # pool exists, rather than from the pool's queue-feeder thread.
        pickle.dumps(batch.worker)
    except _POOL_FAILURES as exc:
        logger.warning("worker cannot be sent to a process pool (%s); "
                       "running %d jobs serially", _describe(exc),
                       len(pending))
        for key in pending:
            batch.run_serially(key)
        return

    fleet = batch.fleet
    kwargs: dict = {"max_workers": max_workers}
    context = executor_mp_context()
    if context is not None:
        kwargs["mp_context"] = context
    if fleet is not None:
        kwargs["initializer"] = _observe_worker
        kwargs["initargs"] = (fleet.queue, fleet.config.inject_stall_tag,
                              fleet.config.inject_stall_s)
    try:
        executor = concurrent.futures.ProcessPoolExecutor(**kwargs)
    except _POOL_FAILURES + (RuntimeError,) as exc:
        logger.warning("process pool unavailable (%s); running %d jobs "
                       "serially", _describe(exc), len(pending))
        for key in pending:
            batch.run_serially(key)
        return

    pool_broken = False
    abandoned = False  # a running worker's result was given up on
    waiting: dict[str, concurrent.futures.Future] = {}
    submitted_at: dict[str, float] = {}
    started_at: dict[str, float] = {}

    def give_up(key: str) -> None:
        nonlocal abandoned
        if not waiting.pop(key).cancel():
            abandoned = True

    try:
        try:
            for key in pending:
                waiting[key] = executor.submit(
                    _run_job, batch.worker, batch.first_job[key], key,
                    batch.spans)
                submitted_at[key] = time.monotonic()
        except _POOL_FAILURES as exc:
            logger.warning("pool submission failed (%s); running %d jobs "
                           "serially", _describe(exc), len(pending))
            pool_broken = True

        wait_floor = _wait_floor_s()
        max_wall = 0.0
        last_done = time.monotonic()

        while waiting and not pool_broken:
            done, _ = concurrent.futures.wait(
                list(waiting.values()), timeout=_POLL_S,
                return_when=concurrent.futures.FIRST_COMPLETED)
            now = time.monotonic()
            for key in [k for k, f in waiting.items() if f in done]:
                future = waiting.pop(key)
                last_done = now
                try:
                    ran = future.result()
                except _POOL_FAILURES as exc:
                    logger.warning("pool broke (%s); downgrading "
                                   "remaining jobs to serial execution",
                                   _describe(exc))
                    pool_broken = True
                    batch.run_serially(key)
                except concurrent.futures.CancelledError:
                    batch.run_serially(key)
                except Exception as exc:
                    batch.settle(key, error=_describe(exc))
                else:
                    max_wall = max(max_wall, ran[1])
                    batch.settle(key, *ran)
            if pool_broken:
                break

            for key, future in waiting.items():
                if key not in started_at and future.running():
                    started_at[key] = now

            if fleet is not None:
                for key in fleet.take_stalled():
                    if key in waiting:  # else completed while flagged
                        give_up(key)
                        batch.run_serially(key, requeued=True)

            # A queued job's wait clock starts when the pool last made
            # progress — it could not have started any earlier.
            def wait_ref(key: str) -> float:
                return started_at.get(
                    key, max(submitted_at[key], last_done))

            if timeout_s is not None:
                for key in list(waiting):
                    if now - wait_ref(key) <= timeout_s:
                        continue
                    logger.warning("job %s timed out after %gs", key[:12],
                                   timeout_s)
                    give_up(key)
                    batch.settle(key, error=f"timed out after "
                                 f"{timeout_s:g}s (result abandoned)")
            else:
                bound = max(wait_floor, _WAIT_WALL_FACTOR * max_wall)
                for key in list(waiting):
                    if now - wait_ref(key) <= bound:
                        continue
                    logger.warning(
                        "job %s exceeded the %.0fs pool wait bound; "
                        "retrying it serially", key[:12], bound)
                    give_up(key)
                    batch.run_serially(key, requeued=True)

        if pool_broken:
            for future in waiting.values():
                future.cancel()
            waiting.clear()
            for key in pending:
                if key not in batch.done:
                    batch.run_serially(key)
    finally:
        # Abandoned workers may be wedged mid-job: don't block shutdown
        # on them (their processes are reaped at interpreter exit). A
        # broken pool has already cancelled its queued futures above;
        # cancel_futures=True would also swap the pool's pending-item map
        # for a copy, and a payload that then fails to pickle is removed
        # from the original only, so shutdown would wait on it forever.
        executor.shutdown(wait=not abandoned, cancel_futures=abandoned)
