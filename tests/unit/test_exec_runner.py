"""Units for the parallel executor: fault containment, timeouts,
fallback, deduplication, and eager validation."""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import simulate
from repro.analysis.sweep import sweep_cp_limit, sweep_errors
from repro.config import (
    BusConfig,
    MemoryConfig,
    PopularityLayoutConfig,
    SimulationConfig,
)
from repro.errors import ConfigurationError
from repro.exec import SimJob, run_many
from repro.exec import runner as runner_module
from repro.traces.records import ClientRequest, DMATransfer
from repro.traces.trace import Trace

MB = 1 << 20


def tiny_trace() -> Trace:
    clients = {0: ClientRequest(request_id=0, arrival=0.0, base_cycles=1e6)}
    records = [DMATransfer(time=1000.0, page=3, size_bytes=8192,
                           request_id=0),
               DMATransfer(time=5000.0, page=7, size_bytes=8192)]
    return Trace(name="tiny", records=records, clients=clients,
                 duration_cycles=100_000.0)


def tiny_config() -> SimulationConfig:
    return SimulationConfig(
        memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
        buses=BusConfig(count=3))


#: The default job body, kept unpatched for the bodies that wrap it.
run_job = SimJob.run


# Module-level worker bodies: they must be picklable by reference so the
# process pool can ship them to forked/spawned workers.

def explode_on_dma_ta(job: SimJob):
    if job.technique == "dma-ta":
        raise RuntimeError("injected worker fault")
    return run_job(job)


def explode_on_cp_10(job: SimJob):
    if job.cp_limit == 0.10:
        raise RuntimeError("injected sweep fault")
    return run_job(job)


def sleepy(job: SimJob):
    time.sleep(1.0)
    return run_job(job)


def slow_only_if_tagged(job: SimJob):
    """Holds its worker for 5 s on the job tagged ``slow``, 0.5 s on
    every other."""
    time.sleep(5.0 if job.tag == "slow" else 0.5)
    return run_job(job)


def sleeps_only_in_pool_children(job: SimJob):
    """Hangs (briefly) in pool workers, runs clean on the serial path —
    the shape of a wedged child the derived wait bound must contain."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        time.sleep(4.0)
    return run_job(job)


class TestFaultContainment:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_failing_job_does_not_sink_the_batch(self, workers):
        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "dma-ta", config=tiny_config(), mu=2.0),
                SimJob(tiny_trace(), "pl", config=tiny_config())]
        outcomes = run_many(jobs, max_workers=workers,
                            worker=explode_on_dma_ta)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "injected worker fault" in outcomes[1].error
        assert outcomes[1].result is None
        # Outcomes stay in input order regardless of completion order.
        assert [o.job.technique for o in outcomes] == \
            ["baseline", "dma-ta", "pl"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_completes_with_partial_results(self, workers,
                                                  monkeypatch):
        """A worker that raises mid-sweep fails only its own point."""
        monkeypatch.setattr(SimJob, "run", explode_on_cp_10)
        points = sweep_cp_limit(tiny_trace(), [0.05, 0.10, 0.20],
                                ["dma-ta"], config=tiny_config(),
                                max_workers=workers)
        assert len(points) == 3, "no lost jobs"
        oks = [p.ok for p in points]
        assert oks == [True, False, True]
        failed = points[1]
        assert "injected sweep fault" in failed.error
        assert failed.savings != failed.savings  # nan
        assert points[0].baseline is not None
        summary = sweep_errors(points)
        assert "1/3" in summary and "x=0.1" in summary
        assert sweep_errors([points[0], points[2]]) == ""

    def test_timeout_marks_job_failed_without_hanging(self):
        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "pl", config=tiny_config())]
        start = time.monotonic()
        outcomes = run_many(jobs, max_workers=2, timeout_s=0.1,
                            worker=sleepy)
        elapsed = time.monotonic() - start
        assert all(not o.ok for o in outcomes)
        assert all("timed out" in o.error for o in outcomes)
        assert elapsed < 10.0, "no hang"


class TestPoolWaitClock:
    def test_jobs_behind_an_abandoned_worker_get_their_own_clock(self):
        """A job's timeout clock starts when a worker takes it. The pool
        reports a job running as soon as it enters the pool's call
        queue, so the fast jobs queued behind the worker an abandoned
        slow job still holds used to time out without running."""
        jobs = [SimJob(tiny_trace(), "dma-ta", config=tiny_config(),
                       mu=1.0, tag="slow")]
        jobs += [SimJob(tiny_trace(), "dma-ta", config=tiny_config(),
                        mu=2.0 + i, tag=f"fast{i}") for i in range(8)]
        outcomes = run_many(jobs, max_workers=2, timeout_s=1.6,
                            worker=slow_only_if_tagged)
        assert outcomes[0].error == "timed out after 1.6s (result abandoned)"
        assert [o.error for o in outcomes[1:]] == [None] * 8


class TestAbandonedWorkers:
    def test_exit_does_not_wait_for_an_abandoned_worker(self, tmp_path):
        """Interpreter exit joins a pool's workers; a worker still
        running an abandoned job would keep the process alive until that
        job ends (here 60 s)."""
        (tmp_path / "wedge.py").write_text(
            "import multiprocessing, time\n"
            "def wedged_in_pool(job):\n"
            "    if job.tag == 'wedged' and \\\n"
            "            multiprocessing.parent_process() is not None:\n"
            "        time.sleep(60.0)\n"
            "    return job.run()\n")
        script = (
            "from repro.exec import SimJob, run_many\n"
            "from repro.traces.synthetic import synthetic_storage_trace\n"
            "from wedge import wedged_in_pool\n"
            "trace = synthetic_storage_trace(duration_ms=0.5, seed=7)\n"
            "jobs = [SimJob(trace, 'dma-ta', mu=2.0, tag='wedged'),\n"
            "        SimJob(trace, 'baseline')]\n"
            "outcomes = run_many(jobs, max_workers=2, timeout_s=0.5,\n"
            "                    worker=wedged_in_pool)\n"
            "print([o.ok for o in outcomes], flush=True)\n")
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {key: value for key, value in os.environ.items()
               if key != runner_module.START_METHOD_ENV}
        env["PYTHONPATH"] = os.pathsep.join([src, str(tmp_path)])
        start = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, "-c", script], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            out, err = process.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("the process outlived its sweep by the abandoned "
                        "worker's whole job")
        assert process.returncode == 0, err
        assert out.strip() == "[False, True]"
        assert time.monotonic() - start < 30.0


class TestGracefulFallback:
    def test_unpicklable_worker_falls_back_to_serial(self):
        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "pl", config=tiny_config())]
        outcomes = run_many(jobs, max_workers=2,
                            worker=lambda job: job.run())
        assert all(o.ok for o in outcomes)
        assert outcomes[0].result.technique == "baseline"

    def test_unpicklable_job_falls_back_to_serial(self):
        """A payload that fails to pickle inside the pool's feeder
        thread breaks the pool; the jobs re-run serially and shutting
        the pool down does not wait on the failed payloads."""
        jobs = []
        for technique in ("baseline", "pl"):
            trace = tiny_trace()
            trace.unshippable = threading.Lock()
            jobs.append(SimJob(trace, technique, config=tiny_config()))
        outcomes = run_many(jobs, max_workers=2)
        assert all(o.ok for o in outcomes)
        assert [o.result.technique for o in outcomes] == ["baseline", "pl"]


class TestDeduplicationAndOrdering:
    def test_identical_jobs_run_once_and_share_results(self, monkeypatch):
        calls = []

        def counting(job):
            calls.append(job.technique)
            return run_job(job)

        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "dma-ta", config=tiny_config(), mu=2.0),
                SimJob(tiny_trace(), "baseline", config=tiny_config(),
                       tag="same content, different tag")]
        outcomes = run_many(jobs, worker=counting)
        assert calls.count("baseline") == 1
        assert outcomes[0].key == outcomes[2].key
        assert outcomes[0].result is outcomes[2].result

    def test_results_in_input_order(self):
        jobs = [SimJob(tiny_trace(), technique, config=tiny_config())
                for technique in ("pl", "baseline", "nopm")]
        outcomes = run_many(jobs, max_workers=2)
        assert [o.result.technique for o in outcomes] == \
            ["pl", "baseline", "nopm"]


class TestWallTimes:
    def test_computed_jobs_record_wall_seconds(self):
        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "pl", config=tiny_config())]
        outcomes = run_many(jobs)
        assert all(o.ok for o in outcomes)
        assert all(o.wall_s > 0.0 for o in outcomes)

    def test_dedup_followers_have_zero_wall(self):
        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "baseline", config=tiny_config(),
                       tag="duplicate")]
        first, follower = run_many(jobs)
        assert first.wall_s > 0.0
        assert follower.wall_s == 0.0
        assert follower.result is first.result

    def test_cache_hits_have_zero_wall(self, tmp_path):
        from repro.exec.cache import ResultCache

        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config())]
        cache = ResultCache(tmp_path / "cache")
        (cold,) = run_many(jobs, cache=cache)
        assert cold.wall_s > 0.0 and not cold.from_cache
        (warm,) = run_many(jobs, cache=ResultCache(tmp_path / "cache"))
        assert warm.from_cache
        assert warm.wall_s == 0.0


class TestEagerValidation:
    def test_bad_spec_raises_before_any_execution(self):
        calls = []

        def counting(job):
            calls.append(job)
            return run_job(job)

        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "dma-ta", config=tiny_config(),
                       mu=1.0, cp_limit=0.1)]
        with pytest.raises(ConfigurationError, match="job 1"):
            run_many(jobs, worker=counting)
        assert calls == [], "validation must precede all dispatch"

    def test_unknown_technique_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown technique"):
            run_many([SimJob(tiny_trace(), "warp-drive")])

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigurationError):
            run_many([SimJob(tiny_trace(), "dma-ta", mu=-1.0)])

    @pytest.mark.parametrize("engine", ["precise", "precise-scalar"])
    @pytest.mark.parametrize("option, changes", [
        ("buses.sharing", {"buses": BusConfig(count=3, sharing="fair")}),
        ("layout.opportunistic_copies",
         {"layout": PopularityLayoutConfig(opportunistic_copies=True)}),
    ])
    def test_precise_engines_reject_fluid_only_options(self, engine,
                                                       option, changes):
        """The precise engines model FIFO buses and plain page copies;
        they used to ignore these options silently."""
        calls = []

        def counting(job):
            calls.append(job)
            return run_job(job)

        config = dataclasses.replace(tiny_config(), **changes)
        job = SimJob(tiny_trace(), "pl", config=config, engine=engine)
        with pytest.raises(ConfigurationError, match=option):
            run_many([job], max_workers=2, worker=counting)
        assert calls == [], "validation must precede all dispatch"
        with pytest.raises(ConfigurationError, match=option):
            simulate(tiny_trace(), config=config, technique="pl",
                     engine=engine)
        fluid = dataclasses.replace(job, engine="fluid")
        fluid.validate()
        assert fluid.run().engine == "fluid"


class TestDerivedWaitBound:
    def test_silent_pool_job_downgrades_to_serial(self, monkeypatch):
        """With no explicit timeout, a job that never returns from the
        pool must hit the derived wait bound and retry serially —
        run_many can no longer block forever (ROADMAP: pool-hang
        hardening)."""
        monkeypatch.setenv(runner_module.WAIT_FLOOR_ENV, "0.5")
        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "pl", config=tiny_config())]
        start = time.monotonic()
        outcomes = run_many(jobs, worker=sleeps_only_in_pool_children,
                            max_workers=2)
        elapsed = time.monotonic() - start
        assert all(o.ok for o in outcomes)
        assert elapsed < 3.5, "must not wait out the wedged children"

    def test_wait_floor_env_parsing(self, monkeypatch, caplog):
        monkeypatch.setenv(runner_module.WAIT_FLOOR_ENV, "12.5")
        assert runner_module._wait_floor_s() == 12.5
        monkeypatch.setenv(runner_module.WAIT_FLOOR_ENV, "banana")
        with caplog.at_level("WARNING", logger="repro.exec.runner"):
            assert (runner_module._wait_floor_s()
                    == runner_module.DEFAULT_WAIT_FLOOR_S)
        assert "banana" in caplog.text
        monkeypatch.delenv(runner_module.WAIT_FLOOR_ENV)
        assert (runner_module._wait_floor_s()
                == runner_module.DEFAULT_WAIT_FLOOR_S)


class TestStartMethodOverride:
    def test_spawn_context_runs_a_real_batch(self, monkeypatch):
        monkeypatch.setenv(runner_module.START_METHOD_ENV, "spawn")
        context = runner_module.executor_mp_context()
        assert context is not None
        assert context.get_start_method() == "spawn"
        jobs = [SimJob(tiny_trace(), "baseline", config=tiny_config()),
                SimJob(tiny_trace(), "pl", config=tiny_config())]
        outcomes = run_many(jobs, max_workers=2)
        assert all(o.ok for o in outcomes)
        serial = run_many(jobs, max_workers=1)
        assert [o.result.energy.as_dict() for o in outcomes] == \
            [o.result.energy.as_dict() for o in serial]

    def test_unset_means_platform_default(self, monkeypatch):
        monkeypatch.delenv(runner_module.START_METHOD_ENV, raising=False)
        assert runner_module.executor_mp_context() is None

    def test_invalid_start_method_warns_and_falls_back(
            self, monkeypatch, caplog):
        monkeypatch.setenv(runner_module.START_METHOD_ENV, "teleport")
        with caplog.at_level("WARNING", logger="repro.exec.runner"):
            assert runner_module.executor_mp_context() is None
        assert "teleport" in caplog.text
        assert "spawn" in caplog.text  # the valid menu is listed
