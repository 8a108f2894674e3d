"""Units for cross-process fleet observability.

The job body (:func:`repro.exec.runner._run_job`) runs in-process
against a plain list or queue, collector logic is driven directly
through :meth:`FleetCollector.handle` and :meth:`FleetCollector.settle`
(the watchdog on an injectable fake clock), and one round-trip test
ships real messages through the multiprocessing queue the pool uses.
"""

import dataclasses
import math
import os
import pickle
import queue
import threading
import time

import pytest

from repro.config import BusConfig, MemoryConfig, SimulationConfig
from repro.errors import ConfigurationError
from repro.exec import run_many
from repro.exec import runner as runner_module
from repro.exec.jobs import SimJob
from repro.exec.runner import JobOutcome, _observe_worker, _run_job
from repro.obs.export import validate_chrome_trace
from repro.obs.fleet import (
    HEARTBEAT_S,
    STALL_FLOOR_S,
    FleetCollector,
    FleetConfig,
)
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

MB = 1 << 20


def tiny_trace() -> Trace:
    records = [DMATransfer(time=1000.0, page=3, size_bytes=8192),
               ProcessorBurst(time=2000.0, page=3, count=4),
               DMATransfer(time=5000.0, page=7, size_bytes=8192)]
    return Trace(name="tiny", records=records, duration_cycles=100_000.0)


def tiny_config() -> SimulationConfig:
    return SimulationConfig(
        memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
        buses=BusConfig(count=3))


def tiny_job(technique: str = "baseline", tag: str = "") -> SimJob:
    return SimJob(tiny_trace(), technique, config=tiny_config(), tag=tag)


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def pool_worker():
    """Make this process look like a fleet-observed pool worker posting
    to a plain queue; restore after."""
    q = queue.Queue()
    _observe_worker(q, "", 0.0)
    yield q
    runner_module._POOL_FLEET = None


def drain(q) -> list[dict]:
    out = []
    while True:
        try:
            out.append(q.get_nowait())
        except queue.Empty:
            return out


def outcome(job, result=None, error=None, wall_s=0.0, from_cache=False):
    return JobOutcome(job, job.key(), result, error, from_cache, wall_s)


def observed(pid, started, finished, spans=()):
    return {"worker": pid, "started": started, "finished": finished,
            "spans": list(spans)}


def started(job, pid, mono):
    return {"kind": "job.started", "worker": pid, "key": job.key(),
            "mono": mono}


class TestFleetConfig:
    def test_defaults_are_valid(self):
        # Only the settings repro sweep exposes remain.
        assert [f.name for f in dataclasses.fields(FleetConfig())] == \
            ["stall_after_s", "inject_stall_tag", "inject_stall_s"]

    @pytest.mark.parametrize("kwargs", [
        {"stall_after_s": 0.0},
        {"stall_after_s": -1.0},
        {"stall_after_s": math.nan},  # would flag every running job
        {"inject_stall_s": -1.0},
        {"inject_stall_s": math.nan},
        {"inject_stall_s": math.inf, "inject_stall_tag": "x"},
        {"inject_stall_s": 2.0},  # a freeze with no job to freeze
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetConfig(**kwargs)


class TestWorkerWrapper:
    def test_streams_started_and_finished_with_spans(self):
        messages = []
        job = SimJob(tiny_trace(), "dma-ta", config=tiny_config(),
                     mu=1.0, tag="mu=1:dma-ta")
        result, wall, seen = _run_job(SimJob.run, job, job.key(), True,
                                      messages.append)
        assert result.technique == "dma-ta"
        assert wall > 0
        assert [m["kind"] for m in messages] == ["job.started",
                                                 "job.finished"]
        assert {m["key"] for m in messages} == {job.key()}
        assert seen["worker"] == os.getpid()
        assert seen["started"] == messages[0]["mono"]
        assert seen["finished"] == messages[1]["mono"] >= seen["started"]
        assert seen["spans"], "ring-tracer spans must ship"
        # Everything on the wire must survive the pickle boundary.
        for message in messages + [seen]:
            assert pickle.loads(pickle.dumps(message)) == message

    def test_observed_body_matches_plain_run_exactly(self):
        job = SimJob(tiny_trace(), "dma-ta", config=tiny_config(),
                     mu=1.0)
        result, _, _ = _run_job(SimJob.run, job, job.key(), True,
                                [].append)
        plain = job.run()
        assert dataclasses.asdict(result) == dataclasses.asdict(plain)

    def test_custom_worker_body_skips_span_capture(self):
        calls = []

        def custom(job):
            calls.append(job.technique)
            return job.run()

        job = tiny_job()
        _, _, seen = _run_job(custom, job, job.key(), False, [].append)
        assert calls == ["baseline"]
        assert seen["spans"] == []

    def test_exception_reports_failure_and_reraises(self):
        messages = []

        def boom(job):
            raise RuntimeError("injected worker fault")

        job = tiny_job()
        with pytest.raises(RuntimeError, match="injected worker fault"):
            _run_job(boom, job, job.key(), False, messages.append)
        assert messages[-1]["kind"] == "job.finished"  # off the worker
        collector = FleetCollector(FleetConfig())
        try:
            (out,) = run_many([job], worker=boom, fleet=collector)
            report = collector.report()
        finally:
            collector.close()
        assert "injected worker fault" in out.error
        assert report.failed == 1 and report.computed == 0
        record = collector.jobs[job.key()]
        assert record.ok is False and record.error == out.error

    def test_heartbeats_flow_during_long_jobs(self, pool_worker):
        def slow(job):
            time.sleep(2.4 * HEARTBEAT_S)
            return job.run()

        job = tiny_job()
        _run_job(slow, job, job.key())
        kinds = [m["kind"] for m in drain(pool_worker)]
        assert kinds[0] == "job.started" and "job.finished" in kinds
        assert "job.heartbeat" in kinds

    def test_injected_stall_freezes_only_the_tagged_pool_job(self):
        fleet_queue = queue.Queue()
        job = tiny_job(tag="frozen")
        try:
            _observe_worker(fleet_queue, "frozen", 0.3)
            start = time.monotonic()
            _run_job(SimJob.run, job, job.key())
            assert time.monotonic() - start >= 0.3
            start = time.monotonic()  # the serial path never freezes
            _run_job(SimJob.run, job, job.key(), post=[].append)
            assert time.monotonic() - start < 0.3
        finally:
            runner_module._POOL_FLEET = None

    def test_without_initializer_degrades_to_plain_timing(self):
        threads = threading.active_count()

        def plain(job, **kwargs):
            assert not kwargs, "no tracer without a fleet"
            assert threading.active_count() == threads, "no thread"
            return job.run()

        job = tiny_job()
        result, wall, seen = _run_job(plain, job, job.key(), True)
        assert result.technique == "baseline"
        assert wall > 0
        assert seen is None


class TestCollectorStateMachine:
    def make(self, clock=None, **config_kwargs):
        return FleetCollector(FleetConfig(**config_kwargs),
                              clock=clock or FakeClock())

    def test_lifecycle_counts_and_report(self):
        clock = FakeClock()
        collector = self.make(clock)
        job = tiny_job("dma-ta", tag="point-a")
        result = job.run()
        # A per-chip total that disagrees with the breakdown.
        result.chip_energy = [2 * e for e in result.chip_energy]
        collector.expect(2)
        collector.note_submitted(job.key(), job)
        collector.handle(started(job, 4242, clock()))
        clock.advance(0.5)
        collector.settle(outcome(job, result, wall_s=0.5),
                         observed(4242, clock() - 0.5, clock()))
        cached = tiny_job("pl", tag="point-b")
        collector.note_submitted(cached.key(), cached)
        collector.settle(outcome(cached, cached.run(), from_cache=True))
        collector.quiesce()
        report = collector.report()
        assert report.total == 2
        assert report.computed == 1
        assert report.cached == 1
        assert report.failed == 0
        assert report.violations == {"result-energy-mismatch": 1}
        assert report.cache_hit_rate == 0.5
        assert [w["jobs_done"] for w in report.workers] == [1]
        rendered = report.render()
        assert "2 job(s)" in rendered
        assert "result-energy-mismatch: 1" in rendered

    def test_worker_slots_assigned_in_first_seen_order(self):
        collector = self.make()
        jobs = [tiny_job("baseline"), tiny_job("pl"), tiny_job("nopm")]
        for pid, job in zip((900, 800, 900), jobs):
            collector.note_submitted(job.key(), job)
            collector.handle(started(job, pid, 1.0))
        snapshot = collector.snapshot()
        slots = {w["pid"]: w["slot"] for w in snapshot["workers"]}
        assert slots == {900: 1, 800: 2}

    def test_serial_path_is_worker_slot_zero(self):
        collector = self.make()
        job = tiny_job()
        (out,) = run_many([job], fleet=collector)
        report = collector.report()
        assert report.serial == 1
        assert report.workers[0]["slot"] == 0
        assert report.workers[0]["pid"] == os.getpid()
        assert report.workers[0]["jobs_done"] == 1
        assert collector.jobs[out.key].wall_s == out.wall_s
        assert report.spans_merged > 0, "serial jobs ship spans too"

    def test_snapshot_eta_and_rates(self):
        clock = FakeClock()
        collector = self.make(clock)
        collector.expect(4)
        jobs = [tiny_job(t) for t in ("baseline", "pl")]
        for job in jobs:
            collector.note_submitted(job.key(), job)
        for job in jobs:
            collector.handle(started(job, 7000, clock()))
            clock.advance(2.0)
            collector.settle(outcome(job, job.run(), wall_s=2.0),
                             observed(7000, clock() - 2.0, clock()))
        snapshot = collector.snapshot()
        assert snapshot["done"] == 2
        assert snapshot["total"] == 4
        assert snapshot["mean_wall_s"] == pytest.approx(2.0)
        # 2 remaining jobs at 2 s each over 1 live worker.
        assert snapshot["eta_s"] == pytest.approx(4.0)
        assert snapshot["jobs_per_s"] == pytest.approx(2 / 4.0)

    def test_ignores_malformed_messages(self):
        collector = self.make()
        collector.handle("not a mapping")
        collector.handle({"kind": "job.started"})  # no key or worker
        collector.handle({"kind": "mystery", "key": "k", "worker": 1,
                          "mono": 1.0})
        collector.handle({"kind": "job.started", "key": "unknown",
                          "worker": 1, "mono": 1.0})
        report = collector.report()
        assert report.total == 0
        assert report.events_received == 0


class TestOneOutcomePath:
    def test_late_messages_cannot_change_a_settled_record(self):
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(), clock=clock)
        job = tiny_job(tag="settled")
        key = job.key()
        collector.note_submitted(key, job)
        collector.handle(started(job, 31, clock()))
        clock.advance(1.0)
        collector.settle(outcome(job, error="timed out after 1s"))
        collector.quiesce()
        record = dataclasses.asdict(collector.jobs[key])
        report = collector.report().as_dict()
        clock.advance(5.0)
        for message in (
                {"kind": "job.heartbeat", "worker": 31, "key": key,
                 "mono": clock()},
                started(job, 31, clock()),
                # The full outcome payload older workers used to send.
                {"kind": "job.finished", "worker": 31, "key": key,
                 "mono": clock(), "ok": True, "error": None,
                 "wall_s": 6.0, "spans": [{"ph": "X"}]}):
            collector.handle(message)
        assert dataclasses.asdict(collector.jobs[key]) == record
        assert collector.report().as_dict() == report
        assert report["failed"] == 1

    def test_requeued_job_hears_only_the_parent(self):
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(stall_after_s=1.0),
                                   clock=clock)
        job = tiny_job(tag="bounced")
        key = job.key()
        collector.note_submitted(key, job)
        collector.handle(started(job, 41, clock()))
        clock.advance(2.0)
        assert [s.key for s in collector.check_stalls()] == [key]
        collector.handle(started(job, os.getpid(), clock()))  # serial run
        collector.handle(started(job, 41, clock()))  # the frozen worker
        collector.handle({"kind": "job.finished", "worker": 41,
                          "key": key, "mono": clock()})
        record = collector.jobs[key]
        assert record.worker == 0 and record.serial
        assert record.finished_mono is None

    def test_finished_pool_job_is_not_stalled_while_runner_is_busy(self):
        """The runner settles pool results only between its own serial
        runs; a job whose worker already finished must not look silent
        in the meantime."""
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(stall_after_s=1.0),
                                   clock=clock)
        done, stuck = tiny_job("pl", tag="done"), tiny_job(tag="stuck")
        for job in (done, stuck):
            collector.note_submitted(job.key(), job)
        collector.handle(started(done, 51, clock()))
        collector.handle(started(stuck, 52, clock()))
        clock.advance(0.5)
        collector.handle({"kind": "job.finished", "worker": 51,
                          "key": done.key(), "mono": clock()})
        clock.advance(1.0)
        assert [s.key for s in collector.check_stalls()] == [stuck.key()]
        assert collector.take_stalled() == [stuck.key()]
        # The runner now runs the stalled job serially for a long time.
        collector.handle(started(stuck, os.getpid(), clock()))
        for _ in range(10):
            clock.advance(1.0)
            assert collector.check_stalls() == []
        collector.settle(outcome(done, done.run(), wall_s=0.5),
                         observed(51, 1000.0, 1000.5))
        collector.settle(outcome(stuck, stuck.run(), wall_s=10.0),
                         observed(os.getpid(), 1001.5, clock()),
                         requeued=True)
        report = collector.report()
        assert len(report.stalls) == 1
        assert report.computed == 2 and report.failed == 0
        assert report.requeued == 1 and report.serial == 1
        assert sum(w["jobs_done"] for w in report.workers) == 2


class TestWatchdog:
    def test_stall_detected_attributed_and_drained_once(self):
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(stall_after_s=3.0),
                                   clock=clock)
        job = tiny_job("dma-ta", tag="stuck-point")
        key = job.key()
        collector.note_submitted(key, job)
        collector.handle(started(job, 5555, clock()))
        # A worker that dies mid-job: started, then permanent silence.
        clock.advance(2.0)
        assert collector.check_stalls() == []
        clock.advance(2.0)
        stalls = collector.check_stalls()
        assert len(stalls) == 1
        stall = stalls[0]
        assert stall.key == key
        assert stall.tag == "stuck-point"
        assert stall.worker == 1
        assert stall.diagnosis.startswith("fleet.stall: job stuck-point")
        assert "requeueing onto the serial path" in stall.diagnosis
        assert collector.take_stalled() == [key]
        assert collector.take_stalled() == []  # drained exactly once
        assert collector.check_stalls() == []  # not re-flagged

    def test_heartbeats_defer_the_watchdog(self):
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(stall_after_s=3.0),
                                   clock=clock)
        job = tiny_job(tag="alive")
        key = job.key()
        collector.note_submitted(key, job)
        collector.handle(started(job, 1, clock()))
        for _ in range(4):
            clock.advance(2.0)
            collector.handle({"kind": "job.heartbeat", "worker": 1,
                              "key": key, "mono": clock()})
            assert collector.check_stalls() == []

    def test_derived_bound_scales_with_observed_walls(self):
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(), clock=clock)
        assert collector.stall_bound() == STALL_FLOOR_S  # cold: the floor
        job = tiny_job()
        collector.note_submitted(job.key(), job)
        collector.settle(outcome(job, job.run(), wall_s=2.0))
        assert collector.stall_bound() == pytest.approx(16.0)

    def test_stall_publishes_sse_event(self):
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(stall_after_s=1.0),
                                   clock=clock)
        subscriber = collector.broker.subscribe()
        job = tiny_job(tag="pub")
        collector.note_submitted(job.key(), job)
        collector.handle(started(job, 1, clock()))
        clock.advance(2.0)
        collector.check_stalls()
        events = []
        while True:
            try:
                events.append(subscriber.get_nowait())
            except queue.Empty:
                break
        assert any(item and item[0] == "stall" for item in events)


class TestFleetTrace:
    def test_merged_trace_validates_and_flags_stalls(self):
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(stall_after_s=1.0),
                                   clock=clock)
        good = tiny_job("pl", tag="good")
        stuck = tiny_job("dma-ta", tag="stuck")
        for job in (good, stuck):
            collector.note_submitted(job.key(), job)
        clock.advance(0.1)
        collector.handle(started(good, 10, clock()))
        collector.handle(started(stuck, 20, clock()))
        clock.advance(0.4)
        span = {"ts": 0.0, "name": "active", "track": "chip:0",
                "ph": "X", "dur": 50_000.0}  # half of the 100k-cycle run
        collector.settle(outcome(good, good.run(), wall_s=0.4),
                         observed(10, clock() - 0.4, clock(), [span]))
        clock.advance(2.0)
        collector.check_stalls()
        trace = collector.chrome_trace(label="unit")
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "good" in names
        assert "STALLED stuck" in names
        assert "fleet.stall" in names
        assert "job.submitted" in names
        # The sim span is rebased inside the job's wall interval.
        sim = next(e for e in trace["traceEvents"]
                   if e["name"] == "active")
        job_span = next(e for e in trace["traceEvents"]
                        if e["name"] == "good")
        assert job_span["ts"] <= sim["ts"]
        assert sim["ts"] + sim["dur"] <= \
            job_span["ts"] + job_span["dur"] + 1e-6
        stalled_span = next(e for e in trace["traceEvents"]
                            if e["name"] == "STALLED stuck")
        assert stalled_span["args"]["stalled"] is True
        assert stalled_span["args"]["diagnosis"].startswith("fleet.stall")

    def test_cache_hits_and_requeues_annotate_the_sweep_lane(self):
        clock = FakeClock()
        collector = FleetCollector(FleetConfig(), clock=clock)
        hit = tiny_job("pl", tag="warm")
        requeued = tiny_job("dma-ta", tag="bounced")
        collector.note_submitted(hit.key(), hit)
        collector.settle(outcome(hit, hit.run(), from_cache=True))
        collector.note_submitted(requeued.key(), requeued)
        clock.advance(0.3)
        collector.settle(outcome(requeued, requeued.run(), wall_s=0.3),
                         observed(os.getpid(), clock() - 0.3, clock()),
                         requeued=True)
        names = {e["name"] for e in collector.chrome_trace()["traceEvents"]}
        assert "cache.hit" in names
        assert "job.requeued" in names


class TestQueueRoundTrip:
    def test_messages_survive_the_real_mp_queue(self):
        collector = FleetCollector(FleetConfig())
        job = SimJob(tiny_trace(), "dma-ta", config=tiny_config(),
                     mu=1.0, tag="round-trip")
        key = job.key()
        collector.note_submitted(key, job)
        ran = []

        def worker_side():
            _observe_worker(collector.queue, "", 0.0)
            try:
                ran.append(_run_job(SimJob.run, job, key, True))
            finally:
                runner_module._POOL_FLEET = None

        collector.start()
        thread = threading.Thread(target=worker_side)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        deadline = time.monotonic() + 10.0
        while collector.jobs[key].finished_mono is None:
            assert time.monotonic() < deadline, "liveness never arrived"
            time.sleep(0.05)
        assert collector.events_received >= 2  # started + finished
        (result, wall, seen), = ran
        collector.settle(outcome(job, result, wall_s=wall), seen)
        collector.quiesce()
        report = collector.report()
        assert report.computed == 1
        assert report.spans_merged > 0
        assert validate_chrome_trace(collector.chrome_trace()) == []
        collector.close()

    def test_initargs_are_picklable_for_spawned_workers(self, monkeypatch):
        """Spawned workers receive the collector's queue and the stall
        settings through the pool initializer's arguments."""
        monkeypatch.setenv(runner_module.START_METHOD_ENV, "spawn")
        collector = FleetCollector(FleetConfig())
        jobs = [tiny_job("baseline"), tiny_job("pl")]
        try:
            outcomes = run_many(jobs, max_workers=2, fleet=collector)
            report = collector.report()
        finally:
            collector.close()
        assert all(o.ok for o in outcomes)
        assert report.computed == 2 and report.serial == 0
        assert report.spans_merged > 0
        assert sum(w["jobs_done"] for w in report.workers) == 2
