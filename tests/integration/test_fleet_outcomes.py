"""The fleet report agrees with ``run_many``: one outcome per job key.

A pooled job the runner gives up on (a watchdog stall, an explicit
timeout) keeps running in its abandoned worker, and that worker may
report in after ``run_many`` has returned. These tests replay such a
late ``job.finished`` message and require the collector's records and
report to still match the outcomes ``run_many`` returned.
"""

import dataclasses
import multiprocessing
import time

from repro.config import BusConfig, MemoryConfig, SimulationConfig
from repro.exec import SimJob, run_many
from repro.obs.fleet import FleetCollector, FleetConfig
from repro.traces.records import DMATransfer
from repro.traces.trace import Trace


def tiny_trace() -> Trace:
    records = [DMATransfer(time=1000.0, page=3, size_bytes=8192),
               DMATransfer(time=5000.0, page=7, size_bytes=8192)]
    return Trace(name="tiny", records=records, duration_cycles=100_000.0)


def tiny_jobs(*tags: str) -> list[SimJob]:
    config = SimulationConfig(
        memory=MemoryConfig(num_chips=4, chip_bytes=1 << 20,
                            page_bytes=8192),
        buses=BusConfig(count=3))
    techniques = ("baseline", "pl", "nopm", "dma-ta")
    return [SimJob(tiny_trace(), technique, config=config, tag=tag,
                   mu=2.0 if technique == "dma-ta" else None)
            for technique, tag in zip(techniques, tags)]


def slow_in_pool(job: SimJob):
    """Overruns any short timeout in a pool worker, for one tag only."""
    if job.tag == "slow" and multiprocessing.parent_process() is not None:
        time.sleep(2.0)
    return job.run()


def late_finish(collector: FleetCollector, key: str) -> dict:
    """The ``job.finished`` an abandoned worker sends once it is done,
    carrying the full outcome payload workers used to ship."""
    report = collector.report()
    # A stalled job was taken back from the worker its stall names.
    slot = next((s.worker for s in report.stalls if s.key == key),
                collector.jobs[key].worker)
    pid = next(w["pid"] for w in report.workers if w["slot"] == slot)
    return {"kind": "job.finished", "worker": pid, "key": key,
            "mono": time.monotonic(), "ok": True, "error": None,
            "wall_s": 9.0, "violations": {}, "duration_cycles": 1.0,
            "spans": [{"ts": 0.0, "name": "late", "track": "chip:0",
                       "ph": "X", "dur": 1.0}], "spans_dropped": 0}


def assert_report_matches(outcomes, collector: FleetCollector) -> None:
    unique = {o.key: o for o in outcomes}  # the jobs are distinct
    for key, outcome in unique.items():
        record = collector.jobs[key]
        assert record.ok == outcome.ok, record.tag
        assert record.error == outcome.error, record.tag
        assert record.wall_s == outcome.wall_s, record.tag
        assert record.cached == outcome.from_cache, record.tag
    report = collector.report()
    computed = sum(1 for o in unique.values() if o.ok and not o.from_cache)
    failed = sum(1 for o in unique.values() if not o.ok)
    assert report.computed == computed
    assert report.failed == failed
    assert report.computed + report.cached + report.failed == len(unique)
    assert sum(w["jobs_done"] for w in report.workers) == report.computed


def replay_late_finish(outcomes, collector: FleetCollector,
                       key: str) -> None:
    before = dataclasses.asdict(collector.jobs[key])
    report = collector.report().as_dict()
    collector.handle(late_finish(collector, key))
    assert dataclasses.asdict(collector.jobs[key]) == before
    assert collector.report().as_dict() == report
    assert_report_matches(outcomes, collector)


def test_stall_requeue_outcome_survives_a_late_finish():
    jobs = tiny_jobs("a", "b", "frozen")
    collector = FleetCollector(FleetConfig(
        stall_after_s=0.5, inject_stall_tag="frozen", inject_stall_s=3.0))
    try:
        outcomes = run_many(jobs, max_workers=2, fleet=collector)
        assert all(o.ok for o in outcomes)
        assert_report_matches(outcomes, collector)
        frozen = outcomes[2].key
        assert collector.report().requeued == 1
        assert collector.jobs[frozen].requeued
        replay_late_finish(outcomes, collector, frozen)
    finally:
        collector.close()


def test_timeout_outcome_survives_a_late_finish():
    jobs = tiny_jobs("a", "b", "slow")
    collector = FleetCollector(FleetConfig())
    try:
        outcomes = run_many(jobs, max_workers=2, timeout_s=0.5,
                            worker=slow_in_pool, fleet=collector)
        assert [o.ok for o in outcomes] == [True, True, False]
        assert "timed out" in outcomes[2].error
        assert_report_matches(outcomes, collector)
        replay_late_finish(outcomes, collector, outcomes[2].key)
    finally:
        collector.close()
