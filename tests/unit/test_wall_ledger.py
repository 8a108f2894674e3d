"""The wall-clock ledger every run carries (``result.wall``).

The phases must tile the run and stay out of everything that defines a
result: equality, ``asdict``, job keys and digest trails. The ledger
must reach the caller through worker processes and the result cache,
and its surfaces (``repro simulate``'s ``wall:`` line, the ``wall``
track of ``repro trace``, the bench record's ``wall`` block) must hold.
"""

import dataclasses
import json
import time
from pathlib import Path

import pytest

from repro import simulate
from repro.bench.record import BenchRecord, Metric, Phase
from repro.bench.report import render_report
from repro.bench.trajectory import load_trajectory
from repro.cli import main
from repro.config import BusConfig, MemoryConfig, SimulationConfig
from repro.errors import BenchFormatError
from repro.exec import ResultCache, SimJob, run_many
from repro.obs.diff import DigestRecorder
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.telemetry import TelemetrySampler
from repro.obs.wall import WALL_PHASES, WallLedger
from repro.traces.io import write_trace
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

ROOT = Path(__file__).resolve().parents[2]
MB = 1 << 20

#: The engine-equivalence property test's small platform.
CONFIG = SimulationConfig(
    memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
    buses=BusConfig(count=3))

ENGINES = ("fluid", "precise", "precise-scalar")


def _trace(duration_cycles: float = 10_000_000.0) -> Trace:
    """An 8 KB transfer and a 20-access burst on one page every 400k
    cycles: the burst gives the precise kernel processor windows and the
    transfer DMA windows; 10M cycles passes the first PL interval."""
    records = []
    for i in range(int(duration_cycles // 400_000)):
        page = (7 * i) % 64
        records.append(DMATransfer(time=i * 400_000.0, page=page,
                                   size_bytes=8192, source="network"))
        records.append(ProcessorBurst(time=i * 400_000.0 + 50.0, page=page,
                                      count=20))
    return Trace(name="ledger", records=records,
                 duration_cycles=duration_cycles)


@pytest.fixture(scope="module")
def trace():
    return _trace()


class TestParts:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_parts_sum_to_total(self, trace, engine):
        wall = simulate(trace, config=CONFIG, technique="pl",
                        engine=engine).wall
        parts = wall.parts()
        assert list(parts) == [p for p in WALL_PHASES if p in parts]
        assert {"calibrate", "build", "loop", "result", "other"} <= set(parts)
        assert all(seconds >= 0 for seconds in parts.values())
        assert sum(parts.values()) == pytest.approx(wall.total, rel=1e-12)
        assert sum(wall.ns.values()) == round(wall.total * 1e9)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_kernel_only_on_precise(self, trace, engine):
        result = simulate(trace, config=CONFIG, engine=engine)
        assert ("kernel" in result.wall.parts()) == (engine == "precise")
        if engine == "precise":
            assert result.metrics.counters["kernel.batches"] > 0
            assert result.wall.ns["kernel"] > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pl_only_when_an_interval_fired(self, trace, engine):
        def phases(trace, technique):
            return simulate(trace, config=CONFIG, technique=technique,
                            engine=engine).wall.parts()

        assert "pl" in phases(trace, "pl")
        assert "pl" not in phases(trace, "baseline")
        # 2M cycles of trace end before the first 8M-cycle interval.
        assert "pl" not in phases(_trace(2_000_000.0), "pl")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_probes_only_with_a_probe(self, trace, engine):
        plain = simulate(trace, config=CONFIG, engine=engine)
        observed = simulate(trace, config=CONFIG, engine=engine,
                            telemetry=TelemetrySampler(),
                            digests=DigestRecorder())
        assert "probes" not in plain.wall.parts()
        assert observed.wall.ns["probes"] > 0

    def test_nested_charges_come_out_of_the_lap(self):
        wall = WallLedger()
        wall.charge("pl", 5)
        wall.lap("loop")
        wall.lap("result")
        assert wall.ns["pl"] == 5
        assert sum(wall.ns.values()) == round(wall.total * 1e9)
        assert wall.parts()["other"] == 0.0

    def test_total_is_the_call(self, trace):
        start = time.perf_counter()
        result = simulate(trace, config=CONFIG, technique="dma-ta-pl",
                          mu=2.0)
        outside = time.perf_counter() - start
        assert 0.5 * outside < result.wall.total <= outside


class TestResultIdentity:
    def test_two_runs_are_equal_but_keep_their_own_ledgers(self, trace):
        job = SimJob(trace, "dma-ta-pl", config=CONFIG, mu=2.0)
        first = job.run(digests=DigestRecorder())
        second = job.run(digests=DigestRecorder())
        assert first.wall is not second.wall
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
        assert "wall" not in dataclasses.asdict(first)
        assert first.digests.chain_tip == second.digests.chain_tip
        assert job.key() == SimJob(trace, "dma-ta-pl", config=CONFIG,
                                   mu=2.0).key()
        assert "wall" not in first.summary()

    def test_survives_a_process_pool(self, trace):
        jobs = [SimJob(trace, technique, config=CONFIG)
                for technique in ("baseline", "pl")]
        outcomes = run_many(jobs, max_workers=2)
        for job, outcome in zip(jobs, outcomes):
            assert outcome.ok, outcome.error
            wall = outcome.result.wall
            assert isinstance(wall, WallLedger)
            assert 0 < wall.total <= outcome.wall_s
            assert sum(wall.parts().values()) == pytest.approx(wall.total)
            assert ("pl" in wall.parts()) == (job.technique == "pl")

    def test_survives_the_result_cache(self, trace, tmp_path):
        job = SimJob(trace, "pl", config=CONFIG)
        result = job.run()
        cache = ResultCache(tmp_path)
        cache.put(job.key(), result)
        cached = cache.get(job.key())
        assert cached == result
        assert cached.wall.ns == result.wall.ns
        assert cached.wall.total == result.wall.total


class TestSurfaces:
    @pytest.fixture
    def trace_file(self, trace, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_trace(trace, path)
        return path

    def test_simulate_prints_a_wall_line(self, trace_file, capsys):
        assert main(["simulate", str(trace_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("wall: ")
        assert " = calibrate " in lines[-1]

    def test_trace_exports_the_wall_track(self, trace_file, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", str(trace_file), "--mu", "2.0",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert validate_chrome_trace(obj) == []
        names = {event["args"]["name"] for event in obj["traceEvents"]
                 if event["name"] == "process_name"}
        assert "wall clock" in names

    def test_wall_events_lie_end_to_end(self, trace):
        wall = simulate(trace, config=CONFIG).wall
        events = wall.events()
        assert [e.name for e in events] == list(wall.parts())
        for before, after in zip(events, events[1:]):
            assert after.ts == pytest.approx(before.ts + before.dur)
        exported = chrome_trace(events)
        assert validate_chrome_trace(exported) == []
        spans = [e for e in exported["traceEvents"] if e["ph"] == "X"]
        assert sum(e["dur"] for e in spans) == pytest.approx(
            wall.total * 1e6)  # microseconds


class TestBenchRecord:
    def _record(self, **changes) -> BenchRecord:
        fields = dict(
            name="fig5_savings_vs_cplimit", figure="fig5",
            created="2026-01-01T00:00:00+00:00", meta={"bench_ms": 5.0},
            metrics=[Metric(name="m", value=1.0)],
            phases=[Phase(name="sweep", wall_s=1.5)])
        fields.update(changes)
        return BenchRecord(**fields)

    def test_wall_block_round_trips(self):
        wall = {"runs": 11.0, "calibrate": 0.2, "build": 0.9, "loop": 3.1,
                "pl": 0.1, "result": 0.2, "other": 0.01}
        record = self._record(wall=wall)
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["wall"] == wall
        again = BenchRecord.from_dict(payload)
        assert again.wall == wall
        assert again.wall_s == record.wall_s == 1.5  # not in the phases
        assert "wall-clock ledger (11 computed run(s)" in render_report(
            {"fig5": [again]})

    def test_no_wall_block_when_nothing_was_computed(self):
        record = self._record()
        assert "wall" not in record.to_dict()
        assert BenchRecord.from_dict(record.to_dict()).wall == {}
        assert "wall-clock ledger" not in render_report({"fig5": [record]})

    def test_malformed_wall_block_is_rejected(self):
        payload = self._record().to_dict()
        payload["wall"] = {"loop": "slow"}
        with pytest.raises(BenchFormatError, match="wall"):
            BenchRecord.from_dict(payload)

    @pytest.mark.parametrize(
        "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
    def test_committed_records_still_load(self, path):
        assert load_trajectory(path)
