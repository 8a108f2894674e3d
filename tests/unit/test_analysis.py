"""Units for the analysis helpers (sweep, tables)."""

from repro.analysis.tables import format_breakdown, format_table
from repro.analysis.sweep import sweep_cp_limit
from repro.energy.accounting import EnergyBreakdown, TimeBreakdown
from repro.sim.results import SimulationResult
from repro.traces.records import ClientRequest, DMATransfer
from repro.traces.trace import Trace
from repro.config import BusConfig, MemoryConfig, SimulationConfig

MB = 1 << 20


def result(total_scale=1.0):
    return SimulationResult(
        trace_name="t", technique="x", engine="fluid", duration_cycles=1.0,
        energy=EnergyBreakdown(serving_dma=1.0 * total_scale,
                               idle_dma=2.0 * total_scale),
        time=TimeBreakdown(serving_dma=4.0, idle_dma=8.0),
    )


class TestTables:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text
        assert "x" in text

    def test_format_breakdown(self):
        text = format_breakdown([result(), result(0.5)],
                                labels=["base", "half"])
        assert "base" in text and "half" in text
        assert "idle_dma" in text
        assert "total mJ" in text


def tiny_trace():
    clients = {0: ClientRequest(request_id=0, arrival=0.0,
                                base_cycles=1e6)}
    records = [DMATransfer(time=100.0, page=0, size_bytes=8192,
                           request_id=0)]
    return Trace(name="tiny", records=records, clients=clients,
                 duration_cycles=100_000.0)


def tiny_config():
    return SimulationConfig(
        memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
        buses=BusConfig(count=3))


class TestSweep:
    def test_sweep_shares_baseline(self):
        points = sweep_cp_limit(tiny_trace(), [0.05, 0.10], ["dma-ta"],
                                config=tiny_config())
        assert len(points) == 2
        assert points[0].baseline is points[1].baseline
        assert points[0].x == 0.05
        assert all(p.ok and p.error is None for p in points)
