"""Robustness: adversarial and degenerate inputs must not corrupt state."""

import pytest

from repro import simulate
from repro.config import BusConfig, MemoryConfig, SimulationConfig
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

MB = 1 << 20


@pytest.fixture
def config():
    return SimulationConfig(
        memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
        buses=BusConfig(count=3))


def run(records, config, technique="baseline", **kw):
    trace = Trace(name="hostile", records=list(records),
                  duration_cycles=300_000.0)
    return simulate(trace, config=config, technique=technique, **kw)


class TestDegenerateTraces:
    def test_all_records_at_time_zero(self, config):
        records = [DMATransfer(time=0.0, page=p, size_bytes=8192)
                   for p in range(10)]
        result = run(records, config)
        result.energy.validate()
        assert result.transfers == 10
        assert result.time.serving_dma == pytest.approx(10 * 4096.0,
                                                        rel=1e-6)

    def test_identical_records(self, config):
        records = [DMATransfer(time=500.0, page=3, size_bytes=8192)] * 5
        result = run(records, config)
        assert result.transfers == 5

    def test_single_byte_transfer(self, config):
        result = run([DMATransfer(time=0.0, page=0, size_bytes=1)], config)
        assert result.requests == 1
        assert result.time.serving_dma == pytest.approx(4.0)

    def test_huge_transfer(self, config):
        result = run([DMATransfer(time=0.0, page=0,
                                  size_bytes=1 << 22)], config)
        assert result.requests == (1 << 22) // 8

    def test_gigantic_processor_burst(self, config):
        result = run([ProcessorBurst(time=0.0, page=0, count=100_000)],
                     config)
        assert result.proc_accesses == 100_000
        assert result.time.serving_proc == pytest.approx(100_000 * 32.0)

    def test_record_beyond_declared_duration(self, config):
        trace = Trace(name="late", records=[
            DMATransfer(time=1e6, page=0, size_bytes=8192)],
            duration_cycles=10.0)
        result = simulate(trace, config=config)
        assert result.duration_cycles >= 1e6

    def test_records_dense_burst(self, config):
        """1000 transfers within 1k cycles: extreme bus queueing."""
        records = [DMATransfer(time=float(i), page=i % 50,
                               size_bytes=512) for i in range(1000)]
        result = run(records, config)
        assert result.transfers == 1000
        result.energy.validate()
        # Work conservation under saturation.
        assert result.time.serving_dma == pytest.approx(
            result.requests * 4.0, rel=1e-6)

    def test_dense_burst_under_dma_ta(self, config):
        records = [DMATransfer(time=float(i), page=i % 50,
                               size_bytes=512) for i in range(500)]
        result = run(records, config, technique="dma-ta", mu=50.0)
        assert result.transfers == 500
        assert not result.guarantee_violated

    def test_pl_with_single_page_workload(self, config):
        """Everything hot on one page: PL must not thrash."""
        records = [DMATransfer(time=2000.0 * i, page=7, size_bytes=8192)
                   for i in range(50)]
        result = run(records, config, technique="dma-ta-pl", mu=100.0)
        assert result.migrations <= 4  # at most one swap, once

    def test_chip_energy_reported(self, config):
        result = run([DMATransfer(time=0.0, page=0, size_bytes=8192)],
                     config)
        assert len(result.chip_energy) == 4
        assert sum(result.chip_energy) == pytest.approx(
            result.energy_joules, rel=1e-9)


class TestPlatformEdges:
    def test_single_bus(self):
        config = SimulationConfig(
            memory=MemoryConfig(num_chips=2, chip_bytes=MB,
                                page_bytes=8192),
            buses=BusConfig(count=1))
        records = [DMATransfer(time=0.0, page=0, size_bytes=8192, bus=0),
                   DMATransfer(time=100.0, page=1, size_bytes=8192, bus=0)]
        result = run(records, config, technique="dma-ta", mu=100.0)
        assert result.transfers == 2
        assert not result.guarantee_violated

    def test_single_chip(self):
        config = SimulationConfig(
            memory=MemoryConfig(num_chips=1, chip_bytes=MB,
                                page_bytes=8192))
        result = run([DMATransfer(time=0.0, page=0, size_bytes=8192)],
                     config)
        assert result.transfers == 1

    def test_many_buses_few_chips(self):
        config = SimulationConfig(
            memory=MemoryConfig(num_chips=2, chip_bytes=MB,
                                page_bytes=8192),
            buses=BusConfig(count=8))
        records = [DMATransfer(time=float(i * 10), page=i % 16,
                               size_bytes=8192) for i in range(20)]
        result = run(records, config)
        assert result.transfers == 20
        result.energy.validate()
