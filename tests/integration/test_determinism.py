"""Reproducibility: identical inputs must give identical outputs."""

import pytest

from repro import simulate
from repro.traces.oltp import oltp_storage_trace
from repro.traces.records import DMATransfer
from repro.traces.synthetic import synthetic_database_trace, synthetic_storage_trace
from repro.traces.trace import Trace


def outputs(result):
    """Every simulated output a rerun must reproduce bit for bit."""
    return (result.energy.as_dict(), result.time.as_dict(),
            result.head_delay_cycles, result.extra_service_cycles,
            result.chip_energy, result.duration_cycles,
            result.controller_stats)


class TestSimulationDeterminism:
    @pytest.mark.parametrize("technique", ["baseline", "dma-ta",
                                           "dma-ta-pl"])
    def test_same_run_twice(self, technique):
        trace = synthetic_storage_trace(duration_ms=4.0, seed=33)
        a = simulate(trace, technique=technique, mu=50.0)
        b = simulate(trace, technique=technique, mu=50.0)
        assert a.energy.as_dict() == b.energy.as_dict()
        assert a.time.as_dict() == b.time.as_dict()
        assert a.client_responses == b.client_responses
        assert a.controller_stats == b.controller_stats

    def test_layout_seed_changes_results(self):
        trace = synthetic_storage_trace(duration_ms=4.0, seed=33)
        a = simulate(trace, technique="baseline", seed=0)
        b = simulate(trace, technique="baseline", seed=1)
        # Different page scattering -> different chip-level coincidences.
        assert a.chip_energy != b.chip_energy

    def test_streams_built_before_do_not_change_a_run(self):
        """Fluid stream ids hash the engine's stream sets, so they order
        its iteration and float sums; they must be numbered per run,
        not per process. With ids drawn from one process-wide counter,
        this job's ``head_delay_cycles`` took one of two values
        depending on the counter's start, so sixteen reruns, each after
        a different number of streams built, would not all match."""
        trace = oltp_storage_trace(duration_ms=10.0)
        mu = 40.13863303383055
        first = simulate(trace, technique="dma-ta", mu=mu)
        for built in range(1, 17):
            # A baseline run builds one fluid stream per DMA transfer.
            throwaway = Trace(name="throwaway", records=[
                DMATransfer(time=float(i), page=i, size_bytes=512)
                for i in range(built)])
            simulate(throwaway, technique="baseline")
            again = simulate(trace, technique="dma-ta", mu=mu)
            assert outputs(again) == outputs(first), built

    def test_precise_engine_deterministic(self):
        trace = synthetic_storage_trace(duration_ms=1.0, seed=34)
        a = simulate(trace, technique="baseline", engine="precise")
        b = simulate(trace, technique="baseline", engine="precise")
        assert a.energy.as_dict() == b.energy.as_dict()


class TestGeneratorDeterminism:
    def test_synthetic_generators(self):
        for maker in (synthetic_storage_trace, synthetic_database_trace):
            a = maker(duration_ms=2.0, seed=9)
            b = maker(duration_ms=2.0, seed=9)
            assert a.records == b.records
            assert a.clients == b.clients

    def test_oltp_generator(self):
        a = oltp_storage_trace(duration_ms=2.0, seed=9)
        b = oltp_storage_trace(duration_ms=2.0, seed=9)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        a = synthetic_storage_trace(duration_ms=2.0, seed=1)
        b = synthetic_storage_trace(duration_ms=2.0, seed=2)
        assert a.records != b.records
