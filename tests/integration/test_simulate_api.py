"""End-to-end behaviour of the public simulate() API."""

import pytest

from repro import simulate
from repro.errors import ConfigurationError
from repro.exec import SimJob, run_many
from repro.traces.records import DMATransfer
from repro.traces.trace import Trace


class TestSingleTransfer:
    """One 8-KB transfer: the Figure 2(a) micro-scenario."""

    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_one_third_utilization(self, single_transfer_trace,
                                   small_config, engine):
        result = simulate(single_transfer_trace, config=small_config,
                          technique="baseline", engine=engine)
        # Serve 4 of every ~12 cycles: uf ~ 1/3, idle_dma ~ 2x serving.
        assert result.utilization_factor == pytest.approx(1 / 3, abs=0.01)
        assert result.time.serving_dma == pytest.approx(4096.0, rel=0.01)
        assert result.time.idle_dma == pytest.approx(2 * 4096.0, rel=0.02)

    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_request_count(self, single_transfer_trace, small_config, engine):
        result = simulate(single_transfer_trace, config=small_config,
                          engine=engine)
        assert result.transfers == 1
        assert result.requests == 1024

    def test_serving_energy_exact(self, single_transfer_trace, small_config):
        result = simulate(single_transfer_trace, config=small_config)
        # 4096 cycles at 300 mW and 1600 MHz.
        expected = 0.3 * 4096 / 1.6e9
        assert result.energy.serving_dma == pytest.approx(expected, rel=1e-9)


class TestAlignment:
    """Three simultaneous transfers from three buses (Figure 3)."""

    def test_aligned_transfers_reach_full_utilization(self, aligned_trace,
                                                      small_config):
        result = simulate(aligned_trace, config=small_config,
                          technique="baseline")
        # Already aligned by construction: uf near 1 even in the baseline.
        assert result.utilization_factor > 0.95

    def test_nopm_reference(self, aligned_trace, small_config):
        result = simulate(aligned_trace, config=small_config,
                          technique="nopm")
        # Chips never sleep: zero transition and low-power energy.
        assert result.energy.transition == 0.0
        assert result.energy.low_power == 0.0
        assert result.wakes == 0


class TestClientAccounting:
    def test_responses_recorded(self, clients_trace, small_config):
        result = simulate(clients_trace, config=small_config)
        assert set(result.client_responses) == {0, 1}
        for response in result.client_responses.values():
            assert response > 10_000.0  # at least the base latency

    def test_technique_slows_clients_within_limit(self, clients_trace,
                                                  small_config):
        base = simulate(clients_trace, config=small_config)
        ta = simulate(clients_trace, config=small_config,
                      technique="dma-ta", cp_limit=0.10)
        degradation = ta.client_degradation_vs(base)
        assert degradation <= 0.10 + 1e-6


class TestProcessorAccesses:
    @pytest.mark.parametrize("engine", ["fluid", "precise"])
    def test_proc_served(self, proc_trace, small_config, engine):
        result = simulate(proc_trace, config=small_config, engine=engine)
        assert result.proc_accesses == 16
        # 16 cache lines x 32 cycles.
        assert result.time.serving_proc == pytest.approx(512.0, rel=0.01)


class TestValidation:
    def test_unknown_technique(self, single_transfer_trace):
        with pytest.raises(ConfigurationError):
            simulate(single_transfer_trace, technique="magic")

    def test_unknown_engine(self, single_transfer_trace):
        with pytest.raises(ConfigurationError):
            simulate(single_transfer_trace, engine="quantum")

    def test_mu_and_cp_limit_exclusive(self, clients_trace):
        with pytest.raises(ConfigurationError):
            simulate(clients_trace, technique="dma-ta", mu=1.0, cp_limit=0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("arg", ["mu", "cp_limit"])
    def test_non_finite_degradation_rejected(self, clients_trace, arg,
                                             value):
        """Every comparison with NaN is false, so a NaN ``mu`` used to
        run and report ``guarantee_violated=False``."""
        with pytest.raises(ConfigurationError, match="finite"):
            simulate(clients_trace, technique="dma-ta", **{arg: value})
        with pytest.raises(ConfigurationError, match="finite"):
            run_many([SimJob(clients_trace, technique="dma-ta",
                             **{arg: value})])

    def test_empty_trace(self, small_config):
        result = simulate(Trace(name="empty"), config=small_config)
        assert result.transfers == 0
        assert result.energy_joules == 0.0

    def test_page_wraparound(self, small_config):
        trace = Trace(name="big-page", records=[
            DMATransfer(time=0.0, page=10**9, size_bytes=8192)])
        result = simulate(trace, config=small_config)
        assert result.transfers == 1
