"""Technique-level behaviour: savings ordering, guarantees, PL effects."""

import pytest

from repro import simulate
from repro.config import PopularityLayoutConfig, SimulationConfig
from repro.traces.synthetic import synthetic_storage_trace


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=10.0, transfers_per_ms=100,
                                   seed=7)


@pytest.fixture(scope="module")
def baseline(trace):
    return simulate(trace, technique="baseline")


class TestSavingsShape:
    def test_dma_ta_saves_energy(self, trace, baseline):
        ta = simulate(trace, technique="dma-ta", cp_limit=0.10)
        assert ta.energy_savings_vs(baseline) > 0.05

    def test_savings_grow_with_cp_limit(self, trace, baseline):
        """Figure 5's monotone trend (with a tolerance for noise)."""
        savings = [
            simulate(trace, technique="dma-ta",
                     cp_limit=cp).energy_savings_vs(baseline)
            for cp in (0.02, 0.10, 0.30)
        ]
        assert savings[0] < savings[1] <= savings[2] + 0.02

    def test_ta_improves_utilization(self, trace, baseline):
        ta = simulate(trace, technique="dma-ta", cp_limit=0.20)
        assert ta.utilization_factor > baseline.utilization_factor + 0.03

    def test_serving_energy_unchanged(self, trace, baseline):
        """Figure 6: serving energy is workload-determined, not policy-
        determined."""
        ta = simulate(trace, technique="dma-ta", cp_limit=0.10)
        assert ta.energy.serving_dma == pytest.approx(
            baseline.energy.serving_dma, rel=1e-6)

    def test_idle_dma_is_what_shrinks(self, trace, baseline):
        ta = simulate(trace, technique="dma-ta", cp_limit=0.20)
        assert ta.energy.idle_dma < baseline.energy.idle_dma


class TestGuarantee:
    @pytest.mark.parametrize("cp", [0.02, 0.10, 0.30])
    def test_never_violated(self, trace, cp):
        result = simulate(trace, technique="dma-ta", cp_limit=cp)
        assert not result.guarantee_violated

    @pytest.mark.parametrize("cp", [0.05, 0.20])
    def test_client_degradation_within_limit(self, trace, baseline, cp):
        result = simulate(trace, technique="dma-ta-pl", cp_limit=cp)
        assert result.client_degradation_vs(baseline) <= cp + 0.01

    def test_strict_mode_passes(self, trace):
        import dataclasses

        config = dataclasses.replace(SimulationConfig(),
                                     strict_guarantee=True)
        simulate(trace, config=config, technique="dma-ta", cp_limit=0.10)

    def test_mu_zero_behaves_like_baseline(self, trace, baseline):
        zero = simulate(trace, technique="dma-ta", mu=0.0)
        assert zero.energy_joules == pytest.approx(
            baseline.energy_joules, rel=0.01)
        assert zero.head_delay_cycles == pytest.approx(
            baseline.head_delay_cycles, rel=0.05, abs=1e5)


class TestPopularityLayout:
    def test_pl_migrates(self, trace):
        pl = simulate(trace, technique="pl")
        assert pl.migrations > 0
        assert pl.energy.migration > 0
        assert pl.table_flushes >= 1

    def test_tapl_beats_ta_on_utilization(self, trace):
        ta = simulate(trace, technique="dma-ta", cp_limit=0.10)
        tapl = simulate(trace, technique="dma-ta-pl", cp_limit=0.10)
        assert tapl.utilization_factor > ta.utilization_factor

    def test_two_groups_beat_six(self, trace, baseline):
        """Section 5.2: excessive grouping migrates itself into a loss."""
        two = simulate(trace, technique="dma-ta-pl", cp_limit=0.10)
        six = simulate(trace,
                       config=SimulationConfig(
                           layout=PopularityLayoutConfig(num_groups=6)),
                       technique="dma-ta-pl", cp_limit=0.10)
        assert two.energy_savings_vs(baseline) >= \
               six.energy_savings_vs(baseline) - 0.01

    def test_baseline_has_no_migrations(self, baseline):
        assert baseline.migrations == 0
        assert baseline.energy.migration == 0.0
