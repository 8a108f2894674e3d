"""Units for the low-level power-management policies."""

import dataclasses
import math

import pytest

from repro import simulate
from repro.config import SimulationConfig
from repro.energy.policies import (
    AlwaysOnPolicy,
    DynamicThresholdPolicy,
    StaticPolicy,
    break_even_cycles,
    default_dynamic_policy,
)
from repro.energy.rdram import rdram_1600_model
from repro.energy.states import PowerState
from repro.errors import ConfigurationError
from repro.traces.synthetic import synthetic_storage_trace


@pytest.fixture
def model():
    return rdram_1600_model()


class TestBreakEven:
    def test_break_even_values(self, model):
        """Break-even thresholds derived from Table 1.

        Standby ~20 cycles (matching the paper's "20-30 memory cycles"),
        nap ~61, powerdown ~485.
        """
        assert break_even_cycles(model, PowerState.STANDBY) == pytest.approx(
            19.7, abs=0.5)
        assert break_even_cycles(model, PowerState.NAP) == pytest.approx(
            60.7, abs=0.5)
        assert break_even_cycles(model, PowerState.POWERDOWN) == pytest.approx(
            485.2, abs=1.0)

    def test_break_even_monotone_in_depth(self, model):
        values = [break_even_cycles(model, s)
                  for s in (PowerState.STANDBY, PowerState.NAP,
                            PowerState.POWERDOWN)]
        assert values == sorted(values)

    def test_active_break_even_zero(self, model):
        assert break_even_cycles(model, PowerState.ACTIVE) == 0.0

    def test_dma_gap_below_first_threshold(self, model):
        """The 8-cycle gap between DMA-memory requests is below every
        break-even threshold — the root cause of the paper's waste."""
        gap = 12.0 - model.serve_cycles(8)
        assert gap < break_even_cycles(model, PowerState.STANDBY)


class TestAlwaysOn:
    def test_empty_schedule(self, model):
        policy = AlwaysOnPolicy()
        assert policy.schedule(model) == ()
        assert policy.first_threshold(model) == math.inf


class TestStatic:
    def test_immediate_parking(self, model):
        policy = StaticPolicy(state=PowerState.NAP)
        assert policy.schedule(model) == ((0.0, PowerState.NAP),)

    def test_delayed_parking(self, model):
        policy = StaticPolicy(state=PowerState.POWERDOWN, delay_cycles=100.0)
        assert policy.first_threshold(model) == 100.0

    def test_rejects_active(self):
        with pytest.raises(ConfigurationError):
            StaticPolicy(state=PowerState.ACTIVE)

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            StaticPolicy(state=PowerState.NAP, delay_cycles=-1.0)


class TestDynamic:
    def test_default_policy_schedule(self, model):
        policy = default_dynamic_policy(model)
        schedule = policy.schedule(model)
        assert [s for _, s in schedule] == [
            PowerState.STANDBY, PowerState.NAP, PowerState.POWERDOWN]
        thresholds = [t for t, _ in schedule]
        assert thresholds == sorted(thresholds)

    def test_scale(self, model):
        base = default_dynamic_policy(model)
        double = default_dynamic_policy(model, scale=2.0)
        assert double.first_threshold(model) == pytest.approx(
            2 * base.first_threshold(model))

    def test_scale_must_be_positive(self, model):
        with pytest.raises(ConfigurationError):
            default_dynamic_policy(model, scale=0.0)

    def test_from_mapping_orders_by_depth(self):
        policy = DynamicThresholdPolicy.from_mapping({
            PowerState.POWERDOWN: 500.0,
            PowerState.STANDBY: 20.0,
        })
        states = [s for s, _ in policy.thresholds_cycles]
        assert states == [PowerState.STANDBY, PowerState.POWERDOWN]

    def test_rejects_decreasing_thresholds(self):
        with pytest.raises(ConfigurationError):
            DynamicThresholdPolicy(thresholds_cycles=(
                (PowerState.STANDBY, 100.0),
                (PowerState.NAP, 50.0),
            ))

    def test_rejects_non_deepening_states(self):
        with pytest.raises(ConfigurationError):
            DynamicThresholdPolicy(thresholds_cycles=(
                (PowerState.NAP, 10.0),
                (PowerState.STANDBY, 20.0),
            ))

    def test_rejects_active_target(self):
        with pytest.raises(ConfigurationError):
            DynamicThresholdPolicy(thresholds_cycles=(
                (PowerState.ACTIVE, 10.0),))


class TestEndToEnd:
    def test_paper_claim_threshold_insensitivity(self, model):
        """Section 3: other threshold schemes gave "similar" results
        because DMA traffic makes memory energy almost insensitive to the
        threshold setting. Simulate with break-even thresholds scaled
        over 8x and check the energy moves only a little."""
        trace = synthetic_storage_trace(duration_ms=4.0, seed=23)
        energies = []
        for scale in (0.5, 1.0, 4.0):
            policy = default_dynamic_policy(model, scale=scale)
            config = dataclasses.replace(SimulationConfig(), policy=policy)
            result = simulate(trace, config=config, technique="baseline")
            energies.append(result.energy_joules)
        spread = (max(energies) - min(energies)) / min(energies)
        assert spread < 0.20
