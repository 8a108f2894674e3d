"""Units for the power-state model (Table 1 transcription)."""

import pytest

from repro.energy.rdram import rdram_1600_model, ddr_sdram_model
from repro.energy.states import (
    LOW_POWER_STATES,
    PowerModel,
    PowerState,
    Transition,
    make_power_model,
)
from repro.errors import ConfigurationError


@pytest.fixture
def model() -> PowerModel:
    return rdram_1600_model()


class TestPowerState:
    def test_depth_ordering(self):
        depths = [s.depth for s in PowerState]
        assert depths == sorted(depths)
        assert PowerState.ACTIVE.depth == 0
        assert PowerState.POWERDOWN.depth == 3

    def test_low_power_states_excludes_active(self):
        assert PowerState.ACTIVE not in LOW_POWER_STATES
        assert len(LOW_POWER_STATES) == 3


class TestTable1Numbers:
    """The model must transcribe Table 1 exactly."""

    def test_state_powers(self, model):
        assert model.power(PowerState.ACTIVE) == pytest.approx(0.300)
        assert model.power(PowerState.STANDBY) == pytest.approx(0.180)
        assert model.power(PowerState.NAP) == pytest.approx(0.030)
        assert model.power(PowerState.POWERDOWN) == pytest.approx(0.003)

    def test_downward_transition_times(self, model):
        assert model.sleep_time_cycles(PowerState.STANDBY) == 1.0
        assert model.sleep_time_cycles(PowerState.NAP) == 8.0
        assert model.sleep_time_cycles(PowerState.POWERDOWN) == 8.0

    def test_upward_resync_times(self, model):
        # +6ns, +60ns, +6000ns at 1600 MHz: 9.6, 96, 9600 cycles.
        upward = model.upward
        assert upward[PowerState.STANDBY].time_cycles == pytest.approx(9.6)
        assert upward[PowerState.NAP].time_cycles == pytest.approx(96.0)
        assert upward[PowerState.POWERDOWN].time_cycles == pytest.approx(
            9600.0)

    def test_active_needs_no_transition(self, model):
        assert model.sleep_time_cycles(PowerState.ACTIVE) == 0.0
        assert model.wake_energy(PowerState.ACTIVE) == 0.0
        assert model.sleep_energy(PowerState.ACTIVE) == 0.0

    def test_bandwidth(self, model):
        assert model.bandwidth_bytes_per_s == pytest.approx(3.2e9)
        assert model.bytes_per_cycle == 2.0

    def test_serve_cycles_for_8_byte_request(self, model):
        # The paper's 4-cycle service of an 8-byte DMA-memory request.
        assert model.serve_cycles(8) == pytest.approx(4.0)

    def test_transition_energy_positive(self, model):
        for state in LOW_POWER_STATES:
            assert model.wake_energy(state) > 0
            assert model.sleep_energy(state) > 0

    def test_powerdown_wake_energy_largest(self, model):
        # 15 mW for 6000 ns dwarfs the shallower wakes.
        assert (model.wake_energy(PowerState.POWERDOWN)
                > model.wake_energy(PowerState.NAP)
                > model.wake_energy(PowerState.STANDBY))


class TestVariants:
    def test_ddr_model_slower(self):
        ddr = ddr_sdram_model()
        assert ddr.bandwidth_bytes_per_s == pytest.approx(2.1e9)
        # Same Table 1 powers.
        assert ddr.power(PowerState.NAP) == pytest.approx(0.030)

    def test_replace(self, model):
        faster = model.replace(bytes_per_cycle=4.0)
        assert faster.bandwidth_bytes_per_s == pytest.approx(6.4e9)
        assert faster.serve_cycles(8) == pytest.approx(2.0)
        assert model.bytes_per_cycle == 2.0  # original untouched


class TestValidation:
    def test_power_ordering_enforced(self, model):
        with pytest.raises(ConfigurationError):
            make_power_model(
                name="bad",
                frequency_hz=1.6e9,
                bytes_per_cycle=2.0,
                state_power_mw={
                    PowerState.ACTIVE: 100.0,
                    PowerState.STANDBY: 200.0,  # hotter than active
                    PowerState.NAP: 30.0,
                    PowerState.POWERDOWN: 3.0,
                },
                downward_mw_cycles={s: (100.0, 1.0) for s in LOW_POWER_STATES},
                upward_mw_ns={s: (100.0, 10.0) for s in LOW_POWER_STATES},
            )

    def test_missing_transition_rejected(self, model):
        with pytest.raises(ConfigurationError):
            PowerModel(
                name="bad",
                frequency_hz=1.6e9,
                bytes_per_cycle=2.0,
                state_power_watts={s: model.power(s) for s in PowerState},
                downward={PowerState.STANDBY: Transition(0.1, 1.0)},
                upward={s: Transition(0.1, 1.0) for s in LOW_POWER_STATES},
            )
