"""Concrete device power models.

:func:`rdram_1600_model` is a direct transcription of the paper's Table 1
(512-Mb 1600-MHz RDRAM), the model every experiment in the paper uses.
:func:`ddr_sdram_model` provides the DDR-SDRAM variant Section 3 mentions
(same state powers, 2.1 GB/s peak bandwidth) for sensitivity studies. The
Figure 10 bandwidth-ratio sweep keeps this memory and varies the bus
(:meth:`repro.config.SimulationConfig.with_bus_bandwidth`).
"""

from __future__ import annotations

from repro import units
from repro.energy.states import PowerModel, PowerState, make_power_model

#: Table 1 steady-state powers, milliwatts.
TABLE1_STATE_POWER_MW = {
    PowerState.ACTIVE: 300.0,
    PowerState.STANDBY: 180.0,
    PowerState.NAP: 30.0,
    PowerState.POWERDOWN: 3.0,
}

#: Table 1 downward transitions: state -> (power mW, time in memory cycles).
TABLE1_DOWNWARD_MW_CYCLES = {
    PowerState.STANDBY: (240.0, 1.0),
    PowerState.NAP: (160.0, 8.0),
    PowerState.POWERDOWN: (15.0, 8.0),
}

#: Table 1 upward transitions: state -> (power mW, resync time in ns).
TABLE1_UPWARD_MW_NS = {
    PowerState.STANDBY: (240.0, 6.0),
    PowerState.NAP: (160.0, 60.0),
    PowerState.POWERDOWN: (15.0, 6000.0),
}


def rdram_1600_model() -> PowerModel:
    """The 512-Mb 1600-MHz RDRAM model of Table 1 (3.2 GB/s peak)."""
    return make_power_model(
        name="RDRAM-1600",
        frequency_hz=units.RDRAM_FREQUENCY_HZ,
        bytes_per_cycle=2.0,
        state_power_mw=TABLE1_STATE_POWER_MW,
        downward_mw_cycles=TABLE1_DOWNWARD_MW_CYCLES,
        upward_mw_ns=TABLE1_UPWARD_MW_NS,
    )


def ddr_sdram_model() -> PowerModel:
    """A DDR-SDRAM-like variant: same Table 1 powers, 2.1 GB/s peak.

    Section 3 notes the analysis for DDR SDRAM is the same with different
    absolute numbers because the device bandwidth is 2.1 GB/s rather than
    3.2 GB/s. We keep the memory clock and scale bytes/cycle accordingly.
    """
    bytes_per_cycle = units.DDR_SDRAM_BANDWIDTH / units.RDRAM_FREQUENCY_HZ
    return make_power_model(
        name="DDR-SDRAM-2100",
        frequency_hz=units.RDRAM_FREQUENCY_HZ,
        bytes_per_cycle=bytes_per_cycle,
        state_power_mw=TABLE1_STATE_POWER_MW,
        downward_mw_cycles=TABLE1_DOWNWARD_MW_CYCLES,
        upward_mw_ns=TABLE1_UPWARD_MW_NS,
    )
