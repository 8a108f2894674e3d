"""Unit conversions used throughout the simulator.

The simulator's time base is **memory cycles** (floats) at the configured
memory frequency; the canonical default is the 1600-MHz RDRAM of the paper,
where one cycle is 0.625 ns. Energy is carried in **joules** and power in
**watts** internally; :func:`repro.energy.states.make_power_model` converts
the milliwatt values of the paper's Table 1.

Bandwidths are carried in **bytes per second**; constants give the paper's
PCI-X (1.064 GB/s) and DDR SDRAM (2.1 GB/s) numbers. RDRAM's 3.2 GB/s is
its power model's 2 bytes per cycle at 1600 MHz.
"""

from __future__ import annotations

# --- SI prefixes -----------------------------------------------------------

MEGA = 1e6
GIGA = 1e9

# --- Bandwidths from the paper (bytes/second) ------------------------------

#: PCI-X: 133 MHz x 8 bytes wide = 1.064 GB/s (Section 3).
PCIX_BANDWIDTH = 133 * MEGA * 8

#: DDR SDRAM of the era: ~2.1 GB/s (Section 3).
DDR_SDRAM_BANDWIDTH = 2.1 * GIGA

# --- Frequencies -----------------------------------------------------------

#: RDRAM memory frequency assumed by Table 1 and Figure 2(a).
RDRAM_FREQUENCY_HZ = 1600 * MEGA


def cycles_to_seconds(cycles: float, frequency_hz: float = RDRAM_FREQUENCY_HZ) -> float:
    """Convert a duration in memory cycles to seconds."""
    return cycles / frequency_hz


def energy_joules(power_watts: float, cycles: float,
                  frequency_hz: float = RDRAM_FREQUENCY_HZ) -> float:
    """Energy in joules consumed at ``power_watts`` for ``cycles`` cycles."""
    return power_watts * cycles_to_seconds(cycles, frequency_hz)


def bandwidth_bytes_per_cycle(bandwidth_bytes_per_s: float,
                              frequency_hz: float = RDRAM_FREQUENCY_HZ) -> float:
    """Express a bandwidth as bytes moved per memory cycle.

    The RDRAM default gives 2.0 bytes/cycle for the memory itself and
    ~0.665 bytes/cycle for a PCI-X bus, which yields the paper's 4-cycle
    serve / 12-cycle period geometry for 8-byte DMA-memory requests.
    """
    return bandwidth_bytes_per_s / frequency_hz
