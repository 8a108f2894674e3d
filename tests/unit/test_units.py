"""Units for unit conversions."""

import pytest

from repro import units
from repro.config import SimulationConfig


class TestTime:
    def test_cycle_seconds_roundtrip(self):
        seconds = units.cycles_to_seconds(1234.0)
        assert seconds * units.RDRAM_FREQUENCY_HZ == pytest.approx(1234.0)

    def test_cycle_is_0625_ns(self):
        assert units.cycles_to_seconds(1.0) * 1e9 == pytest.approx(0.625)


class TestBandwidth:
    def test_pcix_bandwidth(self):
        # 133 MHz x 8 bytes = 1.064 GB/s.
        assert units.PCIX_BANDWIDTH == pytest.approx(1.064e9)

    def test_paper_bandwidth_ratio(self):
        # "a factor of three more than the bandwidth of a PCI-X bus"
        ratio = SimulationConfig().bandwidth_ratio
        assert ratio == pytest.approx(3.0, abs=0.02)

    def test_bytes_per_cycle(self):
        # RDRAM-1600 moves 3.2 GB/s.
        assert units.bandwidth_bytes_per_cycle(3.2e9) == pytest.approx(2.0)
        # PCI-X delivers one 8-byte request every ~12 memory cycles.
        per_cycle = units.bandwidth_bytes_per_cycle(units.PCIX_BANDWIDTH)
        assert 8.0 / per_cycle == pytest.approx(12.0, abs=0.05)


class TestEnergy:
    def test_energy_joules(self):
        # 300 mW for 1600 cycles (1 us) = 0.3 uJ.
        assert units.energy_joules(0.3, 1600.0) == pytest.approx(3e-7)
