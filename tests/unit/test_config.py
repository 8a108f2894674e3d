"""Units for the configuration objects and their derived geometry."""

import math

import pytest

from repro import units
from repro.config import (
    BusConfig,
    MemoryConfig,
    PopularityLayoutConfig,
    ProcessorConfig,
    SimulationConfig,
    TemporalAlignmentConfig,
)
from repro.errors import ConfigurationError


class TestMemoryConfig:
    def test_paper_defaults(self):
        m = MemoryConfig()
        assert m.num_chips == 32
        assert m.total_bytes == 1 << 30  # 1 GB
        assert m.pages_per_chip == 4096
        assert m.total_pages == 131072
        assert m.serve_cycles == pytest.approx(4.0)

    def test_page_must_fit_chip(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(num_chips=1, chip_bytes=4096, page_bytes=8192)

    def test_chip_must_be_page_multiple(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(chip_bytes=(1 << 20) + 17)

    def test_positive_counts(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(num_chips=0)


class TestBusConfig:
    def test_defaults(self):
        b = BusConfig()
        assert b.count == 3
        assert b.bandwidth_bytes_per_s == pytest.approx(units.PCIX_BANDWIDTH)
        assert b.sharing == "fifo"

    def test_rejects_unknown_sharing(self):
        with pytest.raises(ConfigurationError):
            BusConfig(sharing="weighted")

    def test_rejects_zero_buses(self):
        with pytest.raises(ConfigurationError):
            BusConfig(count=0)


class TestDerivedGeometry:
    def test_request_period_is_12_cycles(self):
        cfg = SimulationConfig()
        assert cfg.request_period_cycles == pytest.approx(12.0, abs=0.05)

    def test_stream_demand_is_one_third(self):
        cfg = SimulationConfig()
        assert cfg.serve_cycles / cfg.request_period_cycles == pytest.approx(
            1 / 3, abs=0.01)

    def test_saturating_buses_is_three(self):
        """The paper's k = ceil(Rm/Rb) = 3 for PCI-X against RDRAM-1600."""
        assert SimulationConfig().saturating_buses == 3

    def test_saturating_buses_scales_with_bus_bandwidth(self):
        # Half a PCI-X: ratio ~6.015, tolerance trims it to 6.
        half = SimulationConfig().with_bus_bandwidth(units.PCIX_BANDWIDTH / 2)
        assert half.saturating_buses == 6
        # A bus as fast as the memory needs exactly one.
        fast = SimulationConfig().with_bus_bandwidth(3.2e9)
        assert fast.saturating_buses == 1

    def test_proc_serve_cycles(self):
        # A 64-byte cache line takes 32 cycles at 2 bytes/cycle.
        assert SimulationConfig().proc_serve_cycles == pytest.approx(32.0)

    def test_with_mu(self):
        cfg = SimulationConfig().with_mu(7.5)
        assert cfg.alignment.mu == 7.5

    def test_default_policy_attached(self):
        assert SimulationConfig().policy is not None


class TestAlignmentConfig:
    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigurationError):
            TemporalAlignmentConfig(mu=-1.0)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ConfigurationError, match="finite"):
            SimulationConfig().with_mu(mu)

    def test_zero_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            TemporalAlignmentConfig(epoch_cycles=0.0)

    def test_deadline_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            TemporalAlignmentConfig(deadline_fraction=0.0)
        with pytest.raises(ConfigurationError):
            TemporalAlignmentConfig(deadline_fraction=1.5)


class TestPeriods:
    """Every period must advance the clock: finite, at least one cycle.
    A shorter one would tick without end, NaN would run past the trace
    and infinity would never tick."""

    @pytest.mark.parametrize("make, name", [
        (lambda v: TemporalAlignmentConfig(epoch_cycles=v), "epoch_cycles"),
        (lambda v: PopularityLayoutConfig(interval_cycles=v),
         "interval_cycles"),
    ], ids=["epoch", "interval"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, 1e-12, 0.5, 0.0, -5.0])
    def test_rejected_with_field_and_value(self, make, name, value):
        with pytest.raises(ConfigurationError) as excinfo:
            make(value)
        assert name in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_one_cycle_accepted(self):
        assert TemporalAlignmentConfig(epoch_cycles=1.0).epoch_cycles == 1.0
        assert PopularityLayoutConfig(interval_cycles=1).interval_cycles == 1


class TestLayoutConfig:
    def test_needs_two_groups(self):
        with pytest.raises(ConfigurationError):
            PopularityLayoutConfig(num_groups=1)

    def test_hot_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            PopularityLayoutConfig(hot_access_fraction=0.0)
        with pytest.raises(ConfigurationError):
            PopularityLayoutConfig(hot_access_fraction=1.0)

    def test_counter_bits_bounds(self):
        with pytest.raises(ConfigurationError):
            PopularityLayoutConfig(counter_bits=0)
        with pytest.raises(ConfigurationError):
            PopularityLayoutConfig(counter_bits=40)

    def test_hysteresis_lower_bound(self):
        with pytest.raises(ConfigurationError):
            PopularityLayoutConfig(hysteresis_factor=0.5)


class TestProcessorConfig:
    def test_default_cache_line(self):
        assert ProcessorConfig().cache_line_bytes == 64

    def test_rejects_zero_line(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(cache_line_bytes=0)
