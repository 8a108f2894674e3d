"""Units for the aggregate memory system."""

import pytest

from repro.config import MemoryConfig
from repro.energy.policies import default_dynamic_policy
from repro.errors import LayoutError
from repro.memory.address import InterleavedLayout, SequentialLayout
from repro.memory.system import MemorySystem

MB = 1 << 20


@pytest.fixture
def config():
    return MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192)


@pytest.fixture
def policy(config):
    return default_dynamic_policy(config.power_model)


class TestConstruction:
    def test_one_chip_object_per_chip(self, config, policy):
        system = MemorySystem(config, policy)
        assert len(system.chips) == 4
        assert [c.chip_id for c in system.chips] == [0, 1, 2, 3]

    def test_default_layout_is_random(self, config, policy):
        system = MemorySystem(config, policy)
        chips = {system.layout.chip_of(p) for p in range(64)}
        assert len(chips) > 1

    def test_custom_layout(self, config, policy):
        layout = SequentialLayout(4, config.pages_per_chip)
        system = MemorySystem(config, policy, layout=layout)
        assert system.layout.chip_of(0) == 0
        assert system.layout.chip_of(config.pages_per_chip) == 1

    def test_layout_shape_mismatch_rejected(self, config, policy):
        with pytest.raises(LayoutError):
            MemorySystem(config, policy,
                         layout=SequentialLayout(8, config.pages_per_chip))
        with pytest.raises(LayoutError):
            MemorySystem(config, policy, layout=InterleavedLayout(4, 2))


class TestAggregation:
    def test_totals_sum_chips(self, config, policy):
        system = MemorySystem(config, policy)
        system.advance_all(1_000_000.0)
        for chip in system.chips:
            assert chip.time.total == pytest.approx(1_000_000.0)

    def test_wake_counting(self, config, policy):
        system = MemorySystem(config, policy)
        system.advance_all(100_000.0)
        system.chips[0].wake(100_000.0)
        system.chips[2].wake(100_000.0)
        assert sum(chip.wake_count for chip in system.chips) == 2

    def test_start_asleep_flag(self, config, policy):
        asleep = MemorySystem(config, policy, start_asleep=True)
        awake = MemorySystem(config, policy, start_asleep=False)
        assert asleep.chips[0].is_low_power(0.0)
        assert not awake.chips[0].is_low_power(0.0)
