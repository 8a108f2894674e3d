"""Units for the mechanical disk model and the striped array."""

import pytest

from repro.errors import ConfigurationError
from repro.storage.disk import Disk, DiskParameters
from repro.storage.raid import StripedArray


class TestParameters:
    def test_rotation(self):
        params = DiskParameters(rpm=15_000)
        assert params.full_rotation_ms == pytest.approx(4.0)

    def test_seek_curve(self):
        params = DiskParameters()
        assert params.seek_ms(0, 0) == 0.0
        short = params.seek_ms(0, 100)
        long = params.seek_ms(0, params.capacity_blocks)
        assert 0 < short < long
        assert long == pytest.approx(params.max_seek_ms)

    def test_transfer_time(self):
        params = DiskParameters(transfer_mb_per_s=60.0)
        assert params.transfer_ms(60_000_000) == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiskParameters(rpm=0)
        with pytest.raises(ConfigurationError):
            DiskParameters(cache_hit_probability=1.5)
        with pytest.raises(ConfigurationError):
            DiskParameters(min_seek_ms=5.0, max_seek_ms=1.0)


class TestDisk:
    def test_service_within_mechanical_bounds(self):
        disk = Disk(0, DiskParameters(cache_hit_probability=0.0), seed=1)
        for block in (0, 1000, 500_000):
            service = disk.service_ms(block, 8192)
            assert 0 < service < (disk.params.max_seek_ms
                                  + disk.params.full_rotation_ms + 1.0)

    def test_cache_hits_fast(self):
        disk = Disk(0, DiskParameters(cache_hit_probability=1.0), seed=1)
        assert disk.service_ms(123_456, 8192) < 0.5

    def test_fifo_queueing(self):
        disk = Disk(0, DiskParameters(cache_hit_probability=0.0), seed=1)
        first = disk.submit(0.0, 100, 8192)
        second = disk.submit(0.0, 200_000, 8192)
        assert second > first

    def test_idle_disk_starts_immediately(self):
        disk = Disk(0, seed=1)
        completion = disk.submit(100.0, 10, 8192)
        assert completion > 100.0

    def test_utilization(self):
        disk = Disk(0, seed=1)
        disk.submit(0.0, 10, 8192)
        assert 0 < disk.utilization(1_000.0) <= 1.0
        assert disk.utilization(0.0) == 0.0

    def test_determinism(self):
        a = Disk(0, seed=9)
        b = Disk(0, seed=9)
        assert a.submit(0.0, 77, 8192) == b.submit(0.0, 77, 8192)


class TestArray:
    def test_striping(self):
        array = StripedArray(num_disks=4)
        disk, physical = array.locate(10)
        assert disk == 2
        assert physical == 2

    def test_load_spread(self):
        array = StripedArray(num_disks=4, seed=2)
        for block in range(64):
            array.submit(0.0, block, 8192)
        served = [d.requests_served for d in array.disks]
        assert served == [16, 16, 16, 16]

    def test_rejects_zero_disks(self):
        with pytest.raises(ConfigurationError):
            StripedArray(num_disks=0)
