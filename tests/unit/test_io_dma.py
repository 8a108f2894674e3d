"""Units for streams, water-filling, and chip-capacity allocation."""

import itertools
import math

import pytest

from repro.errors import SimulationError
from repro.io.dma import (
    FluidStream,
    StreamKind,
    allocate_chip_capacity,
    water_fill,
)


_ids = itertools.count()


def stream(kind=StreamKind.DMA, work=4096.0, demand=1 / 3, bus=0):
    return FluidStream(kind=kind, chip_id=0, total_work=work, demand=demand,
                       stream_id=next(_ids),
                       bus_id=bus if kind is StreamKind.DMA else None)


class TestWaterFill:
    def test_under_capacity_grants_nominal(self):
        assert water_fill([0.2, 0.3], 1.0) == [0.2, 0.3]

    def test_over_capacity_fair_split(self):
        grants = water_fill([0.6, 0.6], 0.6)
        assert grants == pytest.approx([0.3, 0.3])

    def test_small_demand_fully_granted(self):
        grants = water_fill([0.1, 0.9, 0.9], 1.0)
        assert grants[0] == pytest.approx(0.1)
        assert grants[1] == pytest.approx(0.45)
        assert grants[2] == pytest.approx(0.45)

    def test_total_never_exceeds_capacity(self):
        grants = water_fill([0.5, 0.5, 0.5, 0.5], 1.0)
        assert sum(grants) == pytest.approx(1.0)

    def test_zero_capacity(self):
        assert water_fill([0.5, 0.5], 0.0) == [0.0, 0.0]

    def test_empty(self):
        assert water_fill([], 1.0) == []


class TestAllocate:
    def test_proc_preempts_dma(self):
        proc = stream(kind=StreamKind.PROC, demand=1.0)
        dma = stream()
        allocate_chip_capacity([proc, dma])
        assert proc.granted == pytest.approx(1.0)
        assert dma.granted == pytest.approx(0.0)

    def test_three_streams_saturate(self):
        streams = [stream(bus=b) for b in range(3)]
        allocate_chip_capacity(streams)
        assert sum(s.granted for s in streams) == pytest.approx(1.0, abs=0.01)
        for s in streams:
            assert s.granted == pytest.approx(s.demand)

    def test_migration_takes_leftovers(self):
        dma = stream()
        mig = stream(kind=StreamKind.MIGRATION, demand=1.0)
        allocate_chip_capacity([dma, mig])
        assert dma.granted == pytest.approx(dma.demand)
        assert mig.granted == pytest.approx(1.0 - dma.demand)

    def test_four_dma_streams_throttled(self):
        streams = [stream(bus=b % 3) for b in range(4)]
        allocate_chip_capacity(streams)
        assert sum(s.granted for s in streams) == pytest.approx(1.0)
        for s in streams:
            assert s.granted == pytest.approx(0.25)

    def test_done_streams_get_nothing(self):
        s = stream()
        s.remaining_work = 0.0
        allocate_chip_capacity([s])
        assert s.granted == 0.0


class TestStreamDynamics:
    def test_sync_drains_work(self):
        s = stream()
        s.granted = 1 / 3
        s.sync(300.0)
        assert s.remaining_work == pytest.approx(4096.0 - 100.0)

    def test_projected_completion(self):
        s = stream()
        s.granted = 0.5
        assert s.projected_completion(0.0) == pytest.approx(8192.0)

    def test_projected_infinite_when_starved(self):
        s = stream()
        s.granted = 0.0
        assert s.projected_completion(0.0) == math.inf

    def test_extra_service_accrues_when_throttled(self):
        s = stream(demand=1 / 3)
        s.granted = 1 / 6
        s.sync(600.0)
        # (demand - granted) * dt = (1/3 - 1/6) * 600 = 100 cycles.
        assert s.extra_service_cycles == pytest.approx(100.0)

    def test_no_extra_when_fully_granted(self):
        s = stream()
        s.granted = s.demand
        s.sync(600.0)
        assert s.extra_service_cycles == pytest.approx(0.0)

    def test_sync_backwards_raises(self):
        s = stream()
        s.sync(100.0)
        with pytest.raises(SimulationError):
            s.sync(50.0)

    def test_done_flag(self):
        s = stream(work=10.0)
        s.granted = 1.0
        s.sync(10.0)
        assert s.done

    def test_invalid_demand_rejected(self):
        with pytest.raises(SimulationError):
            FluidStream(kind=StreamKind.DMA, chip_id=0, total_work=1.0,
                        demand=1.5, stream_id=0, bus_id=0)

    def test_invalid_work_rejected(self):
        with pytest.raises(SimulationError):
            FluidStream(kind=StreamKind.DMA, chip_id=0, total_work=0.0,
                        demand=0.5, stream_id=0, bus_id=0)

    def test_identity_semantics(self):
        a, b = stream(), stream()
        assert a != b
        assert a == a
        assert len({a, b}) == 2
