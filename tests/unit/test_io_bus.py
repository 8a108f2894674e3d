"""Units for the bus model (FIFO and fair sharing)."""

import itertools

import pytest

from repro.energy.rdram import rdram_1600_model
from repro.errors import ConfigurationError, SimulationError
from repro.io.bus import FluidBus
from repro.io.dma import FluidStream, StreamKind
from repro import units


_ids = itertools.count()


def make_stream(bus=0, chip=0):
    return FluidStream(kind=StreamKind.DMA, chip_id=chip, total_work=4096.0,
                       demand=1 / 3, stream_id=next(_ids), bus_id=bus)


@pytest.fixture
def fifo_bus():
    return FluidBus(0, units.PCIX_BANDWIDTH, rdram_1600_model())


@pytest.fixture
def fair_bus():
    return FluidBus(0, units.PCIX_BANDWIDTH, rdram_1600_model(),
                    sharing="fair")


class TestFullShare:
    def test_pcix_demand_is_one_third(self, fifo_bus):
        assert fifo_bus.full_share_demand == pytest.approx(1 / 3, abs=0.01)

    def test_fast_bus_capped_at_one(self):
        bus = FluidBus(0, 6.4e9, rdram_1600_model())
        assert bus.full_share_demand == 1.0


class TestFifo:
    def test_first_transfer_granted(self, fifo_bus):
        s = make_stream()
        assert fifo_bus.enqueue(s) is True
        assert fifo_bus.current is s

    def test_second_transfer_queues(self, fifo_bus):
        a, b = make_stream(), make_stream()
        fifo_bus.enqueue(a)
        assert fifo_bus.enqueue(b) is False
        assert list(fifo_bus.queue) == [b]
        assert fifo_bus.max_queue_depth == 1

    def test_finish_grants_next(self, fifo_bus):
        a, b = make_stream(), make_stream()
        fifo_bus.enqueue(a)
        fifo_bus.enqueue(b)
        assert fifo_bus.finish(a) is b
        assert fifo_bus.current is b

    def test_finish_last_empties(self, fifo_bus):
        a = make_stream()
        fifo_bus.enqueue(a)
        assert fifo_bus.finish(a) is None
        assert fifo_bus.current is None

    def test_finish_queued_stream_removes_it(self, fifo_bus):
        a, b = make_stream(), make_stream()
        fifo_bus.enqueue(a)
        fifo_bus.enqueue(b)
        assert fifo_bus.finish(b) is None
        assert not fifo_bus.queue

    def test_fifo_demand_is_constant(self, fifo_bus):
        fifo_bus.enqueue(make_stream())
        fifo_bus.enqueue(make_stream())
        assert fifo_bus.member_demand() == pytest.approx(
            fifo_bus.full_share_demand)
        assert fifo_bus.refresh_demands() == set()

    def test_counts_transfers(self, fifo_bus):
        for _ in range(3):
            s = make_stream()
            fifo_bus.enqueue(s)
        assert fifo_bus.transfers_carried == 3


class TestFair:
    def test_all_admitted_immediately(self, fair_bus):
        a, b = make_stream(), make_stream()
        assert fair_bus.enqueue(a) is True
        assert fair_bus.enqueue(b) is True
        assert fair_bus.members == {a, b}

    def test_demand_splits(self, fair_bus):
        a, b = make_stream(chip=1), make_stream(chip=2)
        fair_bus.enqueue(a)
        fair_bus.enqueue(b)
        touched = fair_bus.refresh_demands()
        assert touched == {1, 2}
        assert a.demand == pytest.approx(fair_bus.full_share_demand / 2)

    def test_finish_restores_demand(self, fair_bus):
        a, b = make_stream(chip=1), make_stream(chip=2)
        fair_bus.enqueue(a)
        fair_bus.enqueue(b)
        fair_bus.refresh_demands()
        fair_bus.finish(a)
        fair_bus.refresh_demands()
        assert b.demand == pytest.approx(fair_bus.full_share_demand)


class TestValidation:
    def test_wrong_bus_rejected(self, fifo_bus):
        with pytest.raises(SimulationError):
            fifo_bus.enqueue(make_stream(bus=1))

    def test_non_dma_rejected(self, fifo_bus):
        proc = FluidStream(kind=StreamKind.PROC, chip_id=0,
                           total_work=32.0, demand=1.0, stream_id=0,
                           bus_id=0)
        with pytest.raises(SimulationError):
            fifo_bus.enqueue(proc)

    def test_unknown_sharing_rejected(self):
        with pytest.raises(ConfigurationError):
            FluidBus(0, 1e9, rdram_1600_model(), sharing="priority")
