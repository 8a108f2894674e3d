"""Units for the event queue and the result object."""

import pytest

from repro.energy.accounting import EnergyBreakdown, TimeBreakdown
from repro.errors import SimulationError
from repro.sim.engine import EventKind, EventQueue
from repro.sim.results import SimulationResult


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "b")
        q.push(1.0, EventKind.ARRIVAL, "a")
        assert q.pop()[2] == "a"
        assert q.pop()[2] == "b"

    def test_kind_breaks_ties(self):
        """COMPLETE before ARRIVAL at the same instant."""
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "arrival")
        q.push(5.0, EventKind.COMPLETE, "complete")
        assert q.pop()[2] == "complete"

    def test_insertion_order_breaks_remaining_ties(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "first")
        q.push(5.0, EventKind.ARRIVAL, "second")
        assert q.pop()[2] == "first"

    def test_now_advances(self):
        q = EventQueue()
        q.push(7.0, EventKind.EPOCH, None)
        q.pop()
        assert q.now == 7.0

    def test_push_into_past_rejected(self):
        q = EventQueue()
        q.push(10.0, EventKind.EPOCH, None)
        q.pop()
        with pytest.raises(SimulationError):
            q.push(5.0, EventKind.EPOCH, None)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, EventKind.EPOCH, None)
        assert q and len(q) == 1


class TestPrecedes:
    """``precedes(time, kind)``: would a push now pop before the rest?"""

    @pytest.fixture
    def queue(self):
        q = EventQueue()
        q.push(5.0, EventKind.EPOCH, None)
        return q

    def test_empty_queue(self):
        assert EventQueue().precedes(1e9, EventKind.PROBE)

    def test_equal_time_lower_kind(self, queue):
        assert queue.precedes(5.0, EventKind.ARRIVAL)

    def test_equal_time_higher_kind(self, queue):
        assert not queue.precedes(5.0, EventKind.PROBE)

    def test_equal_time_same_kind_pops_after(self, queue):
        # Insertion order breaks the tie: a new push goes last.
        assert not queue.precedes(5.0, EventKind.EPOCH)

    def test_earlier_time(self, queue):
        assert queue.precedes(4.0, EventKind.PROBE)

    def test_later_time(self, queue):
        assert not queue.precedes(6.0, EventKind.COMPLETE)

    def test_advance_moves_the_clock(self, queue):
        queue.advance(3.0)
        assert queue.now == 3.0
        queue.advance(2.0)
        assert queue.now == 3.0  # never backwards, as pop
        assert len(queue) == 1


def make_result(**overrides):
    defaults = dict(
        trace_name="t", technique="baseline", engine="fluid",
        duration_cycles=1000.0,
        energy=EnergyBreakdown(serving_dma=1.0, idle_dma=2.0, low_power=1.0),
        time=TimeBreakdown(serving_dma=4.0, idle_dma=8.0),
        transfers=1, requests=1024, mu=0.0, service_cycles=4.0,
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestSimulationResult:
    def test_energy_and_uf(self):
        r = make_result()
        assert r.energy_joules == pytest.approx(4.0)
        assert r.utilization_factor == pytest.approx(1 / 3)

    def test_savings(self):
        base = make_result()
        better = make_result(
            energy=EnergyBreakdown(serving_dma=1.0, idle_dma=0.5,
                                   low_power=0.5))
        assert better.energy_savings_vs(base) == pytest.approx(0.5)

    def test_avg_degradation(self):
        r = make_result(head_delay_cycles=1024.0, extra_service_cycles=0.0)
        assert r.avg_extra_service_cycles == pytest.approx(1.0)
        assert r.avg_service_degradation == pytest.approx(0.25)

    def test_client_degradation(self):
        base = make_result(client_responses={0: 100.0, 1: 200.0})
        slow = make_result(client_responses={0: 110.0, 1: 220.0})
        assert slow.client_degradation_vs(base) == pytest.approx(0.10)

    def test_client_degradation_uses_shared_requests(self):
        base = make_result(client_responses={0: 100.0})
        other = make_result(client_responses={1: 9999.0, 0: 150.0})
        assert other.client_degradation_vs(base) == pytest.approx(0.5)

    def test_client_degradation_empty(self):
        assert make_result().client_degradation_vs(make_result()) == 0.0

    def test_summary_contains_key_lines(self):
        r = make_result(mu=5.0, migrations=3)
        text = r.summary()
        assert "idle_dma" in text
        assert "guarantee" in text
        assert "migrations: 3" in text
