"""Units for trace transformations."""

import pytest

from repro.errors import TraceError
from repro.traces.records import ClientRequest, DMATransfer, ProcessorBurst
from repro.traces.trace import Trace
from repro.traces.transform import (
    merge_traces,
    renumber_clients,
    resize_transfers,
)


@pytest.fixture
def trace():
    clients = {
        0: ClientRequest(request_id=0, arrival=100.0, base_cycles=50.0),
        1: ClientRequest(request_id=1, arrival=200.0, base_cycles=60.0),
    }
    records = [
        DMATransfer(time=100.0, page=1, size_bytes=8192, source="network",
                    request_id=0),
        DMATransfer(time=200.0, page=2, size_bytes=8192, source="disk",
                    request_id=1),
        ProcessorBurst(time=300.0, page=1, count=8),
    ]
    return Trace(name="base", records=records, clients=clients,
                 duration_cycles=1000.0, metadata={"seed": 1})


class TestRenumberAndMerge:
    def test_renumber(self, trace):
        shifted = renumber_clients(trace, 100)
        assert set(shifted.clients) == {100, 101}
        assert shifted.transfers[0].request_id == 100
        assert shifted.clients[100].request_id == 100

    def test_renumber_rejects_negative(self, trace):
        with pytest.raises(TraceError):
            renumber_clients(trace, -1)

    def test_merge_no_collisions(self, trace):
        merged = merge_traces([trace, trace, trace])
        assert len(merged.clients) == 6
        assert len(merged.transfers) == 6
        assert merged.duration_cycles == trace.duration_cycles

    def test_merge_empty_rejected(self):
        with pytest.raises(TraceError):
            merge_traces([])

    def test_merge_sorted(self, trace):
        between = Trace(name="b", records=[
            DMATransfer(time=150.0, page=3, size_bytes=8192),
            DMATransfer(time=50.0, page=4, size_bytes=8192)])
        merged = merge_traces([trace, between])
        times = [r.time for r in merged.records]
        assert times == sorted(times)


class TestResize:
    def test_resize(self, trace):
        small = resize_transfers(trace, 512)
        assert all(t.size_bytes == 512 for t in small.transfers)
        assert small.processor_bursts == trace.processor_bursts

    def test_rejects_nonpositive(self, trace):
        with pytest.raises(TraceError):
            resize_transfers(trace, 0)
