"""Units for the Trace container."""

import pytest

from repro.errors import TraceError
from repro.traces.records import ClientRequest, DMATransfer, ProcessorBurst
from repro.traces.trace import Trace


def dma(time, page=0, request_id=None):
    return DMATransfer(time=time, page=page, size_bytes=8192,
                       request_id=request_id)


class TestConstruction:
    def test_records_sorted(self):
        trace = Trace(name="t", records=[dma(50.0), dma(10.0), dma(30.0)])
        assert [r.time for r in trace.records] == [10.0, 30.0, 50.0]

    def test_duration_extends_to_last_record(self):
        trace = Trace(name="t", records=[dma(500.0)], duration_cycles=100.0)
        assert trace.duration_cycles == 500.0

    def test_unknown_client_rejected(self):
        with pytest.raises(TraceError):
            Trace(name="t", records=[dma(0.0, request_id=7)])

    def test_len_and_iter(self):
        trace = Trace(name="t", records=[dma(1.0), dma(2.0)])
        assert len(trace) == 2
        assert [r.time for r in trace] == [1.0, 2.0]


class TestViews:
    def test_transfer_and_burst_views(self):
        records = [dma(1.0), ProcessorBurst(time=2.0, page=0, count=4)]
        trace = Trace(name="t", records=records)
        assert len(trace.transfers) == 1
        assert len(trace.processor_bursts) == 1

    def test_pages(self):
        trace = Trace(name="t", records=[dma(1.0, page=3), dma(2.0, page=9)])
        assert trace.pages() == {3, 9}


class TestTransforms:
    def test_clipped(self):
        clients = {0: ClientRequest(request_id=0, arrival=0.0)}
        trace = Trace(name="t",
                      records=[dma(10.0, request_id=0), dma(500.0)],
                      clients=clients, duration_cycles=1000.0)
        short = trace.clipped(100.0)
        assert len(short) == 1
        assert short.duration_cycles == 100.0
        assert 0 in short.clients

    def test_clipped_drops_unreferenced_clients(self):
        clients = {0: ClientRequest(request_id=0, arrival=900.0)}
        trace = Trace(name="t", records=[dma(950.0, request_id=0)],
                      clients=clients, duration_cycles=1000.0)
        short = trace.clipped(100.0)
        assert short.clients == {}

    def test_clipped_rejects_nonpositive(self):
        with pytest.raises(TraceError):
            Trace(name="t").clipped(0.0)
