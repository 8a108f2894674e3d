"""Trace transformations: rescaling, filtering, anonymising, splitting.

These are the workload-engineering tools behind sensitivity studies: the
Figure 8 intensity sweep is a time-compression of one base trace, source
filters isolate network from disk behaviour, and anonymisation strips
client context so traces from different generators can be mixed.
All transforms are pure — they return new :class:`Trace` objects.
"""

from __future__ import annotations

import dataclasses

from repro.errors import TraceError
from repro.traces.records import ClientRequest, DMATransfer
from repro.traces.trace import Trace


def scale_intensity(trace: Trace, factor: float,
                    name: str | None = None) -> Trace:
    """Compress (factor > 1) or dilate (factor < 1) the trace in time.

    Multiplying the event density by ``factor`` divides every timestamp
    and the horizon by it; transfer sizes and per-record contents are
    untouched, so the DMA request geometry is preserved while the
    arrival rate scales — the paper's Figure 8 axis.
    """
    if factor <= 0:
        raise TraceError("intensity factor must be positive")
    records = []
    for record in trace.records:
        records.append(dataclasses.replace(record, time=record.time / factor))
    clients = {
        rid: dataclasses.replace(c, arrival=c.arrival / factor)
        for rid, c in trace.clients.items()
    }
    return Trace(
        name=name or f"{trace.name}x{factor:g}",
        records=records,
        clients=clients,
        duration_cycles=trace.duration_cycles / factor,
        metadata={**trace.metadata, "intensity_factor": factor},
    )


def filter_source(trace: Trace, source: str,
                  keep_processor: bool = False) -> Trace:
    """Keep only DMA transfers from one source (``network``/``disk``).

    Client requests whose transfers are all dropped are removed too.
    """
    records = []
    for record in trace.records:
        if isinstance(record, DMATransfer):
            if record.source == source:
                records.append(record)
        elif keep_processor:
            records.append(record)
    referenced = {r.request_id for r in records
                  if isinstance(r, DMATransfer) and r.request_id is not None}
    clients = {rid: c for rid, c in trace.clients.items()
               if rid in referenced}
    return Trace(
        name=f"{trace.name}:{source}",
        records=records,
        clients=clients,
        duration_cycles=trace.duration_cycles,
        metadata={**trace.metadata, "source_filter": source},
    )


def strip_clients(trace: Trace, name: str | None = None) -> Trace:
    """Drop the client table and request-id references.

    The result carries raw memory traffic only — mixable with any other
    stripped trace without id collisions, at the cost of CP-Limit
    calibration (pass ``mu`` explicitly for such traces).
    """
    records = []
    for record in trace.records:
        if isinstance(record, DMATransfer) and record.request_id is not None:
            records.append(dataclasses.replace(record, request_id=None))
        else:
            records.append(record)
    return Trace(
        name=name or trace.name,
        records=records,
        clients={},
        duration_cycles=trace.duration_cycles,
        metadata=dict(trace.metadata),
    )


def renumber_clients(trace: Trace, offset: int) -> Trace:
    """Shift every client-request id by ``offset`` (for collision-free
    merges of independently generated traces)."""
    if offset < 0:
        raise TraceError("offset must be non-negative")
    records = []
    for record in trace.records:
        if isinstance(record, DMATransfer) and record.request_id is not None:
            records.append(dataclasses.replace(
                record, request_id=record.request_id + offset))
        else:
            records.append(record)
    clients = {
        rid + offset: dataclasses.replace(c, request_id=rid + offset)
        for rid, c in trace.clients.items()
    }
    return Trace(
        name=trace.name,
        records=records,
        clients=clients,
        duration_cycles=trace.duration_cycles,
        metadata=dict(trace.metadata),
    )


def merge_traces(traces: list[Trace], name: str = "merged") -> Trace:
    """Merge several traces, renumbering clients to avoid collisions."""
    if not traces:
        raise TraceError("nothing to merge")
    offset = 0
    records = []
    clients: dict[int, ClientRequest] = {}
    for trace in traces:
        shifted = renumber_clients(trace, offset)
        records.extend(shifted.records)
        clients.update(shifted.clients)
        offset = max(clients.keys(), default=-1) + 1
    return Trace(
        name=name,
        records=records,
        clients=clients,
        duration_cycles=max(t.duration_cycles for t in traces),
        metadata={"merged_from": [t.name for t in traces]},
    )


def resize_transfers(trace: Trace, size_bytes: int) -> Trace:
    """Replace every transfer's size (request-size sensitivity studies).

    The paper notes transfers of 512 bytes (disk sectors) up to 8 KB
    (pages); this transform re-expresses a trace at a different block
    size while keeping its arrival process and page targets.
    """
    if size_bytes <= 0:
        raise TraceError("size must be positive")
    records = []
    for record in trace.records:
        if isinstance(record, DMATransfer):
            records.append(dataclasses.replace(record,
                                               size_bytes=size_bytes))
        else:
            records.append(record)
    return Trace(
        name=f"{trace.name}@{size_bytes}B",
        records=records,
        clients=dict(trace.clients),
        duration_cycles=trace.duration_cycles,
        metadata={**trace.metadata, "transfer_bytes": size_bytes},
    )
