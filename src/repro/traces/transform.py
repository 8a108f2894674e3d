"""Trace transformations: merge and resize.

:func:`merge_traces` mixes independently generated traces into one,
shifting each trace's client-request ids past the previous ones
(:func:`renumber_clients`) so the mix keeps a collision-free client
table. :func:`resize_transfers` re-expresses a trace at another transfer
size for the request-size sensitivity bench. All transforms are pure —
they return new :class:`Trace` objects.
"""

from __future__ import annotations

import dataclasses

from repro.errors import TraceError
from repro.traces.records import ClientRequest, DMATransfer
from repro.traces.trace import Trace


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
