"""Block-trace replay: public storage traces as DMA arrival processes.

Every workload the simulator has consumed so far was synthesised from the
paper's two OLTP descriptions. This module closes the fidelity gap by
replaying *real* block traces — MSR-Cambridge / CloudPhysics-style CSV
files of ``(timestamp, host, disk, offset, size, read/write)`` I/Os —
through the existing :class:`~repro.traces.records.DMATransfer` /
:class:`~repro.traces.records.ProcessorBurst` /
:class:`~repro.traces.records.ClientRequest` record model:

* each block I/O becomes one page-aligned DMA transfer chain against
  logical pages chosen by a configurable offset→page layout;
* each ``(host, disk)`` pair is a namespace that can pin its traffic to
  one I/O bus (``by-disk``) or defer to the simulator's round-robin;
* processor bursts are synthesised from an I/O-to-compute ratio, so a
  replayed storage trace can stand in for a database-style workload;
* time-window sampling plus time compression squeeze multi-hour traces
  into bench-budget simulations while preserving per-bus ordering.

Malformed input never surfaces a raw ``KeyError``/``ValueError``: every
parse failure raises :class:`~repro.errors.TraceError` naming the
offending line number.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro import units
from repro.errors import ConfigurationError, TraceError
from repro.traces.records import (
    ClientRequest,
    DMATransfer,
    ProcessorBurst,
    SOURCE_DISK,
    SOURCE_NETWORK,
)
from repro.traces.trace import Trace

#: Windows FILETIME tick (MSR-Cambridge timestamps): 100 ns.
_FILETIME_TICK_S = 100e-9

#: Disk sector implied by CloudPhysics-style LBA columns.
_SECTOR_BYTES = 512

#: Supported CSV dialects, in the order ``repro replay --dialect`` lists.
DIALECTS = ("msr", "cloudphysics")

#: Offset→page layout strategies.
PAGE_LAYOUTS = ("modulo", "hash")

#: Bus assignment strategies.
BUS_ASSIGNMENTS = ("by-disk", "simulator")


@dataclass(frozen=True, slots=True)
class BlockIO:
    """One parsed block-level I/O, dialect-independent.

    Attributes:
        time_s: arrival time in seconds from the start of the file's
            epoch (rebased to the trace start during replay).
        host: hostname / workload tag (``""`` when the dialect has none).
        disk: disk number within the host.
        offset: byte offset on the disk.
        size_bytes: I/O length in bytes.
        is_write: True for writes (DMA into memory), False for reads.
        latency_s: device response time when the dialect records one
            (feeds the client-request base time), else 0.
    """

    time_s: float
    host: str
    disk: int
    offset: int
    size_bytes: int
    is_write: bool
    latency_s: float = 0.0

    @property
    def namespace(self) -> str:
        """The ``(host, disk)`` identity used for layout and buses."""
        return f"{self.host}:{self.disk}"


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs of the block-trace → simulator-trace conversion.

    Attributes:
        page_bytes: logical page size; block offsets are page-aligned
            down and long I/Os split into page-sized transfers.
        num_pages: size of the logical page space the trace is folded
            into. Must not exceed the simulated memory's ``total_pages``
            or the layout would address nonexistent frames.
        page_layout: ``"modulo"`` keeps a disk's pages sequential
            (namespaces striped across the space, wrapping modulo
            ``num_pages``) — a fresh first-touch buffer cache;
            ``"hash"`` scatters them with a stable blake2 hash — a
            long-running server whose cache carries no spatial order.
        bus_assignment: ``"by-disk"`` pins each namespace to bus
            ``index % num_buses`` (disks keep their queue ordering);
            ``"simulator"`` leaves ``bus=None`` for the engine's
            round-robin.
        num_buses: bus count used by ``"by-disk"``.
        max_transfers_per_io: cap on the page-sized transfers one block
            I/O may expand into (defensive bound against multi-MB I/Os).
        time_compression: trace seconds are divided by this factor
            (1000 ⇒ one traced second replays as one simulated
            millisecond), scaling arrival density without touching
            request geometry.
        window_start_s / window_s: replay only the I/Os inside
            ``[window_start_s, window_start_s + window_s)``, measured in
            trace seconds *from the first I/O* (real block traces start
            at huge absolute timestamps) and before compression;
            ``window_s=None`` replays to the end.
        proc_accesses_per_io: synthesised processor cache-line accesses
            per block I/O (the I/O-to-compute ratio); emitted as one
            burst over the transfer's wire window on the same page.
        make_clients: give every block I/O a client request whose base
            time is the recorded device latency (when the dialect has
            one) — enables CP-Limit calibration on replayed traces.
        base_latency_us: client base time used when the dialect records
            no latency column.
        source: DMA source tag for the replayed transfers.
        frequency_hz: memory frequency that converts seconds to cycles.
    """

    page_bytes: int = 8192
    num_pages: int = 131_072
    page_layout: str = "modulo"
    bus_assignment: str = "by-disk"
    num_buses: int = 3
    max_transfers_per_io: int = 64
    time_compression: float = 1.0
    window_start_s: float = 0.0
    window_s: float | None = None
    proc_accesses_per_io: float = 0.0
    make_clients: bool = True
    base_latency_us: float = 50.0
    source: str = SOURCE_DISK
    frequency_hz: float = units.RDRAM_FREQUENCY_HZ

    def __post_init__(self) -> None:
        if self.page_bytes <= 0:
            raise ConfigurationError("page_bytes must be positive")
        if self.num_pages <= 0:
            raise ConfigurationError("num_pages must be positive")
        if self.page_layout not in PAGE_LAYOUTS:
            raise ConfigurationError(
                f"unknown page_layout {self.page_layout!r}; "
                f"expected one of {PAGE_LAYOUTS}")
        if self.bus_assignment not in BUS_ASSIGNMENTS:
            raise ConfigurationError(
                f"unknown bus_assignment {self.bus_assignment!r}; "
                f"expected one of {BUS_ASSIGNMENTS}")
        if self.num_buses <= 0:
            raise ConfigurationError("num_buses must be positive")
        if self.max_transfers_per_io <= 0:
            raise ConfigurationError("max_transfers_per_io must be positive")
        if self.time_compression <= 0:
            raise ConfigurationError("time_compression must be positive")
        if self.window_start_s < 0:
            raise ConfigurationError("window_start_s must be non-negative")
        if self.window_s is not None and self.window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if self.proc_accesses_per_io < 0:
            raise ConfigurationError(
                "proc_accesses_per_io must be non-negative")
        if self.base_latency_us < 0:
            raise ConfigurationError("base_latency_us must be non-negative")
        if self.source not in (SOURCE_DISK, SOURCE_NETWORK):
            raise ConfigurationError(f"unknown source {self.source!r}")


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

def _parse_op(raw: str, line: int) -> bool:
    op = raw.strip().lower()
    if op in ("read", "r", "0"):
        return False
    if op in ("write", "w", "1"):
        return True
    raise TraceError(f"line {line}: unknown operation {raw!r} "
                     "(expected Read/Write or r/w)")


def _parse_number(raw: str, what: str, line: int,
                  minimum: float | None = None) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise TraceError(
            f"line {line}: bad {what} {raw!r}: not a number") from exc
    if not math.isfinite(value):
        raise TraceError(f"line {line}: bad {what} {raw!r}: not finite")
    if minimum is not None and value < minimum:
        raise TraceError(
            f"line {line}: bad {what} {raw!r}: must be >= {minimum:g}")
    return value


def _parse_msr_row(row: Sequence[str], line: int) -> BlockIO:
    """``timestamp,host,disk,type,offset,size[,response_time]``.

    Timestamps and response times are Windows FILETIME ticks (100 ns),
    offsets and sizes bytes — the MSR-Cambridge enterprise format.
    """
    if len(row) < 6:
        raise TraceError(
            f"line {line}: expected at least 6 MSR columns "
            f"(timestamp,host,disk,type,offset,size), got {len(row)}")
    ticks = _parse_number(row[0], "timestamp", line, minimum=0.0)
    disk = int(_parse_number(row[2], "disk number", line, minimum=0.0))
    is_write = _parse_op(row[3], line)
    offset = int(_parse_number(row[4], "offset", line, minimum=0.0))
    size = int(_parse_number(row[5], "size", line))
    if size <= 0:
        raise TraceError(f"line {line}: bad size {row[5]!r}: "
                         "must be positive")
    latency = 0.0
    if len(row) > 6 and row[6].strip():
        latency = _parse_number(row[6], "response time", line,
                                minimum=0.0) * _FILETIME_TICK_S
    return BlockIO(time_s=ticks * _FILETIME_TICK_S,
                   host=row[1].strip(), disk=disk, offset=offset,
                   size_bytes=size, is_write=is_write, latency_s=latency)


def _parse_cloudphysics_row(row: Sequence[str], line: int) -> BlockIO:
    """``timestamp_us,lba,op,size`` — the CloudPhysics/Cydonia format.

    Timestamps are microseconds, LBAs 512-byte sectors, sizes bytes.
    """
    if len(row) < 4:
        raise TraceError(
            f"line {line}: expected at least 4 CloudPhysics columns "
            f"(ts,lba,op,size), got {len(row)}")
    ts_us = _parse_number(row[0], "timestamp", line, minimum=0.0)
    lba = int(_parse_number(row[1], "lba", line, minimum=0.0))
    is_write = _parse_op(row[2], line)
    size = int(_parse_number(row[3], "size", line))
    if size <= 0:
        raise TraceError(f"line {line}: bad size {row[3]!r}: "
                         "must be positive")
    return BlockIO(time_s=ts_us * 1e-6, host="", disk=0,
                   offset=lba * _SECTOR_BYTES, size_bytes=size,
                   is_write=is_write)


_ROW_PARSERS = {
    "msr": _parse_msr_row,
    "cloudphysics": _parse_cloudphysics_row,
}


def read_block_csv(path: str | Path, dialect: str = "msr") -> list[BlockIO]:
    """Parse a block-trace CSV file into :class:`BlockIO` rows.

    An optional non-numeric header line is skipped. Blank lines and
    ``#`` comments are ignored. Any malformed row raises
    :class:`~repro.errors.TraceError` naming its line number.
    """
    if dialect not in _ROW_PARSERS:
        raise TraceError(f"unknown trace dialect {dialect!r}; "
                         f"expected one of {DIALECTS}")
    parser = _ROW_PARSERS[dialect]
    path = Path(path)
    rows: list[BlockIO] = []
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for line, row in enumerate(reader, start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            first = row[0].strip()
            if first.startswith("#"):
                continue
            if line == 1 and not _looks_numeric(first):
                continue  # header line
            rows.append(parser(row, line))
    if not rows:
        raise TraceError(f"{path}: no block I/O rows found")
    rows.sort(key=lambda r: r.time_s)
    return rows


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_window(rows: Sequence[BlockIO], start_s: float,
                  duration_s: float | None = None) -> list[BlockIO]:
    """The sub-list of rows inside ``[start_s, start_s + duration_s)``.

    Times are kept absolute (replay rebases them); relative order — and
    therefore per-namespace/per-bus ordering — is preserved, since the
    selection is a contiguous, order-preserving slice of the time-sorted
    input.
    """
    if start_s < 0:
        raise TraceError("window start must be non-negative")
    if duration_s is not None and duration_s <= 0:
        raise TraceError("window duration must be positive")
    end = math.inf if duration_s is None else start_s + duration_s
    return [r for r in rows if start_s <= r.time_s < end]


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def _hash_page(namespace_index: int, raw_page: int, num_pages: int) -> int:
    digest = hashlib.blake2b(f"{namespace_index}:{raw_page}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_pages


def replay_trace(
    source: str | Path | Sequence[BlockIO],
    config: ReplayConfig | None = None,
    dialect: str = "msr",
    name: str | None = None,
) -> Trace:
    """Convert a block trace into a simulator :class:`Trace`.

    ``source`` is either a CSV path (parsed with ``dialect``) or an
    already-parsed row sequence. The returned trace's metadata carries
    the replay knobs plus parse statistics (row counts, read/write mix,
    namespaces), which the golden-fixture tests pin down.
    """
    config = config or ReplayConfig()
    if isinstance(source, (str, Path)):
        rows = read_block_csv(source, dialect=dialect)
        trace_name = name or f"replay:{Path(source).stem}"
    else:
        rows = sorted(source, key=lambda r: r.time_s)
        trace_name = name or "replay"
    if not rows:
        raise TraceError("no block I/O rows to replay")

    # The window is specified relative to the first I/O: real block
    # traces (MSR FILETIME, epoch-microsecond dumps) start at huge
    # absolute timestamps nobody wants to type.
    start_s = rows[0].time_s + config.window_start_s
    rows = sample_window(rows, start_s, config.window_s)
    if not rows:
        end = ("end" if config.window_s is None
               else f"{config.window_start_s + config.window_s:g} s")
        raise TraceError(f"time window [{config.window_start_s:g} s, {end}) "
                         "selects no rows")

    namespaces: dict[str, int] = {}
    for row in rows:
        namespaces.setdefault(row.namespace, len(namespaces))
    stripe = max(1, config.num_pages // max(1, len(namespaces)))

    origin_s = rows[0].time_s
    cycles_per_s = config.frequency_hz / config.time_compression
    base_default = config.base_latency_us * 1e-6 * config.frequency_hz

    records: list[DMATransfer | ProcessorBurst] = []
    clients: dict[int, ClientRequest] = {}
    reads = writes = 0
    total_bytes = 0
    split_ios = 0

    for request_id, row in enumerate(rows):
        ns_index = namespaces[row.namespace]
        time = (row.time_s - origin_s) * cycles_per_s
        bus = (ns_index % config.num_buses
               if config.bus_assignment == "by-disk" else None)
        if row.is_write:
            writes += 1
        else:
            reads += 1
        total_bytes += row.size_bytes

        first_page = row.offset // config.page_bytes
        last_page = (row.offset + row.size_bytes - 1) // config.page_bytes
        span = last_page - first_page + 1
        if span > config.max_transfers_per_io:
            span = config.max_transfers_per_io
            split_ios += 1
        remaining = row.size_bytes

        request_ref = request_id if config.make_clients else None
        if config.make_clients:
            base = (row.latency_s * config.frequency_hz
                    if row.latency_s > 0 else base_default)
            clients[request_id] = ClientRequest(
                request_id=request_id, arrival=time, base_cycles=base)

        for chunk in range(span):
            raw_page = first_page + chunk
            if config.page_layout == "hash":
                page = _hash_page(ns_index, raw_page, config.num_pages)
            else:
                page = (ns_index * stripe + raw_page) % config.num_pages
            chunk_bytes = min(remaining, config.page_bytes)
            remaining -= chunk_bytes
            records.append(DMATransfer(
                time=time,
                page=page,
                size_bytes=chunk_bytes,
                source=config.source,
                # DMA direction: a block *read* fills memory from the
                # device (a write into memory); a block write drains it.
                is_write=not row.is_write,
                bus=bus,
                request_id=request_ref,
            ))
            if remaining <= 0:
                break

        proc = int(round(config.proc_accesses_per_io))
        if proc > 0:
            transfer_cycles = row.size_bytes * config.frequency_hz \
                / units.PCIX_BANDWIDTH
            records.append(ProcessorBurst(
                time=time, page=records[-1].page, count=proc,
                window_cycles=2.0 * transfer_cycles))

    duration = max((r.time for r in records), default=0.0)
    window_span_s = rows[-1].time_s - origin_s
    trace = Trace(
        name=trace_name,
        records=records,
        clients=clients,
        duration_cycles=duration,
        metadata={
            "generator": "replay_trace",
            "dialect": dialect if isinstance(source, (str, Path)) else None,
            "page_layout": config.page_layout,
            "bus_assignment": config.bus_assignment,
            "num_pages": config.num_pages,
            "time_compression": config.time_compression,
            "window_start_s": config.window_start_s,
            "window_s": config.window_s,
            "block_ios": len(rows),
            "block_reads": reads,
            "block_writes": writes,
            "block_bytes": total_bytes,
            "split_ios": split_ios,
            "namespaces": sorted(namespaces),
            "trace_span_s": window_span_s,
            "proc_accesses_per_io": config.proc_accesses_per_io,
        },
    )
    return trace

