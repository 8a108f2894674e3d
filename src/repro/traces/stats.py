"""Trace characterisation: Table 2 rows and the Figure 4 popularity CDF."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro import units
from repro.traces.records import DMATransfer, SOURCE_DISK, SOURCE_NETWORK
from repro.traces.trace import Trace


@dataclass(frozen=True)
class TraceStats:
    """Summary characteristics of a trace (one Table 2 row, extended).

    Attributes:
        name: trace name.
        duration_ms: trace length.
        transfers: total DMA transfers.
        transfers_per_ms: total DMA transfer rate.
        net_transfers_per_ms / disk_transfers_per_ms: per-source rates.
        proc_accesses_per_ms: processor cache-line access rate.
        proc_accesses_per_transfer: the Figure 9 x-axis statistic.
        mean_transfer_bytes: average transfer size.
        pages_referenced: distinct pages touched.
        top20_access_fraction: fraction of DMA accesses going to the most
            popular 20% of referenced pages (Figure 4 read at x = 20).
    """

    name: str
    duration_ms: float
    transfers: int
    transfers_per_ms: float
    net_transfers_per_ms: float
    disk_transfers_per_ms: float
    proc_accesses_per_ms: float
    proc_accesses_per_transfer: float
    mean_transfer_bytes: float
    pages_referenced: int
    top20_access_fraction: float


def page_access_counts(trace: Trace) -> Counter:
    """DMA accesses per page (transfer-weighted, as in Figure 4)."""
    counts: Counter[int] = Counter()
    for record in trace.records:
        if isinstance(record, DMATransfer):
            counts[record.page] += 1
    return counts


def popularity_cdf(trace: Trace, points: int = 100) -> list[tuple[float, float]]:
    """The Figure 4 curve: ``(page fraction, access fraction)`` points.

    Pages are sorted by popularity; a point ``(x, y)`` means the most
    popular ``x`` fraction of referenced pages receives ``y`` fraction of
    the DMA accesses.
    """
    counts = page_access_counts(trace)
    if not counts:
        return []
    ordered = sorted(counts.values(), reverse=True)
    total = sum(ordered)
    cdf: list[tuple[float, float]] = []
    cumulative = 0
    next_edge = 1
    for index, value in enumerate(ordered, start=1):
        cumulative += value
        while index >= next_edge * len(ordered) / points and next_edge <= points:
            cdf.append((index / len(ordered), cumulative / total))
            next_edge += 1
    return cdf


def top_fraction_access_share(trace: Trace, page_fraction: float = 0.2) -> float:
    """Fraction of DMA accesses landing on the top ``page_fraction`` pages."""
    counts = page_access_counts(trace)
    if not counts:
        return 0.0
    ordered = sorted(counts.values(), reverse=True)
    top = max(1, int(round(page_fraction * len(ordered))))
    return sum(ordered[:top]) / sum(ordered)


def characterize(trace: Trace,
                 frequency_hz: float = units.RDRAM_FREQUENCY_HZ) -> TraceStats:
    """Compute the Table 2-style summary of a trace."""
    duration_ms = trace.duration_cycles / frequency_hz * 1e3
    transfers = trace.transfers
    bursts = trace.processor_bursts
    net = sum(1 for t in transfers if t.source == SOURCE_NETWORK)
    disk = sum(1 for t in transfers if t.source == SOURCE_DISK)
    proc = sum(b.count for b in bursts)
    total_bytes = sum(t.size_bytes for t in transfers)
    pages = {r.page for r in trace.records}

    per_ms = (lambda n: n / duration_ms) if duration_ms > 0 else (lambda n: 0.0)
    return TraceStats(
        name=trace.name,
        duration_ms=duration_ms,
        transfers=len(transfers),
        transfers_per_ms=per_ms(len(transfers)),
        net_transfers_per_ms=per_ms(net),
        disk_transfers_per_ms=per_ms(disk),
        proc_accesses_per_ms=per_ms(proc),
        proc_accesses_per_transfer=proc / len(transfers) if transfers else 0.0,
        mean_transfer_bytes=total_bytes / len(transfers) if transfers else 0.0,
        pages_referenced=len(pages),
        top20_access_fraction=top_fraction_access_share(trace, 0.2),
    )
