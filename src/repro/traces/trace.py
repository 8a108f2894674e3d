"""The :class:`Trace` container and its manipulation utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import TraceError
from repro.traces.records import ClientRequest, DMATransfer, ProcessorBurst, TraceRecord


@dataclass
class Trace:
    """A time-sorted memory-access trace plus client-request context.

    Attributes:
        name: identifier ("OLTP-St", "Synthetic-Db", ...).
        records: timed records, sorted by ``time`` (enforced).
        clients: client-request table keyed by request id.
        duration_cycles: trace horizon; at least the last record time.
        metadata: free-form generator parameters (rates, seed, page count)
            kept for reproducibility and for Table 2 reporting.
    """

    name: str
    records: list[TraceRecord] = field(default_factory=list)
    clients: dict[int, ClientRequest] = field(default_factory=dict)
    duration_cycles: float = 0.0
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.records.sort(key=lambda r: r.time)
        if self.records:
            last = self.records[-1].time
            if self.duration_cycles < last:
                self.duration_cycles = last
        self._validate()

    def _validate(self) -> None:
        for record in self.records:
            if isinstance(record, DMATransfer) and record.request_id is not None:
                if record.request_id not in self.clients:
                    raise TraceError(
                        f"transfer references unknown client request "
                        f"{record.request_id}")

    # --- views -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def transfers(self) -> list[DMATransfer]:
        """The DMA transfer records only, in time order."""
        return [r for r in self.records if isinstance(r, DMATransfer)]

    @property
    def processor_bursts(self) -> list[ProcessorBurst]:
        """The processor-burst records only, in time order."""
        return [r for r in self.records if isinstance(r, ProcessorBurst)]

    def pages(self) -> set[int]:
        """All logical pages referenced by the trace."""
        return {r.page for r in self.records}

    def max_page(self) -> int:
        """Largest referenced page id (-1 for an empty trace)."""
        return max((r.page for r in self.records), default=-1)

    # --- transformations ---------------------------------------------------

    def clipped(self, duration_cycles: float) -> "Trace":
        """A copy truncated to the first ``duration_cycles`` cycles."""
        if duration_cycles <= 0:
            raise TraceError("clip duration must be positive")
        records = [r for r in self.records if r.time < duration_cycles]
        ids = {r.request_id for r in records
               if isinstance(r, DMATransfer) and r.request_id is not None}
        clients = {i: self.clients[i] for i in ids}
        return Trace(
            name=self.name,
            records=records,
            clients=clients,
            duration_cycles=duration_cycles,
            metadata=dict(self.metadata),
        )

    def merged_with(self, other: "Trace", name: str | None = None) -> "Trace":
        """Merge two traces into one time-sorted trace.

        Client-request ids must not collide; generators namespace them.
        """
        overlap = self.clients.keys() & other.clients.keys()
        if overlap:
            raise TraceError(f"client request id collision: {sorted(overlap)[:5]}")
        clients = dict(self.clients)
        clients.update(other.clients)
        return Trace(
            name=name or f"{self.name}+{other.name}",
            records=list(self.records) + list(other.records),
            clients=clients,
            duration_cycles=max(self.duration_cycles, other.duration_cycles),
            metadata={"merged_from": [self.name, other.name]},
        )

    def fingerprint(self) -> str:
        """A stable hex digest of the full trace content.

        Hashes the canonical JSONL serialisation (header, clients,
        records — see :mod:`repro.traces.io`), so the digest survives a
        write/read round-trip and process restarts. Two traces with the
        same digest drive byte-identical simulations; :mod:`repro.exec`
        uses this as the trace component of its cache keys.

        Memoised on first use: traces are value objects whose records
        are never mutated after construction (every transformation —
        ``clipped``, ``merged_with``, :mod:`repro.traces.transform` —
        returns a new Trace), so the digest cannot go stale.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached

        import hashlib
        import io as _io

        from repro.traces.io import _write_stream

        buffer = _io.StringIO()
        _write_stream(self, buffer)
        digest = hashlib.sha256(
            buffer.getvalue().encode("utf-8")).hexdigest()
        self.__dict__["_fingerprint"] = digest
        return digest

    # --- summary -----------------------------------------------------------

    def transfer_rate_per_ms(self, frequency_hz: float) -> float:
        """Average DMA transfers per millisecond of simulated time."""
        if self.duration_cycles <= 0:
            return 0.0
        duration_ms = self.duration_cycles / frequency_hz * 1e3
        return len(self.transfers) / duration_ms
