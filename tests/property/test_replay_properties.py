"""Property tests for the block-trace replay adapter.

Three guarantees, each exercised over arbitrary generated block I/Os:

* CSV → :class:`BlockIO` → :class:`Trace` → ``write_trace`` /
  ``read_trace`` round-trips exactly;
* time-window sampling preserves per-namespace (and therefore per-bus)
  ordering and monotone timestamps;
* the offset→page layouts never emit a page outside the configured
  space, for any geometry and either layout strategy.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.config import MemoryConfig
from repro.traces.io import read_trace, write_trace
from repro.traces.records import DMATransfer
from repro.traces.replay import (
    BlockIO,
    ReplayConfig,
    read_block_csv,
    replay_trace,
    sample_window,
)

MB = 1 << 20

block_ios = st.builds(
    BlockIO,
    time_s=st.integers(min_value=0, max_value=10 ** 9).map(
        lambda ticks: ticks * 1e-7),
    host=st.sampled_from(["usr", "proj", "web"]),
    disk=st.integers(min_value=0, max_value=3),
    offset=st.integers(min_value=0, max_value=1 << 34).map(
        lambda o: o - o % 512),
    size_bytes=st.sampled_from([512, 1024, 4096, 8192, 16384, 65536]),
    is_write=st.booleans(),
    latency_s=st.integers(min_value=0, max_value=10 ** 6).map(
        lambda ticks: ticks * 1e-7),
)

row_lists = st.lists(block_ios, min_size=1, max_size=40)

configs = st.builds(
    ReplayConfig,
    num_pages=st.integers(min_value=1, max_value=4096),
    page_layout=st.sampled_from(["modulo", "hash"]),
    bus_assignment=st.sampled_from(["by-disk", "simulator"]),
    time_compression=st.sampled_from([1.0, 10.0, 1000.0]),
    proc_accesses_per_io=st.sampled_from([0.0, 8.0, 64.0]),
    make_clients=st.booleans(),
)


def _to_msr_csv(rows, path: Path) -> None:
    lines = ["Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"]
    for row in rows:
        ticks = round(row.time_s / 1e-7)
        latency = round(row.latency_s / 1e-7)
        op = "Write" if row.is_write else "Read"
        lines.append(f"{ticks},{row.host},{row.disk},{op},"
                     f"{row.offset},{row.size_bytes},{latency}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@given(row_lists, configs)
@settings(max_examples=40, deadline=None)
def test_csv_to_trace_round_trips_exactly(rows, config):
    """CSV → records → JSONL → records is the identity."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "block.csv"
        _to_msr_csv(rows, csv_path)
        parsed = read_block_csv(csv_path, dialect="msr")
        assert len(parsed) == len(rows)
        trace = replay_trace(parsed, config=config, name="prop")

        jsonl = Path(tmp) / "trace.jsonl"
        write_trace(trace, jsonl)
        loaded = read_trace(jsonl)
    assert loaded.records == trace.records
    assert loaded.clients == trace.clients
    assert loaded.duration_cycles == trace.duration_cycles
    assert loaded.metadata == trace.metadata
    assert loaded.fingerprint() == trace.fingerprint()


@given(row_lists,
       st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
       st.floats(min_value=0.001, max_value=120.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_sampling_preserves_order(rows, start_s, duration_s):
    """A time window keeps timestamps monotone and per-disk order."""
    ordered = sorted(rows, key=lambda r: r.time_s)
    sampled = sample_window(ordered, start_s, duration_s)

    times = [r.time_s for r in sampled]
    assert times == sorted(times)
    assert all(start_s <= t < start_s + duration_s for t in times)

    # Per-namespace subsequences survive intact: sampling never reorders
    # or interleaves a disk's queue.
    def per_namespace(seq):
        queues = {}
        for row in seq:
            queues.setdefault(row.namespace, []).append(row)
        return queues

    full = per_namespace(r for r in ordered
                         if start_s <= r.time_s < start_s + duration_s)
    assert per_namespace(sampled) == full


@given(row_lists, configs)
@settings(max_examples=60, deadline=None)
def test_replay_keeps_per_bus_order_monotone(rows, config):
    """Replayed transfers stay time-sorted within every bus."""
    trace = replay_trace(rows, config=config)
    by_bus = {}
    for record in trace.records:
        if isinstance(record, DMATransfer):
            by_bus.setdefault(record.bus, []).append(record.time)
    for times in by_bus.values():
        assert times == sorted(times)


@given(row_lists,
       st.integers(min_value=1, max_value=16),
       st.sampled_from(["modulo", "hash"]))
@settings(max_examples=60, deadline=None)
def test_page_mapping_respects_geometry(rows, num_chips, layout):
    """No emitted page id ever exceeds the configured chip geometry."""
    memory = MemoryConfig(num_chips=num_chips, chip_bytes=1 * MB,
                          page_bytes=8192)
    trace = replay_trace(
        rows, config=ReplayConfig(num_pages=memory.total_pages,
                                  page_layout=layout))
    assert max(r.page for r in trace.records) < memory.total_pages
    assert all(r.page >= 0 for r in trace.records)
