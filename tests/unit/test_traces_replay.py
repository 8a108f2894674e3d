"""Units for the block-trace replay adapter (parsing, mapping, errors)."""

import pytest

from repro.errors import ConfigurationError, TraceError
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.replay import (
    BlockIO,
    ReplayConfig,
    read_block_csv,
    replay_trace,
    sample_window,
)

MSR_HEADER = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"


def write_csv(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestMSRParsing:
    def test_parses_rows_with_header(self, tmp_path):
        path = write_csv(tmp_path, MSR_HEADER
                         + "10000000,usr,0,Read,4096,8192,500\n"
                         + "20000000,usr,1,Write,0,512,900\n")
        rows = read_block_csv(path, dialect="msr")
        assert len(rows) == 2
        first = rows[0]
        assert first.time_s == pytest.approx(1.0)
        assert (first.host, first.disk) == ("usr", 0)
        assert not first.is_write
        assert first.offset == 4096 and first.size_bytes == 8192
        assert first.latency_s == pytest.approx(500 * 1e-7)
        assert rows[1].is_write

    def test_skips_blanks_and_comments(self, tmp_path):
        path = write_csv(tmp_path, "# comment\n\n"
                         "10,usr,0,Read,0,512\n\n# more\n")
        assert len(read_block_csv(path, dialect="msr")) == 1

    def test_rows_sorted_by_time(self, tmp_path):
        path = write_csv(tmp_path,
                         "30,usr,0,Read,0,512\n10,usr,0,Read,512,512\n")
        rows = read_block_csv(path, dialect="msr")
        assert [r.time_s for r in rows] == sorted(r.time_s for r in rows)


class TestCloudPhysicsParsing:
    def test_parses_lba_sectors(self, tmp_path):
        path = write_csv(tmp_path, "1000,8,r,4096\n2000,16,w,512\n")
        rows = read_block_csv(path, dialect="cloudphysics")
        assert rows[0].offset == 8 * 512
        assert rows[0].time_s == pytest.approx(1e-3)
        assert not rows[0].is_write
        assert rows[1].is_write


class TestMalformedInput:
    """Broken rows raise TraceError naming the line — never a raw
    KeyError/ValueError traceback (the satellite fix)."""

    @pytest.mark.parametrize("row, fragment", [
        ("10,usr,0,Read,4096", "line 3"),                 # short row
        ("ten,usr,0,Read,4096,512", "not a number"),      # bad timestamp
        ("10,usr,zero,Read,4096,512", "disk number"),     # bad disk
        ("10,usr,0,Peek,4096,512", "unknown operation"),  # bad op
        ("10,usr,0,Read,-512,512", ">= 0"),               # negative offset
        ("10,usr,0,Read,4096,0", "must be positive"),     # zero size
        ("10,usr,0,Read,4096,inf", "not finite"),         # non-finite
    ])
    def test_bad_row_names_line(self, tmp_path, row, fragment):
        path = write_csv(tmp_path,
                         MSR_HEADER + "10,usr,0,Read,0,512\n" + row + "\n")
        with pytest.raises(TraceError) as excinfo:
            read_block_csv(path, dialect="msr")
        message = str(excinfo.value)
        assert "line 3" in message
        assert fragment in message

    def test_truncated_cloudphysics_row(self, tmp_path):
        path = write_csv(tmp_path, "1000,8,r,4096\n2000,16\n")
        with pytest.raises(TraceError, match="line 2"):
            read_block_csv(path, dialect="cloudphysics")

    def test_unknown_dialect(self, tmp_path):
        path = write_csv(tmp_path, "1,usr,0,Read,0,512\n")
        with pytest.raises(TraceError, match="dialect"):
            read_block_csv(path, dialect="spc")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(TraceError, match="no block I/O rows"):
            read_block_csv(path, dialect="msr")

    def test_header_only_file(self, tmp_path):
        path = write_csv(tmp_path, MSR_HEADER)
        with pytest.raises(TraceError, match="no block I/O rows"):
            read_block_csv(path, dialect="msr")


def rows_at(*specs):
    return [BlockIO(time_s=t, host="h", disk=disk, offset=offset,
                    size_bytes=size, is_write=write)
            for t, disk, offset, size, write in specs]


class TestReplayMapping:
    def test_large_io_splits_into_page_transfers(self):
        rows = rows_at((0.0, 0, 0, 32768, False))
        trace = replay_trace(rows, ReplayConfig(num_pages=1024))
        transfers = trace.transfers
        assert len(transfers) == 4
        assert all(t.size_bytes == 8192 for t in transfers)
        assert [t.page for t in transfers] == [0, 1, 2, 3]

    def test_block_read_is_memory_write(self):
        rows = rows_at((0.0, 0, 0, 512, False), (1.0, 0, 512, 512, True))
        trace = replay_trace(rows, ReplayConfig(num_pages=64))
        read, write = trace.transfers
        assert read.is_write          # disk read fills memory
        assert not write.is_write     # disk write drains it

    def test_split_cap_bounds_expansion(self):
        rows = rows_at((0.0, 0, 0, 1 << 20, False))
        config = ReplayConfig(num_pages=1024, max_transfers_per_io=8)
        trace = replay_trace(rows, config)
        assert len(trace.transfers) == 8
        assert trace.metadata["split_ios"] == 1

    def test_hash_layout_stays_in_range_and_differs(self):
        rows = rows_at(*((0.0, 0, i * 8192, 8192, False)
                         for i in range(64)))
        modulo = replay_trace(rows, ReplayConfig(num_pages=256))
        hashed = replay_trace(
            rows, ReplayConfig(num_pages=256, page_layout="hash"))
        assert max(r.page for r in hashed.records) < 256
        mod_pages = [t.page for t in modulo.transfers]
        hash_pages = [t.page for t in hashed.transfers]
        assert mod_pages == sorted(mod_pages)
        assert hash_pages != mod_pages

    def test_bus_pinning_by_disk(self):
        rows = rows_at((0.0, 0, 0, 512, False), (1.0, 1, 0, 512, False),
                       (2.0, 2, 0, 512, False), (3.0, 3, 0, 512, False))
        trace = replay_trace(rows, ReplayConfig(num_pages=64, num_buses=3))
        assert [t.bus for t in trace.transfers] == [0, 1, 2, 0]
        free = replay_trace(
            rows, ReplayConfig(num_pages=64, bus_assignment="simulator"))
        assert all(t.bus is None for t in free.transfers)

    def test_time_compression_scales_duration(self):
        rows = rows_at((0.0, 0, 0, 512, False), (1.0, 0, 512, 512, False))
        slow = replay_trace(rows, ReplayConfig(num_pages=64))
        fast = replay_trace(
            rows, ReplayConfig(num_pages=64, time_compression=100.0))
        assert fast.duration_cycles == pytest.approx(
            slow.duration_cycles / 100.0)

    def test_proc_burst_synthesis(self):
        rows = rows_at((0.0, 0, 0, 8192, False))
        trace = replay_trace(
            rows, ReplayConfig(num_pages=64, proc_accesses_per_io=50))
        bursts = trace.processor_bursts
        assert len(bursts) == 1
        assert bursts[0].count == 50
        assert bursts[0].page == trace.transfers[-1].page

    def test_clients_carry_recorded_latency(self):
        rows = [BlockIO(time_s=0.0, host="h", disk=0, offset=0,
                        size_bytes=512, is_write=False, latency_s=0.001)]
        trace = replay_trace(rows, ReplayConfig(num_pages=64))
        assert len(trace.clients) == 1
        client = trace.clients[0]
        assert client.base_cycles == pytest.approx(0.001 * 1.6e9)
        bare = replay_trace(
            rows, ReplayConfig(num_pages=64, make_clients=False))
        assert not bare.clients
        assert all(t.request_id is None for t in bare.transfers)

    def test_window_outside_trace_fails(self):
        rows = rows_at((0.0, 0, 0, 512, False))
        message = r"time window \[100 s, end\) selects no rows"
        with pytest.raises(TraceError, match=message):
            replay_trace(rows, ReplayConfig(num_pages=64,
                                            window_start_s=100.0))

    def test_empty_rows_rejected(self):
        with pytest.raises(TraceError, match="no block I/O rows"):
            replay_trace([], ReplayConfig(num_pages=64))


class TestSampleWindow:
    def test_bad_window_rejected(self):
        with pytest.raises(TraceError):
            sample_window([], -1.0, 1.0)
        with pytest.raises(TraceError):
            sample_window([], 0.0, 0.0)

    def test_half_open_bounds(self):
        rows = rows_at((0.0, 0, 0, 512, False), (1.0, 0, 0, 512, False),
                       (2.0, 0, 0, 512, False))
        window = sample_window(rows, 0.0, 2.0)
        assert [r.time_s for r in window] == [0.0, 1.0]


class TestReplayConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"page_bytes": 0},
        {"num_pages": 0},
        {"page_layout": "striped"},
        {"bus_assignment": "round-robin"},
        {"num_buses": 0},
        {"max_transfers_per_io": 0},
        {"time_compression": 0.0},
        {"window_start_s": -1.0},
        {"window_s": 0.0},
        {"proc_accesses_per_io": -1.0},
        {"base_latency_us": -1.0},
        {"source": "tape"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReplayConfig(**kwargs)
