"""Units for the workload zoo: shapes, knobs, and seed determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.traces.stats import characterize
from repro.traces.zoo import (
    ZOO,
    drift_diurnal_trace,
    flash_crowd_trace,
    kv_store_trace,
    ml_inference_trace,
    video_stream_trace,
)

FAMILIES = sorted(ZOO)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_builds_a_real_trace(family):
    trace = ZOO[family](duration_ms=2.0)
    assert len(trace.transfers) > 10
    assert trace.clients, "zoo traces must support CP-Limit calibration"
    assert trace.metadata["family"] == family
    assert trace.metadata["seed"] is not None
    times = [r.time for r in trace.records]
    assert times == sorted(times)


class TestKVStore:
    def test_small_transfers_and_writes(self):
        trace = kv_store_trace(duration_ms=3.0, write_fraction=0.3, seed=5)
        sizes = {t.size_bytes for t in trace.transfers}
        assert sizes <= {512, 1024, 2048, 4096}
        writes = sum(t.is_write for t in trace.transfers)
        assert 0 < writes < len(trace.transfers)

    def test_skewed_popularity(self):
        trace = kv_store_trace(duration_ms=10.0, seed=5)
        assert characterize(trace).top20_access_fraction > 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            kv_store_trace(write_fraction=1.5)
        with pytest.raises(ConfigurationError):
            kv_store_trace(value_bytes=(512,), value_weights=(0.5, 0.5))


class TestMLInference:
    def test_sequential_streams(self):
        trace = ml_inference_trace(duration_ms=3.0, seed=5)
        by_request = {}
        for t in trace.transfers:
            by_request.setdefault(t.request_id, []).append(t.page)
        for pages in by_request.values():
            assert pages == list(range(pages[0], pages[0] + len(pages)))

    def test_pages_stay_inside_models(self):
        trace = ml_inference_trace(duration_ms=3.0, num_models=2,
                                   pages_per_model=64,
                                   pages_per_inference=16, seed=5)
        assert max(r.page for r in trace.records) < 2 * 64

    def test_compute_bursts_emitted(self):
        trace = ml_inference_trace(duration_ms=3.0, seed=5)
        assert trace.processor_bursts

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ml_inference_trace(pages_per_inference=0)
        with pytest.raises(ConfigurationError):
            ml_inference_trace(pages_per_model=8, pages_per_inference=9)


class TestVideoStream:
    def test_streams_read_their_own_library_slice(self):
        trace = video_stream_trace(duration_ms=4.0, streams=3,
                                   library_pages_per_stream=128, seed=5)
        for t in trace.transfers:
            assert t.page < 3 * 128
        assert characterize(trace).top20_access_fraction < 0.5

    def test_paced_segments(self):
        trace = video_stream_trace(duration_ms=6.0, streams=2,
                                   segment_interval_ms=1.0,
                                   segment_pages=4, seed=5)
        # ~6 segments per stream at 1 ms pacing.
        assert 8 <= len(trace.clients) <= 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            video_stream_trace(streams=0)
        with pytest.raises(ConfigurationError):
            video_stream_trace(library_pages_per_stream=4, segment_pages=8)


class TestDriftScenarios:
    def test_diurnal_hot_set_moves_between_phases(self):
        trace = drift_diurnal_trace(duration_ms=9.0, phases=3,
                                    num_pages=2048, seed=5)
        third = trace.duration_cycles / 3
        def top_pages(lo, hi):
            counts = {}
            for t in trace.transfers:
                if lo <= t.time < hi:
                    counts[t.page] = counts.get(t.page, 0) + 1
            ranked = sorted(counts, key=counts.get, reverse=True)
            return set(ranked[:20])
        first, last = top_pages(0, third), top_pages(2 * third,
                                                     trace.duration_cycles)
        assert len(first & last) < len(first) / 2

    def test_flash_crowd_spikes_after_start(self):
        trace = flash_crowd_trace(duration_ms=10.0,
                                  base_transfers_per_ms=40.0,
                                  crowd_transfers_per_ms=400.0,
                                  crowd_start_fraction=0.5,
                                  crowd_duration_fraction=0.3, seed=5)
        half = trace.duration_cycles / 2
        before = sum(1 for t in trace.transfers if t.time < half)
        after = sum(1 for t in trace.transfers if t.time >= half)
        assert after > 1.5 * before

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            drift_diurnal_trace(phases=1)
        with pytest.raises(ConfigurationError):
            flash_crowd_trace(crowd_start_fraction=0.9,
                              crowd_duration_fraction=0.5)
        with pytest.raises(ConfigurationError):
            flash_crowd_trace(crowd_pages=0)


class TestSeedDeterminism:
    """Same seed ⇒ bit-identical trace, across processes.

    The exec result cache keys on trace fingerprints, so a generator
    whose output varied between interpreter runs would silently poison
    cached results (the PR 2 content-addressed keying).
    """

    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_seed_same_fingerprint_in_process(self, family):
        a = ZOO[family](duration_ms=2.0, seed=9)
        b = ZOO[family](duration_ms=2.0, seed=9)
        assert a.fingerprint() == b.fingerprint()
        c = ZOO[family](duration_ms=2.0, seed=10)
        assert c.fingerprint() != a.fingerprint()

    def test_bit_identical_across_two_processes(self):
        script = (
            "from repro.traces.zoo import ZOO\n"
            "for family in sorted(ZOO):\n"
            "    trace = ZOO[family](duration_ms=1.5, seed=41)\n"
            "    print(family, trace.fingerprint())\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")

        def run():
            return subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={**os.environ, "PYTHONPATH": src},
            ).stdout

        first, second = run(), run()
        assert first == second
        digests = dict(line.split() for line in first.splitlines())
        assert sorted(digests) == FAMILIES
        for family, digest in digests.items():
            local = ZOO[family](duration_ms=1.5, seed=41)
            assert local.fingerprint() == digest
