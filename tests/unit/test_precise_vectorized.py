"""Bit-exactness of the array-timeline kernel against the scalar oracle.

The vectorized precise engine (``engine="precise"``) must be
indistinguishable from the pure event-stepping oracle
(``engine="precise-scalar"``) — not within tolerance, but bit-for-bit:
the kernel only replays the scalar engine's arithmetic in batched form
(see ``docs/ENGINES.md``). These tests pin that contract across the
paper's techniques on a small synthetic trace (DMA only) and a small
OLTP-Db trace (processor bursts beside the DMAs), plus the kernel's
window cuts and fallback behaviour at the edges.
"""

from collections import Counter

import pytest

from repro.config import SimulationConfig
from repro.exec import SimJob
from repro.obs.diff import DigestConfig, DigestRecorder, render_result_delta
from repro.obs.events import PH_SPAN
from repro.obs.tracer import RingTracer
from repro.sim.precise import PreciseEngine
from repro.sim.run import simulate
from repro.traces.oltp import oltp_database_trace
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.synthetic import synthetic_storage_trace
from repro.traces.trace import Trace

TECHNIQUES = ["nopm", "baseline", "dma-ta", "pl", "dma-ta-pl"]


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=0.5, transfers_per_ms=120,
                                   seed=23)


@pytest.fixture(scope="module")
def db_trace():
    """1 ms of OLTP-Db: 837 records, 21,669 processor accesses in bursts
    of about 29, beside the network DMAs."""
    return oltp_database_trace(duration_ms=1.0)


def run_pair(trace, technique, tracer=False, mu=None):
    cfg = SimulationConfig()
    if mu is not None:
        cfg = cfg.with_mu(mu)
    tr_s = RingTracer(capacity=1_000_000) if tracer else None
    tr_v = RingTracer(capacity=1_000_000) if tracer else None
    scalar = PreciseEngine(trace, cfg, technique=technique,
                           vectorize=False, tracer=tr_s).run()
    vector = PreciseEngine(trace, cfg, technique=technique,
                           vectorize=True, tracer=tr_v).run()
    return scalar, vector, tr_s, tr_v


def span_multiset(tracer):
    """Every span a run emitted, joules included. The kernel emits a
    window's spans when it settles the window, so only the order
    differs from the scalar engine's."""
    return Counter((e.ts, e.dur, e.name, e.track,
                    tuple(sorted((e.args or {}).items())))
                   for e in tracer.events if e.ph == PH_SPAN)


def assert_identical(scalar, vector):
    assert vector.energy.as_dict() == scalar.energy.as_dict()
    assert vector.time.as_dict() == scalar.time.as_dict()
    assert vector.chip_energy == scalar.chip_energy
    assert vector.duration_cycles == scalar.duration_cycles
    assert vector.extra_service_cycles == scalar.extra_service_cycles
    assert vector.metrics.transitions == scalar.metrics.transitions
    assert (vector.metrics.histograms["dma.service_per_request"]
            == scalar.metrics.histograms["dma.service_per_request"])


class TestBitExactness:
    @pytest.mark.parametrize(
        "trace_name,technique",
        [("trace", t) for t in TECHNIQUES]
        + [("db_trace", t) for t in TECHNIQUES],
        ids=TECHNIQUES + [f"oltp-db-{t}" for t in TECHNIQUES])
    def test_identical_results(self, request, trace_name, technique):
        trace = request.getfixturevalue(trace_name)
        scalar, vector, _, _ = run_pair(trace, technique)
        # EnergyBreakdown and TimeBreakdown: exact float equality per
        # bucket, not approx — the kernel replays the scalar arithmetic.
        # On failure, name the disagreeing bucket (and bisect further
        # with `repro diff <trace> --engines precise,precise-scalar`).
        assert vector.energy.as_dict() == scalar.energy.as_dict(), \
            render_result_delta(scalar.energy.as_dict(),
                                vector.energy.as_dict(),
                                label_a="precise-scalar",
                                label_b="precise")
        assert vector.time.as_dict() == scalar.time.as_dict(), \
            render_result_delta(scalar.time.as_dict(),
                                vector.time.as_dict(),
                                label_a="precise-scalar",
                                label_b="precise")
        assert vector.chip_energy == scalar.chip_energy
        # Power-state transition counts, globally and per edge.
        assert vector.metrics.transitions == scalar.metrics.transitions
        assert vector.wakes == scalar.wakes
        # Timing, degradation, and client-visible outputs.
        assert vector.duration_cycles == scalar.duration_cycles
        assert vector.extra_service_cycles == scalar.extra_service_cycles
        assert vector.head_delay_cycles == scalar.head_delay_cycles
        assert vector.client_responses == scalar.client_responses
        assert vector.migrations == scalar.migrations
        assert (vector.metrics.histograms["dma.service_per_request"]
                == scalar.metrics.histograms["dma.service_per_request"])

    def test_kernel_actually_batched(self, trace):
        _, vector, _, _ = run_pair(trace, "baseline")
        batched = vector.metrics.counters["kernel.batched_requests"]
        assert batched > 0.9 * vector.requests

    def test_traced_runs_match(self, trace):
        """Tracer mode (the auditor's path) emits the same spans: same
        count, and per-bucket joules totals within float-sum noise."""
        scalar, vector, tr_s, tr_v = run_pair(trace, "dma-ta",
                                              tracer=True, mu=2.0)
        assert vector.energy.as_dict() == scalar.energy.as_dict()
        assert len(tr_v.events) == len(tr_s.events)

        def bucket_joules(tr):
            sums = {}
            for event in tr.events:
                args = getattr(event, "args", None)
                if isinstance(args, dict) and "joules" in args:
                    bucket = args.get("bucket")
                    sums[bucket] = sums.get(bucket, 0.0) + args["joules"]
            return sums

        left, right = bucket_joules(tr_s), bucket_joules(tr_v)
        assert set(left) == set(right)
        for bucket, joules in left.items():
            assert right[bucket] == pytest.approx(joules, rel=1e-12)

    def test_traced_spans_match_on_bursts(self, db_trace):
        """Processor windows and queued DMA windows emit exactly the
        scalar engine's spans: the same multiset, joules included."""
        scalar, vector, tr_s, tr_v = run_pair(db_trace, "dma-ta",
                                              tracer=True)
        assert tr_s.dropped == 0 and tr_v.dropped == 0
        assert_identical(scalar, vector)
        assert span_multiset(tr_v) == span_multiset(tr_s)

    def test_digest_chain_matches_on_bursts(self, db_trace):
        """Every per-epoch digest of a processor-heavy run agrees."""
        config = DigestConfig(epoch_cycles=2000.0)
        vec = SimJob(db_trace, "dma-ta-pl", mu=2.0, engine="precise").run(
            digests=DigestRecorder(config)).digests
        scalar = SimJob(db_trace, "dma-ta-pl", mu=2.0,
                        engine="precise-scalar").run(
            digests=DigestRecorder(config)).digests
        assert vec.ticks == scalar.ticks > 100
        assert vec.chain_tip == scalar.chain_tip
        assert vec.rows == scalar.rows

    def test_kernel_serves_bursts_and_queued_windows(self, db_trace):
        """Processor accesses run in windows, and DMA-TA's lockstep
        streams (one serve apart) batch like any other."""
        baseline = simulate(db_trace, technique="baseline",
                            engine="precise")
        counters = baseline.metrics.counters
        assert counters["kernel.proc_windows"] > 0
        assert counters["kernel.proc_accesses"] > 0.9 * baseline.proc_accesses
        ta = simulate(db_trace, technique="dma-ta", engine="precise",
                      cp_limit=0.1)
        assert (ta.metrics.counters["kernel.batched_requests"]
                >= 0.95 * ta.requests)


class TestEngineSelection:
    def test_precise_scalar_engine_name(self, trace):
        vector = simulate(trace, technique="baseline", engine="precise")
        scalar = simulate(trace, technique="baseline",
                          engine="precise-scalar")
        assert vector.energy.as_dict() == scalar.energy.as_dict()
        # The oracle disables the kernel entirely.
        assert "kernel.batches" not in scalar.metrics.counters
        assert vector.metrics.counters["kernel.batches"] > 0

    def test_kernel_disabled_for_unbatchable_geometry(self, trace):
        """A policy whose first descent threshold fires inside the
        steady idle gap must force the kernel off (the scalar engine
        would start a descent mid-stream)."""
        engine = PreciseEngine(trace, SimulationConfig(),
                               technique="baseline")
        assert engine._kernel is not None and engine._kernel.enabled
        gap = engine._bus_gap - engine._serve_cycles
        schedule = engine.chips[0].schedule
        assert schedule and schedule[0][0] >= gap  # default is batchable


class TestWindowCuts:
    """Hand-built traces that put one window cut at a known place."""

    @staticmethod
    def bursts(offset):
        """A 40-access burst, then 5 more on the same page (one chip)
        ``offset`` cycles later; the second arrival cuts the window."""
        records = [ProcessorBurst(time=1000.0, page=7, count=40),
                   ProcessorBurst(time=1000.0 + offset, page=7, count=5)]
        return Trace(name="bursts", records=records,
                     duration_cycles=20_000.0)

    @staticmethod
    def two_streams(offset):
        """Two 8-KB transfers to one page on two buses, the second
        ``offset`` cycles after the first."""
        records = [DMATransfer(time=1000.0, page=7, size_bytes=8192, bus=0),
                   DMATransfer(time=1000.0 + offset, page=7,
                               size_bytes=8192, bus=1)]
        return Trace(name="two-streams", records=records,
                     duration_cycles=40_000.0)

    @pytest.mark.parametrize("offset", [10.5 * 32, 10 * 32],
                             ids=["mid-serve", "at-serve-end"])
    def test_arrival_mid_burst_cuts_the_window(self, offset):
        """The window stops before the arrival, leaving one access in
        service across it; the next serve-done opens a second window
        over both bursts. Of 45 accesses only the two that open a
        window are started outside one."""
        scalar, vector, tr_s, tr_v = run_pair(self.bursts(offset), "nopm",
                                              tracer=True)
        assert_identical(scalar, vector)
        assert span_multiset(tr_v) == span_multiset(tr_s)
        counters = vector.metrics.counters
        assert counters["kernel.proc_windows"] == 2
        assert counters["kernel.proc_accesses"] == 43

    def test_exact_arrival_tie_is_batched_in_bus_order(self):
        """Two streams whose requests land at the same instant: tied
        wire events pop in bus order, so the chip serves the bus-0
        request first, and the kernel batches all but each stream's
        first request and tail."""
        scalar, vector, _, _ = run_pair(self.two_streams(0.0), "nopm")
        assert_identical(scalar, vector)
        assert vector.metrics.counters["kernel.batched_requests"] == 2044

    @pytest.mark.parametrize("offset", [2.0, 4.0])
    def test_streams_closer_than_a_serve_are_batched(self, offset):
        """The second stream's requests land while (2.0) or exactly when
        (4.0, the DMA-TA lockstep) the first stream's serve ends; they
        queue, and the kernel serves the merge first-in first-out."""
        scalar, vector, tr_s, tr_v = run_pair(self.two_streams(offset),
                                              "nopm", tracer=True)
        assert_identical(scalar, vector)
        assert span_multiset(tr_v) == span_multiset(tr_s)
        assert (vector.metrics.counters["kernel.batched_requests"]
                > 0.9 * vector.requests)
