"""The array-timeline kernel's per-chip horizon, pinned bit for bit.

A DMA or processor window runs to the next event addressed to its own
chip (its next trace record, a DMA-TA epoch while heads bound for it
are buffered), the next PL interval or probe tick, or another bus's
hand-off to it; other chips' arrivals and epochs fall inside it. Every
case here compares the vectorized engine with the kernel-free
``precise-scalar`` oracle exactly, and pins the window count that shows
which cut was taken (see ``docs/ENGINES.md``).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import (BusConfig, MemoryConfig, PopularityLayoutConfig,
                          SimulationConfig)
from repro.obs.tracer import RingTracer
from repro.sim.precise import PreciseEngine
from repro.sim.run import simulate
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

MB = 1 << 20

#: Four chips of 128 pages laid out in order: pages 0-127 live on chip
#: A (0), pages 128-255 on chip B (1).
CONFIG = SimulationConfig(
    memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
    buses=BusConfig(count=3), base_layout="sequential")
A, B = 0, 128

#: The same platform on buses of 0.5 bytes per cycle: a 16-cycle request
#: period, so a stream's arrivals fall on a lattice of integers that
#: holds every 2,000-cycle DMA-TA epoch.
LATTICE = dataclasses.replace(
    CONFIG, buses=BusConfig(count=3, bandwidth_bytes_per_s=0.8e9)
).with_mu(2.0)

#: A 32-KB transfer (4,096 requests) streaming to chip A from t = 1,000.
STREAM = DMATransfer(time=1000.0, page=A, size_bytes=32768, bus=0)

#: Bursts and an 8-request transfer (too short to batch) on chip B while
#: the stream runs.
CHIP_B = [ProcessorBurst(time=5000.5, page=B, count=20),
          ProcessorBurst(time=9000.25, page=B + 1, count=10),
          DMATransfer(time=12000.5, page=B + 2, size_bytes=64, bus=1)]


def trace_of(records, duration=80_000.0):
    return Trace(name="chip-horizon", records=list(records),
                 duration_cycles=duration)


def assert_bit_exact(vector, scalar):
    """Every field of the two results, kernel counters aside."""
    left, right = dataclasses.asdict(vector), dataclasses.asdict(scalar)
    for result in (left, right):
        counters = result["metrics"]["counters"]
        for name in [n for n in counters if n.startswith("kernel.")]:
            del counters[name]
    assert left == right


def run_pair(records, technique, config=CONFIG, **kwargs):
    trace = trace_of(records)
    vector = simulate(trace, config=config, technique=technique,
                      engine="precise", **kwargs)
    scalar = simulate(trace, config=config, technique=technique,
                      engine="precise-scalar", **kwargs)
    assert_bit_exact(vector, scalar)
    return vector.metrics.counters


@pytest.mark.parametrize("technique", ["nopm", "baseline", "dma-ta"])
def test_stream_stays_one_window_while_chip_b_is_busy(technique):
    """Three arrivals on chip B fall inside chip A's stream, which stays
    one window from its second request to its tail (one fewer where a
    wake makes the second request queue)."""
    alone = run_pair([STREAM], technique)
    counters = run_pair([STREAM] + CHIP_B, technique)
    assert counters["kernel.batches"] == alone["kernel.batches"] == 1
    assert (counters["kernel.batched_requests"]
            == alone["kernel.batched_requests"]
            == (4094 if technique == "nopm" else 4093))
    assert counters["kernel.proc_accesses"] > 0


@pytest.mark.parametrize("technique", ["nopm", "baseline", "dma-ta"])
def test_record_addressed_to_the_chip_cuts_its_window(technique):
    """A burst on chip A itself still ends the window before it lands:
    the stream's requests queue behind the accesses, then a second
    window takes the rest."""
    burst_on_a = ProcessorBurst(time=20000.5, page=A + 1, count=5)
    counters = run_pair([STREAM] + CHIP_B + [burst_on_a], technique)
    assert counters["kernel.batches"] == 2


def test_extra_service_past_another_chips_arrival_falls_back():
    """Two streams two cycles apart queue, so every request of the
    second carries 2 cycles of extra service. A window may add nonzero
    extra service early only up to the next arrival on any chip, so a
    burst on chip B cuts it as every arrival used to."""
    streams = [DMATransfer(time=1000.0, page=A, size_bytes=8192, bus=0),
               DMATransfer(time=1002.0, page=A + 1, size_bytes=8192, bus=1)]
    assert run_pair(streams, "nopm")["kernel.batches"] == 1
    burst_on_b = ProcessorBurst(time=6000.5, page=B, count=3)
    assert run_pair(streams + [burst_on_b], "nopm")["kernel.batches"] == 2


def _logged_dma_ta_run(records, vectorize):
    """A DMA-TA run on the lattice platform that logs every read of the
    arrived-request count and the tracer's ``served_requests``
    counters."""
    tracer = RingTracer(capacity=1_000_000)
    engine = PreciseEngine(trace_of(records), LATTICE, technique="dma-ta",
                           vectorize=vectorize, tracer=tracer)
    reads = []
    count = engine._arrived_requests

    def logged(now):
        tie = any((arrivals == now).any()
                  for arrivals in engine._window_arrivals)
        value = count(now)
        reads.append((now, value, tie))
        return value

    engine.controller.arrived_requests = logged
    result = engine.run()
    served = [(event.ts, event.args) for event in tracer.events
              if event.name == "served_requests"]
    return result, reads, served


#: A one-access burst at t = 12 wakes chip A; the stream queued behind
#: the wake then settles on the lattice 9,664 + 16k, which holds every
#: epoch from 10,000 on.
LATTICE_STREAM = [ProcessorBurst(time=12.0, page=A + 1, count=1), STREAM]


def test_epoch_reads_count_a_request_landing_at_the_epoch():
    """Each traced epoch reads the arrived count for its
    ``served_requests`` counter, and so do the slack checks of the
    epochs while a 512-B transfer is buffered on chip B; from 10,000 on
    every epoch ties a request of chip A's open window. An epoch pops
    after the request-at-chip events of its instant, so the request
    counts as arrived: every read equals the scalar engine's."""
    records = LATTICE_STREAM + [DMATransfer(time=24016.5, page=B,
                                            size_bytes=512, bus=1)]
    vector, v_reads, v_served = _logged_dma_ta_run(records, True)
    scalar, s_reads, s_served = _logged_dma_ta_run(records, False)
    assert_bit_exact(vector, scalar)
    assert vector.controller_stats["transfers_buffered"] == 1
    assert [r[:2] for r in v_reads] == [r[:2] for r in s_reads]
    assert v_served == s_served and len(v_reads) > len(v_served) > 30
    assert sum(tie for _, _, tie in v_reads) > 30
    assert vector.metrics.counters["kernel.batches"] == 2


def test_arrival_on_a_window_lattice_reads_before_the_landing_request():
    """The same transfer arriving at 16,000.0, on chip A's lattice, falls
    inside chip A's window as the one half a cycle later does. The
    arrival's read leaves out the request landing at its instant (398);
    the epoch of that instant, and the arrival half a cycle later, count
    it (399)."""
    reads = {}
    for time in (16000.0, 16000.5):
        records = LATTICE_STREAM + [DMATransfer(time=time, page=B,
                                                size_bytes=512, bus=1)]
        vector, v_reads, _ = _logged_dma_ta_run(records, True)
        scalar, s_reads, _ = _logged_dma_ta_run(records, False)
        assert_bit_exact(vector, scalar)
        assert [r[:2] for r in v_reads] == [r[:2] for r in s_reads]
        reads[time] = {}
        for now, value, _ in v_reads:
            reads[time].setdefault(now, value)  # the arrival reads first
        assert vector.metrics.counters["kernel.batches"] == 2
    assert reads[16000.0][16000.0] == 398.0
    assert reads[16000.5][16000.0] == reads[16000.5][16000.5] == 399.0


def test_arrived_count_folds_passed_windows():
    """A request landing at the reading instant counts as arrived for an
    epoch's read (``ties_past``), not for a trace arrival's; a window
    whose last request has landed is folded into the count and
    dropped."""
    engine = PreciseEngine(trace_of([STREAM]), CONFIG, technique="dma-ta")
    engine.arrived_requests = 5
    engine._window_arrivals = [np.array([10.0, 22.0, 34.0])]
    assert engine._arrived_requests(21.5) == 6.0
    assert engine._arrived_requests(22.0) == 6.0
    engine._instant.ties_past = True
    assert engine._arrived_requests(22.0) == 7.0
    assert engine._arrived_requests(34.0) == 8.0
    assert len(engine._window_arrivals) == 1  # 34.0 has not passed
    assert engine._arrived_requests(34.5) == 8.0
    assert engine._window_arrivals == [] and engine.arrived_requests == 8


#: Found by a random scan: a 16-KB transfer to chip 1 (bus 0) and a
#: 32-KB one to chip 3 (bus 1) start at one DMA-TA epoch, so their
#: requests land at the same instants; an 8-KB transfer to chip 3 waits
#: behind the first on bus 0. After the hand-off chip 3 serves the two
#: tied streams in bus order. When ties popped in push order, a window
#: that re-armed the bus-0 stream early reversed them: 256 requests
#: read 4 cycles of service where the scalar engine read 8, and the
#: reverse.
TIED_HANDOFF = [
    DMATransfer(time=19264.607081019658, page=41, size_bytes=512,
                source="disk"),
    DMATransfer(time=48349.27369164601, page=43, size_bytes=32768,
                source="network"),
    DMATransfer(time=59000.0, page=13, size_bytes=16384, source="disk"),
    DMATransfer(time=72000.0, page=33, size_bytes=8192, source="network"),
    DMATransfer(time=75540.84668650175, page=36, size_bytes=2048,
                source="network"),
]


def test_tied_streams_keep_their_order_across_a_handoff():
    config = SimulationConfig(
        memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
        buses=BusConfig(count=3))
    trace = Trace(name="tied-handoff", records=TIED_HANDOFF,
                  duration_cycles=250_000.0)
    vector = simulate(trace, config=config, technique="dma-ta", mu=2.0,
                      engine="precise")
    scalar = simulate(trace, config=config, technique="dma-ta", mu=2.0,
                      engine="precise-scalar")
    assert_bit_exact(vector, scalar)
    assert vector.metrics.counters["kernel.batches"] > 0


#: Four transfers to one page. PL moves the page at an interval, so the
#: last transfer reaches the chip the third is streaming to: the chip's
#: record index must be gathered again after the move, or its window
#: runs past the transfer's arrival (found with the regather removed:
#: the extra service then read 16,349 cycles against 17,139).
MIGRATING_PAGE = [
    DMATransfer(time=165888.64358857696, page=265, size_bytes=8192),
    DMATransfer(time=191634.60766079443, page=265, size_bytes=8192),
    DMATransfer(time=308992.0622350966, page=265, size_bytes=32768),
    DMATransfer(time=358015.5869706701, page=265, size_bytes=8192,
                source="disk"),
]


def test_record_index_follows_a_pl_migration():
    config = SimulationConfig(
        memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
        buses=BusConfig(count=3),
        layout=PopularityLayoutConfig(interval_cycles=50_000.0))
    trace = Trace(name="migrating-page", records=MIGRATING_PAGE,
                  duration_cycles=450_000.0)
    vector = simulate(trace, config=config, technique="pl",
                      engine="precise")
    scalar = simulate(trace, config=config, technique="pl",
                      engine="precise-scalar")
    assert vector.migrations == 2
    assert_bit_exact(vector, scalar)
