"""The workload zoo: trace families beyond the paper's OLTP pair.

Rank-aware migration and demotion policies win or lose with access skew
and phase behaviour, so every family here stresses a different corner of
the technique space:

* :func:`kv_store_trace` — KV-store serving: Zipfian point reads with
  small (sector-to-page) transfers at high request rates; the skewed,
  stationary case PL is built for.
* :func:`ml_inference_trace` — ML-inference tensor streaming: large
  sequential page bursts per inference with tight client deadlines; the
  alignment-friendly, deadline-hostile case for DMA-TA.
* :func:`video_stream_trace` — video/CDN streaming: many concurrent
  sequential readers paced at segment granularity; almost no popularity
  skew per page, strong per-stream locality.
* :func:`drift_diurnal_trace` — diurnal popularity drift: the page
  popularity ranking is re-drawn every phase, forcing PL's periodic
  re-migration mid-run.
* :func:`flash_crowd_trace` — a flash crowd: mid-run, previously-cold
  pages suddenly absorb a traffic spike; the hot set PL computed from
  history is abruptly wrong.

Every generator is a pure function of its arguments: the same seed
yields a bit-identical trace in any process (guarding the
content-addressed result-cache keying), which the test suite asserts by
comparing :meth:`~repro.traces.trace.Trace.fingerprint` digests across
interpreter invocations.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.traces.distributions import ZipfSampler, poisson_times, rank_permutation
from repro.traces.records import (
    ClientRequest,
    DMATransfer,
    ProcessorBurst,
    SOURCE_DISK,
    SOURCE_NETWORK,
)
from repro.traces.trace import Trace

logger = logging.getLogger(__name__)


def _us_to_cycles(us: float, frequency_hz: float) -> float:
    return us * 1e-6 * frequency_hz


def kv_store_trace(
    duration_ms: float = 25.0,
    requests_per_ms: float = 150.0,
    num_pages: int = 16384,
    zipf_alpha: float = 0.99,
    write_fraction: float = 0.1,
    value_bytes: tuple[int, ...] = (512, 1024, 2048, 4096),
    value_weights: tuple[float, ...] = (0.5, 0.25, 0.15, 0.10),
    parse_us: float = 1.0,
    wire_us: float = 20.0,
    seed: int = 21,
    frequency_hz: float = units.RDRAM_FREQUENCY_HZ,
    name: str = "KV-Store",
) -> Trace:
    """KV-store serving: Zipfian point lookups with small transfers.

    Each request is one network DMA moving a sub-page value — a GET
    reads the value out of memory, a PUT writes it in. The request rate
    is high and per-request work small, so chips see dense, skewed,
    fine-grained traffic: the regime where popularity concentration
    buys the most and temporal alignment must batch tiny transfers.
    """
    if not 0 <= write_fraction <= 1:
        raise ConfigurationError("write_fraction must be in [0, 1]")
    if len(value_bytes) != len(value_weights) or not value_bytes:
        raise ConfigurationError(
            "value_bytes and value_weights must be equal-length, non-empty")
    if any(b <= 0 for b in value_bytes):
        raise ConfigurationError("value sizes must be positive")

    rng = np.random.default_rng(seed)
    cycles_per_ms = frequency_hz / 1e3
    duration = duration_ms * cycles_per_ms
    parse = _us_to_cycles(parse_us, frequency_hz)
    wire = _us_to_cycles(wire_us, frequency_hz)

    times = poisson_times(requests_per_ms / cycles_per_ms, duration, rng)
    sampler = ZipfSampler(num_pages, zipf_alpha, rng)
    pages = rank_permutation(num_pages, rng)[sampler.sample(len(times))]
    weights = np.asarray(value_weights, dtype=float)
    sizes = rng.choice(np.asarray(value_bytes), size=len(times),
                       p=weights / weights.sum())
    is_put = rng.random(len(times)) < write_fraction

    records: list[DMATransfer] = []
    clients: dict[int, ClientRequest] = {}
    for request_id, (time, page, size, put) in enumerate(
            zip(times, pages, sizes, is_put)):
        time = float(time)
        clients[request_id] = ClientRequest(
            request_id=request_id, arrival=time, base_cycles=parse + wire)
        records.append(DMATransfer(
            time=time + parse, page=int(page), size_bytes=int(size),
            source=SOURCE_NETWORK, is_write=bool(put),
            request_id=request_id))

    duration = max(duration, max((r.time for r in records), default=0.0))
    logger.debug("kv_store_trace: %d requests over %.1f ms (seed=%d)",
                 len(records), duration_ms, seed)
    return Trace(
        name=name, records=list(records), clients=clients,
        duration_cycles=duration,
        metadata={
            "generator": "kv_store_trace",
            "family": "kv-store",
            "seed": seed,
            "duration_ms": duration_ms,
            "requests_per_ms": requests_per_ms,
            "num_pages": num_pages,
            "zipf_alpha": zipf_alpha,
            "write_fraction": write_fraction,
            "value_bytes": list(value_bytes),
        },
    )


def ml_inference_trace(
    duration_ms: float = 25.0,
    inferences_per_ms: float = 2.0,
    num_models: int = 4,
    pages_per_model: int = 512,
    pages_per_inference: int = 48,
    model_alpha: float = 1.2,
    deadline_us: float = 2000.0,
    parse_us: float = 5.0,
    proc_accesses_per_inference: int = 64,
    io_bus_bandwidth: float = units.PCIX_BANDWIDTH,
    seed: int = 22,
    frequency_hz: float = units.RDRAM_FREQUENCY_HZ,
    name: str = "ML-Inference",
) -> Trace:
    """ML-inference tensor streaming: large sequential bursts, deadlines.

    Each inference streams a contiguous window of one model's weight
    pages out of memory as back-to-back page-sized DMAs paced at bus
    rate, plus a pre/post-processing burst of processor accesses. The
    client baseline is small against the tight ``deadline_us`` budget,
    so nearly all the response headroom belongs to the memory system —
    DMA-TA has little slack to spend and must exploit the natural
    alignment of the streams instead.
    """
    if num_models <= 0 or pages_per_model <= 0:
        raise ConfigurationError("model geometry must be positive")
    if not 0 < pages_per_inference <= pages_per_model:
        raise ConfigurationError(
            "pages_per_inference must be in (0, pages_per_model]")
    if deadline_us <= 0:
        raise ConfigurationError("deadline_us must be positive")
    if proc_accesses_per_inference < 0:
        raise ConfigurationError(
            "proc_accesses_per_inference must be non-negative")

    rng = np.random.default_rng(seed)
    cycles_per_ms = frequency_hz / 1e3
    duration = duration_ms * cycles_per_ms
    parse = _us_to_cycles(parse_us, frequency_hz)
    page_bytes = 8192
    page_cycles = page_bytes * frequency_hz / io_bus_bandwidth

    times = poisson_times(inferences_per_ms / cycles_per_ms, duration, rng)
    model_sampler = ZipfSampler(num_models, model_alpha, rng)
    models = model_sampler.sample(len(times))
    starts = rng.integers(0, pages_per_model - pages_per_inference + 1,
                          size=len(times))

    records: list[DMATransfer | ProcessorBurst] = []
    clients: dict[int, ClientRequest] = {}
    for request_id, (time, model, start) in enumerate(
            zip(times, models, starts)):
        time = float(time)
        clients[request_id] = ClientRequest(
            request_id=request_id, arrival=time, base_cycles=parse)
        base_page = int(model) * pages_per_model + int(start)
        stream_start = time + parse
        if proc_accesses_per_inference:
            records.append(ProcessorBurst(
                time=stream_start, page=base_page,
                count=proc_accesses_per_inference,
                window_cycles=pages_per_inference * page_cycles))
        for index in range(pages_per_inference):
            records.append(DMATransfer(
                time=stream_start + index * page_cycles,
                page=base_page + index,
                size_bytes=page_bytes,
                source=SOURCE_NETWORK,
                is_write=False,
                request_id=request_id,
            ))

    duration = max(duration, max((r.time for r in records), default=0.0))
    logger.debug("ml_inference_trace: %d inferences, %d records (seed=%d)",
                 len(times), len(records), seed)
    return Trace(
        name=name, records=records, clients=clients,
        duration_cycles=duration,
        metadata={
            "generator": "ml_inference_trace",
            "family": "ml-inference",
            "seed": seed,
            "duration_ms": duration_ms,
            "inferences_per_ms": inferences_per_ms,
            "num_models": num_models,
            "pages_per_model": pages_per_model,
            "pages_per_inference": pages_per_inference,
            "deadline_us": deadline_us,
            "num_pages": num_models * pages_per_model,
        },
    )


def video_stream_trace(
    duration_ms: float = 25.0,
    streams: int = 12,
    segment_interval_ms: float = 1.5,
    segment_pages: int = 16,
    library_pages_per_stream: int = 1024,
    jitter_fraction: float = 0.1,
    wire_us: float = 200.0,
    io_bus_bandwidth: float = units.PCIX_BANDWIDTH,
    seed: int = 23,
    frequency_hz: float = units.RDRAM_FREQUENCY_HZ,
    name: str = "Video-Stream",
) -> Trace:
    """Video/CDN streaming: concurrent paced sequential readers.

    Each stream fetches a fixed-size segment (a run of consecutive
    pages, read from disk into the buffer cache) every
    ``segment_interval_ms``, advancing linearly through its own slice of
    the library with a small arrival jitter. Per-page popularity is
    nearly flat and strictly transient — the anti-PL workload — while
    the wide, periodic segment bursts give temporal alignment a strongly
    periodic arrival process to exploit.
    """
    if streams <= 0 or segment_pages <= 0:
        raise ConfigurationError("streams and segment_pages must be positive")
    if segment_interval_ms <= 0:
        raise ConfigurationError("segment_interval_ms must be positive")
    if library_pages_per_stream < segment_pages:
        raise ConfigurationError(
            "library_pages_per_stream must hold at least one segment")
    if not 0 <= jitter_fraction < 1:
        raise ConfigurationError("jitter_fraction must be in [0, 1)")

    rng = np.random.default_rng(seed)
    cycles_per_ms = frequency_hz / 1e3
    duration = duration_ms * cycles_per_ms
    interval = segment_interval_ms * cycles_per_ms
    wire = _us_to_cycles(wire_us, frequency_hz)
    page_bytes = 8192
    page_cycles = page_bytes * frequency_hz / io_bus_bandwidth

    phases = rng.random(streams) * interval
    positions = rng.integers(
        0, library_pages_per_stream - segment_pages + 1, size=streams)

    records: list[DMATransfer] = []
    clients: dict[int, ClientRequest] = {}
    request_id = 0
    for stream in range(streams):
        base_page = stream * library_pages_per_stream
        position = int(positions[stream])
        fetch_at = float(phases[stream])
        while fetch_at < duration:
            jitter = float(rng.normal(0.0, jitter_fraction * interval))
            start = max(0.0, fetch_at + jitter)
            clients[request_id] = ClientRequest(
                request_id=request_id, arrival=start, base_cycles=wire)
            for index in range(segment_pages):
                page_offset = (position + index) % library_pages_per_stream
                records.append(DMATransfer(
                    time=start + index * page_cycles,
                    page=base_page + page_offset,
                    size_bytes=page_bytes,
                    source=SOURCE_DISK,
                    is_write=True,
                    bus=stream % 3,
                    request_id=request_id,
                ))
            request_id += 1
            position = (position + segment_pages) % library_pages_per_stream
            fetch_at += interval

    duration = max(duration, max((r.time for r in records), default=0.0))
    logger.debug("video_stream_trace: %d streams, %d segments (seed=%d)",
                 streams, request_id, seed)
    return Trace(
        name=name, records=list(records), clients=clients,
        duration_cycles=duration,
        metadata={
            "generator": "video_stream_trace",
            "family": "video-stream",
            "seed": seed,
            "duration_ms": duration_ms,
            "streams": streams,
            "segment_interval_ms": segment_interval_ms,
            "segment_pages": segment_pages,
            "num_pages": streams * library_pages_per_stream,
        },
    )


def drift_diurnal_trace(
    duration_ms: float = 25.0,
    transfers_per_ms: float = 100.0,
    num_pages: int = 16384,
    zipf_alpha: float = 1.0,
    phases: int = 3,
    write_fraction: float = 0.2,
    parse_us: float = 3.0,
    wire_us: float = 40.0,
    seed: int = 24,
    frequency_hz: float = units.RDRAM_FREQUENCY_HZ,
    name: str = "Drift-Diurnal",
) -> Trace:
    """Diurnal popularity drift: the hot set moves every phase.

    The run is cut into ``phases`` equal windows; each window draws a
    fresh rank→page permutation, so the pages that were hot in one
    phase are (almost surely) cold in the next — a compressed model of
    day/night traffic shifts. PL's periodically recomputed ranking
    must chase the moving hot set, forcing re-migrations at the
    interval boundaries after every shift.
    """
    if phases < 2:
        raise ConfigurationError("drift needs at least 2 phases")
    if not 0 <= write_fraction <= 1:
        raise ConfigurationError("write_fraction must be in [0, 1]")

    rng = np.random.default_rng(seed)
    cycles_per_ms = frequency_hz / 1e3
    duration = duration_ms * cycles_per_ms
    parse = _us_to_cycles(parse_us, frequency_hz)
    wire = _us_to_cycles(wire_us, frequency_hz)
    phase_cycles = duration / phases

    times = poisson_times(transfers_per_ms / cycles_per_ms, duration, rng)
    sampler = ZipfSampler(num_pages, zipf_alpha, rng)
    ranks = sampler.sample(len(times))
    permutations = [rank_permutation(num_pages, rng) for _ in range(phases)]
    is_write = rng.random(len(times)) < write_fraction

    records: list[DMATransfer] = []
    clients: dict[int, ClientRequest] = {}
    for request_id, (time, rank, write) in enumerate(
            zip(times, ranks, is_write)):
        time = float(time)
        phase = min(phases - 1, int(time // phase_cycles))
        page = int(permutations[phase][rank])
        clients[request_id] = ClientRequest(
            request_id=request_id, arrival=time, base_cycles=parse + wire)
        records.append(DMATransfer(
            time=time + parse, page=page, size_bytes=8192,
            source=SOURCE_NETWORK, is_write=bool(write),
            request_id=request_id))

    duration = max(duration, max((r.time for r in records), default=0.0))
    logger.debug("drift_diurnal_trace: %d transfers, %d phases (seed=%d)",
                 len(records), phases, seed)
    return Trace(
        name=name, records=list(records), clients=clients,
        duration_cycles=duration,
        metadata={
            "generator": "drift_diurnal_trace",
            "family": "drift-diurnal",
            "seed": seed,
            "duration_ms": duration_ms,
            "transfers_per_ms": transfers_per_ms,
            "num_pages": num_pages,
            "zipf_alpha": zipf_alpha,
            "phases": phases,
            "phase_ms": duration_ms / phases,
        },
    )


def flash_crowd_trace(
    duration_ms: float = 25.0,
    base_transfers_per_ms: float = 60.0,
    crowd_transfers_per_ms: float = 240.0,
    crowd_start_fraction: float = 0.5,
    crowd_duration_fraction: float = 0.3,
    crowd_pages: int = 64,
    num_pages: int = 16384,
    zipf_alpha: float = 1.0,
    parse_us: float = 3.0,
    wire_us: float = 40.0,
    seed: int = 25,
    frequency_hz: float = units.RDRAM_FREQUENCY_HZ,
    name: str = "Flash-Crowd",
) -> Trace:
    """A flash crowd hits previously-cold content mid-run.

    Background traffic follows a stationary Zipf popularity; at
    ``crowd_start_fraction`` of the run, an additional request wave
    concentrates on ``crowd_pages`` pages drawn from the *cold tail* of
    the background ranking. The hot set PL learned from history is
    suddenly wrong, and the crowd's intensity makes the mistake
    expensive — the stress case for re-migration latency.
    """
    if not 0 <= crowd_start_fraction < 1:
        raise ConfigurationError("crowd_start_fraction must be in [0, 1)")
    if not 0 < crowd_duration_fraction <= 1 - crowd_start_fraction:
        raise ConfigurationError(
            "crowd window must fit inside the run")
    if not 0 < crowd_pages <= num_pages:
        raise ConfigurationError("crowd_pages must be in (0, num_pages]")

    rng = np.random.default_rng(seed)
    cycles_per_ms = frequency_hz / 1e3
    duration = duration_ms * cycles_per_ms
    parse = _us_to_cycles(parse_us, frequency_hz)
    wire = _us_to_cycles(wire_us, frequency_hz)

    base_times = poisson_times(
        base_transfers_per_ms / cycles_per_ms, duration, rng)
    sampler = ZipfSampler(num_pages, zipf_alpha, rng)
    permutation = rank_permutation(num_pages, rng)
    base_pages = permutation[sampler.sample(len(base_times))]

    crowd_start = crowd_start_fraction * duration
    crowd_span = crowd_duration_fraction * duration
    crowd_times = crowd_start + poisson_times(
        crowd_transfers_per_ms / cycles_per_ms, crowd_span, rng)
    # The crowd lands on the least-popular ranks of the background
    # distribution: pages with (near-)zero history.
    tail = permutation[num_pages - crowd_pages:]
    crowd_pages_drawn = tail[rng.integers(0, crowd_pages,
                                          size=len(crowd_times))]

    arrivals = np.concatenate([base_times, crowd_times])
    pages = np.concatenate([base_pages, crowd_pages_drawn])
    order = np.argsort(arrivals, kind="stable")

    records: list[DMATransfer] = []
    clients: dict[int, ClientRequest] = {}
    for request_id, index in enumerate(order):
        time = float(arrivals[index])
        clients[request_id] = ClientRequest(
            request_id=request_id, arrival=time, base_cycles=parse + wire)
        records.append(DMATransfer(
            time=time + parse, page=int(pages[index]), size_bytes=8192,
            source=SOURCE_NETWORK, is_write=False, request_id=request_id))

    duration = max(duration, max((r.time for r in records), default=0.0))
    logger.debug("flash_crowd_trace: %d base + %d crowd transfers (seed=%d)",
                 len(base_times), len(crowd_times), seed)
    return Trace(
        name=name, records=list(records), clients=clients,
        duration_cycles=duration,
        metadata={
            "generator": "flash_crowd_trace",
            "family": "flash-crowd",
            "seed": seed,
            "duration_ms": duration_ms,
            "base_transfers_per_ms": base_transfers_per_ms,
            "crowd_transfers_per_ms": crowd_transfers_per_ms,
            "crowd_start_fraction": crowd_start_fraction,
            "crowd_duration_fraction": crowd_duration_fraction,
            "crowd_pages": crowd_pages,
            "num_pages": num_pages,
        },
    )


#: Name → generator registry: the zoo as the CLI and benches see it.
ZOO: dict[str, Callable[..., Trace]] = {
    "kv-store": kv_store_trace,
    "ml-inference": ml_inference_trace,
    "video-stream": video_stream_trace,
    "drift-diurnal": drift_diurnal_trace,
    "flash-crowd": flash_crowd_trace,
}

