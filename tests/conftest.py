"""Shared fixtures: a small platform and tiny traces for fast tests."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.config import (
    BusConfig,
    MemoryConfig,
    PopularityLayoutConfig,
    SimulationConfig,
)
from repro.core.temporal_alignment import TemporalAlignmentController
from repro.traces.records import ClientRequest, DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

MB = 1 << 20


@pytest.fixture
def settle_calls(monkeypatch):
    """Counts ``TemporalAlignmentController.settle_epochs`` calls; while
    ``one_tick`` is set, each call drops its ``stop`` and runs only its
    one default tick, so every epoch tick is its own event."""
    calls = SimpleNamespace(count=0, one_tick=False)
    settle = TemporalAlignmentController.settle_epochs

    def counting_settle(self, now, *rest):
        calls.count += 1
        return settle(self, now) if calls.one_tick else settle(self, now,
                                                               *rest)

    monkeypatch.setattr(TemporalAlignmentController, "settle_epochs",
                        counting_settle)
    return calls


@pytest.fixture
def small_memory() -> MemoryConfig:
    """8 chips of 1 MB (128 pages each) — small but structurally real."""
    return MemoryConfig(num_chips=8, chip_bytes=1 * MB, page_bytes=8192)


@pytest.fixture
def small_config(small_memory) -> SimulationConfig:
    return SimulationConfig(
        memory=small_memory,
        buses=BusConfig(count=3),
        layout=PopularityLayoutConfig(interval_cycles=200_000.0),
    )


@pytest.fixture
def paper_config() -> SimulationConfig:
    """The paper's full Section 5.1 platform (32 chips, 3 PCI-X buses)."""
    return SimulationConfig()


def make_transfer(time: float, page: int = 0, size: int = 8192,
                  source: str = "network", bus: int | None = None,
                  request_id: int | None = None) -> DMATransfer:
    return DMATransfer(time=time, page=page, size_bytes=size, source=source,
                       bus=bus, request_id=request_id)


@pytest.fixture
def single_transfer_trace() -> Trace:
    """One 8-KB transfer at t=1000 cycles."""
    return Trace(name="single",
                 records=[make_transfer(1000.0, page=5)],
                 duration_cycles=200_000.0)


@pytest.fixture
def aligned_trace() -> Trace:
    """Three simultaneous transfers on three buses to the same page.

    The textbook DMA-TA scenario: if served together they saturate one
    chip (k = 3 buses at a 3:1 bandwidth ratio).
    """
    records = [make_transfer(1000.0, page=7, bus=b) for b in range(3)]
    return Trace(name="aligned", records=records, duration_cycles=200_000.0)


@pytest.fixture
def clients_trace() -> Trace:
    """Two client requests, each served by one transfer."""
    records = [
        make_transfer(1000.0, page=1, request_id=0),
        make_transfer(50_000.0, page=2, request_id=1),
    ]
    clients = {
        0: ClientRequest(request_id=0, arrival=500.0, base_cycles=10_000.0),
        1: ClientRequest(request_id=1, arrival=49_000.0, base_cycles=10_000.0),
    }
    return Trace(name="clients", records=records, clients=clients,
                 duration_cycles=200_000.0)


@pytest.fixture
def proc_trace() -> Trace:
    """A processor burst followed by a transfer on the same page."""
    records = [
        ProcessorBurst(time=1000.0, page=3, count=16),
        make_transfer(4000.0, page=3),
    ]
    return Trace(name="proc", records=records, duration_cycles=200_000.0)
