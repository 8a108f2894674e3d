"""Tied wire events pop in bus order: the precise engine's arbiter rule.

Requests from several buses that reach one chip at the same instant are
served lower bus id first (``docs/MODEL.md``), whatever order their
transfers arrived in. Two 4-KB transfers to chip 0 arrive at one
instant, the bus-2 one first: their requests land tied all the way, and
the chip serves the bus-0 transfer's requests first, so only the bus-2
transfer's requests wait (4 cycles each, 2,048 cycles in all). The
kernel batches the tied streams, and must match the kernel-free oracle
bit for bit.
"""

import dataclasses

import pytest

from repro.obs.tracer import RingTracer
from repro.sim.run import simulate
from repro.traces.records import DMATransfer
from repro.traces.trace import Trace
from tests.property.test_engine_equivalence_properties import CONFIG

#: Pages 0-127 on chip 0.
SEQUENTIAL = dataclasses.replace(CONFIG, base_layout="sequential")

TIED = Trace(name="tied-buses", duration_cycles=40_000.0, records=[
    DMATransfer(time=1000.0, page=1, size_bytes=4096, bus=2),
    DMATransfer(time=1000.0, page=2, size_bytes=4096, bus=0),
])


def run(engine):
    tracer = RingTracer(capacity=100_000)
    result = simulate(TIED, config=SEQUENTIAL, technique="nopm",
                      engine=engine, tracer=tracer)
    extras = {event.args["id"]: event.args["extra"]
              for event in tracer.events if event.name == "dma.done"}
    return result, extras


@pytest.fixture(scope="module")
def runs():
    return {engine: run(engine) for engine in ("precise", "precise-scalar")}


@pytest.mark.parametrize("engine", ["precise", "precise-scalar"])
def test_lower_bus_is_served_first(runs, engine):
    """Transfer 2 (bus 0) waits for nothing; transfer 1 (bus 2) waits one
    serve on each of its 512 requests."""
    result, extras = runs[engine]
    assert extras == {2: 0.0, 1: pytest.approx(2048.0, rel=1e-12)}
    assert result.extra_service_cycles == extras[1]


def test_kernel_batches_the_tied_streams_bit_exactly(runs):
    (vector, v_extras), (scalar, s_extras) = (runs["precise"],
                                              runs["precise-scalar"])
    assert v_extras == s_extras
    left, right = dataclasses.asdict(vector), dataclasses.asdict(scalar)
    for fields in (left, right):
        counters = fields["metrics"]["counters"]
        for name in [n for n in counters if n.startswith("kernel.")]:
            del counters[name]
    assert left == right
    assert vector.metrics.counters["kernel.batched_requests"] == 1020
