"""Pinned reproduction of the fluid/precise wake-rule split (ROADMAP item 1).

Three DMA transfers on the engine-equivalence property test's 4-chip
platform, under ``baseline``. Transfer 2 (page 15, 512 B from disk)
arrives while transfer 1 (page 16, 8 KB from the network) holds its
bus. The precise engine wakes transfer 2's chip when the transfer is
released (``PreciseEngine._do_release``), lets it descend to powerdown
while the transfer waits for the bus, and wakes it again when the first
request arrives. The fluid engine wakes the chip once, at bus grant.
So precise counts one wake more, charges 9,612 cycles of extra service
(9,604 of them to the queued transfer) where fluid charges none, and
reads 1.65% more energy.

The values are pinned so that any drift shows here first. The wake
count check is a strict xfail: the wake-rule fix makes the engines
agree, the check then passes, and the fix must take the marker off.
"""

import pytest

from repro import simulate
from repro.config import BusConfig, MemoryConfig, SimulationConfig
from repro.sim.run import ENGINES
from repro.traces.records import DMATransfer
from repro.traces.trace import Trace

MB = 1 << 20

#: The engine-equivalence property test's platform (4 chips, 3 buses).
CONFIG = SimulationConfig(
    memory=MemoryConfig(num_chips=4, chip_bytes=MB, page_bytes=8192),
    buses=BusConfig(count=3))


def reproduction_trace() -> Trace:
    records = [
        DMATransfer(time=25_624.08, page=16, size_bytes=8192,
                    source="network"),
        DMATransfer(time=28_091.16, page=15, size_bytes=512, source="disk"),
        DMATransfer(time=139_122.29, page=29, size_bytes=512,
                    source="network"),
    ]
    return Trace(name="wake-rule", records=records,
                 duration_cycles=250_000.0)


@pytest.fixture(scope="module")
def results():
    trace = reproduction_trace()
    return {engine: simulate(trace, config=CONFIG, technique="baseline",
                             engine=engine)
            for engine in ENGINES}


def test_wakes_are_pinned(results):
    assert {engine: r.wakes for engine, r in results.items()} == {
        "fluid": 3, "precise": 4, "precise-scalar": 4}


def test_extra_service_is_pinned(results):
    assert results["fluid"].extra_service_cycles == 0.0
    assert results["precise"].extra_service_cycles == 9_612.0
    assert results["precise-scalar"].extra_service_cycles == 9_612.0


def test_energy_is_pinned(results):
    fluid = results["fluid"].energy_joules
    precise = results["precise"].energy_joules
    assert fluid == pytest.approx(4.7118e-6, rel=1e-4)
    assert precise == pytest.approx(4.7910e-6, rel=1e-4)
    assert 1 - fluid / precise == pytest.approx(0.0165, abs=5e-4)
    assert (results["precise-scalar"].energy.as_dict()
            == results["precise"].energy.as_dict())


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the precise engine wakes a chip when its "
           "transfer is released, the fluid engine when the transfer "
           "gets the bus")
def test_engines_make_equal_wakes(results):
    assert results["fluid"].wakes == results["precise"].wakes
