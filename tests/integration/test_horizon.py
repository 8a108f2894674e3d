"""The simulated horizon is set by the trace and its work, not by
whichever periodic tick fires last.

A 2 ms trace ends long before the first PL interval (5 ms), so PL never
migrates on it: ``pl`` must equal ``baseline`` and ``dma-ta-pl`` must
equal ``dma-ta`` field for field, on every engine. An epoch or interval
tick that finds no work left changes no state, so it must not stretch
the run (and with it the idle and low-power energy) to the tick's time.
"""

import pytest

from repro import simulate
from repro.config import SimulationConfig
from repro.traces.synthetic import synthetic_storage_trace

ENGINES = ("fluid", "precise", "precise-scalar")


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=2.0, transfers_per_ms=100,
                                   seed=51)


def run(trace, engine, technique):
    cp_limit = 0.1 if "dma-ta" in technique else None
    return simulate(trace, technique=technique, engine=engine,
                    cp_limit=cp_limit)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("technique,twin", [("pl", "baseline"),
                                            ("dma-ta-pl", "dma-ta")])
def test_pl_without_an_interval_equals_its_twin(trace, engine, technique,
                                                twin):
    with_pl = run(trace, engine, technique)
    without = run(trace, engine, twin)
    assert with_pl.migrations == 0
    assert with_pl.duration_cycles == without.duration_cycles
    assert with_pl.energy.as_dict() == without.energy.as_dict()
    assert with_pl.time.as_dict() == without.time.as_dict()
    assert with_pl.chip_energy == without.chip_energy


@pytest.mark.parametrize("engine", ENGINES)
def test_dma_ta_run_does_not_end_on_an_epoch_tick(trace, engine):
    """The trace's work ends between two epoch ticks; a run that ends
    exactly on a tick was stretched by it."""
    result = run(trace, engine, "dma-ta")
    epoch = SimulationConfig().alignment.epoch_cycles
    assert result.duration_cycles > trace.duration_cycles
    assert result.duration_cycles % epoch != 0
