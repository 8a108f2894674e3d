"""The engine core both engines share (``repro.sim.engine.EngineCore``).

The core decodes the technique once, so every engine must build the
same run from the same technique: the same ``sim.config`` instant, the
same ``mu``, controller and layout kind, and the same metric counters
(the precise kernel's ``kernel.*`` counters aside). A finished engine
must also be freed with its last reference, without waiting for the
cycle collector.
"""

import gc
import weakref

import pytest

from repro.core.controller import BaselineController
from repro.core.temporal_alignment import TemporalAlignmentController
from repro.memory.address import MutableLayout
from repro.obs import RingTracer
from repro.sim.run import ENGINES, TECHNIQUES, build_engine
from repro.traces.synthetic import synthetic_storage_trace

MU = 1.5


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=0.2, transfers_per_ms=100,
                                   seed=51)


def _traced_run(trace, technique, engine):
    """Run once with a tracer; returns the engine, the result and the
    ``sim.config`` payload."""
    tracer = RingTracer()
    built = build_engine(trace, technique=technique, engine=engine, mu=MU,
                         tracer=tracer)
    result = built.run()
    configs = [event.args for event in tracer.events
               if event.name == "sim.config"]
    assert len(configs) == 1
    return built, result, configs[0]


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("engine", ENGINES)
def test_shared_decode(trace, technique, engine):
    built, result, config = _traced_run(trace, technique, engine)
    _, reference, reference_config = _traced_run(trace, technique, "fluid")

    assert config["engine"] == ("fluid" if engine == "fluid"
                                else "precise")
    assert ({k: v for k, v in config.items() if k != "engine"}
            == {k: v for k, v in reference_config.items()
                if k != "engine"})

    ta = technique in ("dma-ta", "dma-ta-pl")
    assert result.mu == config["mu"] == (MU if ta else 0.0)
    assert type(built.controller) is (TemporalAlignmentController if ta
                                      else BaselineController)
    assert isinstance(built.layout, MutableLayout) == (
        technique in ("pl", "dma-ta-pl"))

    def counter_names(run):
        return {name for name in run.metrics.counters
                if not name.startswith("kernel.")}

    assert counter_names(result) == counter_names(reference)
    assert any(name.startswith("kernel.") for name in result.metrics.counters
               ) == (engine == "precise")


@pytest.mark.parametrize("engine", ENGINES)
def test_finished_engine_freed_with_last_reference(trace, engine):
    """The DMA-TA controller's request counter and the precise kernel
    point back at the engine; the run drops both when it ends."""
    gc.collect()
    gc.disable()
    try:
        survivors = []
        for technique in TECHNIQUES:
            built = build_engine(trace, technique=technique, engine=engine)
            built.run()
            ref = weakref.ref(built)
            del built
            if ref() is not None:
                survivors.append(technique)
    finally:
        gc.enable()
    assert survivors == []
