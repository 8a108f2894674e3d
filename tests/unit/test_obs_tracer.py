"""Units for the event model and tracer sinks."""

import json

import pytest

from repro.obs.events import (
    PH_COUNTER,
    PH_INSTANT,
    PH_SPAN,
    TRACK_CONTROLLER,
    Event,
    bus_track,
    chip_track,
)
from repro.obs.tracer import (
    JsonlTracer,
    RingTracer,
    Tracer,
    read_jsonl_events,
)
from repro.sim.fluid import FluidEngine


class TestEvent:
    def test_as_dict_roundtrip(self):
        event = Event(ts=10.0, name="x", track="chip:0", ph=PH_SPAN,
                      dur=5.0, args={"bucket": "low_power"})
        data = event.as_dict()
        assert data["ts"] == 10.0
        assert data["dur"] == 5.0
        assert data["args"] == {"bucket": "low_power"}

    def test_instant_omits_duration(self):
        data = Event(ts=1.0, name="x", track="sim").as_dict()
        assert data["ph"] == PH_INSTANT
        assert "dur" not in data

    def test_track_helpers(self):
        assert chip_track(3) == "chip:3"
        assert bus_track(0) == "bus:0"


class TestNullTracer:
    """``None`` is the disabled sink; a live tracer reaches the engine."""

    def test_normalised_away(self, single_transfer_trace, small_config):
        engine = FluidEngine(single_transfer_trace, small_config,
                             technique="dma-ta", tracer=None)
        assert engine.tracer is None
        live = RingTracer()
        engine = FluidEngine(single_transfer_trace, small_config,
                             technique="dma-ta", tracer=live)
        assert engine.tracer is live


class TestRingTracer:
    def test_collects_events(self):
        tracer = RingTracer()
        tracer.span(0.0, 4.0, "serve", "chip:1", {"bucket": "serving_dma"})
        tracer.instant(4.0, "ta.release", TRACK_CONTROLLER, {"batch": 2})
        tracer.counter(5.0, "slack", TRACK_CONTROLLER, 12.5)
        assert len(tracer) == 3
        phases = [e.ph for e in tracer]
        assert phases == [PH_SPAN, PH_INSTANT, PH_COUNTER]
        assert tracer.events[2].args == {"value": 12.5}

    def test_bounded_capacity_drops_oldest(self):
        tracer = RingTracer(capacity=2)
        for i in range(5):
            tracer.instant(float(i), f"e{i}", "sim")
        assert len(tracer) == 2
        assert tracer.emitted == 5
        assert tracer.dropped == 3
        assert [e.name for e in tracer.events] == ["e3", "e4"]

    def test_clear(self):
        tracer = RingTracer()
        tracer.instant(0.0, "x", "sim")
        tracer.clear()
        assert len(tracer) == 0

    def test_context_manager(self):
        with RingTracer() as tracer:
            tracer.instant(0.0, "x", "sim")
        assert len(tracer) == 1


class TestJsonlTracer:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.span(0.0, 4.0, "serve", "chip:0",
                        {"bucket": "serving_dma"})
            tracer.instant(4.0, "wake", "chip:0")
        events = read_jsonl_events(path)
        assert len(events) == 2
        assert events[0].ph == PH_SPAN
        assert events[0].dur == 4.0
        assert events[1].name == "wake"

    def test_lines_are_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.instant(1.0, "x", "sim", {"k": 1})
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "x"

    def test_external_handle_not_closed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with path.open("w") as handle:
            tracer = JsonlTracer(handle)
            tracer.instant(0.0, "x", "sim")
            tracer.close()
            assert not handle.closed


class TestBaseTracer:
    def test_emit_is_abstract_hookpoint(self):
        tracer = Tracer()
        with pytest.raises(NotImplementedError):
            tracer.span(0.0, 1.0, "x", "sim")
        with pytest.raises(NotImplementedError):
            tracer.emit(Event(ts=0.0, name="x", track="sim"))
