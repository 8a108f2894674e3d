"""Units for the audit layer (repro.obs.audit)."""

import json
import math
from types import SimpleNamespace

import pytest

from repro.config import SimulationConfig
from repro.energy.accounting import EnergyBreakdown
from repro.errors import AuditError
from repro.obs.audit import (
    KIND_GUARANTEE,
    KIND_UNDERCHARGE,
    AuditViolation,
    Auditor,
    audit_result,
    audit_summary,
    write_audit_report,
)
from repro.obs.events import (
    PH_INSTANT,
    TRACK_CONTROLLER,
    TRACK_SIM,
    Event,
)
from repro.sim.fluid import FluidEngine
from repro.sim.precise import PreciseEngine
from repro.traces.synthetic import synthetic_storage_trace


@pytest.fixture(scope="module")
def dense_trace():
    """Dense enough that DMA-TA actually buffers and charges epochs."""
    return synthetic_storage_trace(duration_ms=10.0, transfers_per_ms=100,
                                   seed=7)


def _instant(ts, name, args, track=TRACK_SIM):
    return Event(ts=ts, name=name, track=track, ph=PH_INSTANT, args=args)


def _audit(events):
    """Replay a recorded event stream through a fresh Auditor; the report."""
    auditor = Auditor()
    for event in events:
        auditor.emit(event)
    return auditor.finalize()


def _config_event(mu=1.0, service=4.0, epoch=1000.0):
    return _instant(0.0, "sim.config",
                    {"mu": mu, "service_cycles": service,
                     "epoch_cycles": epoch})


class TestUnderchargeDetection:
    @pytest.mark.parametrize("engine_cls", [FluidEngine, PreciseEngine])
    def test_injected_undercharge_yields_one_violation(
            self, dense_trace, engine_cls):
        config = SimulationConfig().with_mu(2.0)
        auditor = Auditor()
        engine = engine_cls(dense_trace, config, technique="dma-ta",
                            tracer=auditor)
        engine.controller.slack.undercharge_fraction = 0.5
        result = engine.run()
        report = auditor.finalize(result)

        undercharges = [v for v in report.violations
                        if v.kind == KIND_UNDERCHARGE]
        assert len(undercharges) == 1
        violation = undercharges[0]
        assert violation.epoch is not None
        assert violation.epoch == pytest.approx(
            violation.ts / config.alignment.epoch_cycles, abs=1)
        assert violation.details["charged"] == pytest.approx(
            violation.details["expected"] * 0.5)
        # Later under-charged epochs are counted, not stored again.
        assert report.suppressed.get(KIND_UNDERCHARGE, 0) >= 1

    def test_clean_run_has_no_violations(self, dense_trace):
        config = SimulationConfig().with_mu(2.0)
        auditor = Auditor(strict=True)
        result = FluidEngine(dense_trace, config, technique="dma-ta",
                             tracer=auditor).run()
        report = auditor.finalize(result)
        assert report.ok
        assert report.epochs_charged > 0
        assert report.transfers_completed == result.transfers

    def test_strict_mode_raises_at_the_offending_epoch(self, dense_trace):
        config = SimulationConfig().with_mu(2.0)
        engine = FluidEngine(dense_trace, config, technique="dma-ta",
                             tracer=Auditor(strict=True))
        engine.controller.slack.undercharge_fraction = 0.25
        with pytest.raises(AuditError) as excinfo:
            engine.run()
        assert excinfo.value.violation.kind == KIND_UNDERCHARGE
        assert excinfo.value.violation.epoch is not None


class TestGuaranteeBreach:
    def test_forced_breach_yields_one_violation_with_epoch(self):
        # One request credited mu*T = 4 cycles, delayed 5000 cycles: the
        # running average breaches (1+mu)*T at the dma.done event.
        events = [
            _config_event(),
            _instant(0.0, "dma.arrive",
                     {"id": 1, "chip": 0, "bus": 0, "requests": 1}),
            _instant(5000.0, "dma.done",
                     {"id": 1, "chip": 0, "extra": 0.0, "waited": 5000.0}),
            _instant(0.0, "dma.arrive",
                     {"id": 2, "chip": 0, "bus": 0, "requests": 1}),
            _instant(6000.0, "dma.done",
                     {"id": 2, "chip": 0, "extra": 0.0, "waited": 6000.0}),
        ]
        report = _audit(events)
        breaches = [v for v in report.violations
                    if v.kind == KIND_GUARANTEE]
        assert len(breaches) == 1
        violation = breaches[0]
        assert violation.epoch == 5  # ts=5000, epoch_cycles=1000
        assert violation.details["avg_extra"] > 4.0
        # The second breaching completion is suppressed, not re-stored.
        assert report.suppressed.get(KIND_GUARANTEE, 0) == 1

    def test_within_allowance_is_clean(self):
        events = [
            _config_event(),
            _instant(0.0, "dma.arrive",
                     {"id": 1, "chip": 0, "bus": 0, "requests": 4}),
            _instant(10.0, "dma.done",
                     {"id": 1, "chip": 0, "extra": 2.0, "waited": 8.0}),
        ]
        report = _audit(events)
        assert report.ok
        assert report.stage_cycles["buffer"] == 8.0
        assert report.stage_cycles["extra"] == 2.0

    def test_strict_breach_raises(self):
        auditor = Auditor(strict=True)
        auditor.emit(_config_event())
        auditor.emit(_instant(0.0, "dma.arrive",
                              {"id": 1, "chip": 0, "bus": 0,
                               "requests": 1}))
        with pytest.raises(AuditError):
            auditor.emit(_instant(9000.0, "dma.done",
                                  {"id": 1, "chip": 0, "extra": 0.0,
                                   "waited": 9000.0}))


class TestWaterfall:
    def test_stages_and_causes_attributed(self):
        events = [
            _config_event(mu=100.0),
            _instant(0.0, "dma.arrive",
                     {"id": 7, "chip": 2, "bus": 1, "requests": 3}),
            _instant(40.0, "ta.buffer", {"chip": 2, "id": 7, "requests": 3},
                     track=TRACK_CONTROLLER),
            _instant(100.0, "dma.release",
                     {"id": 7, "chip": 2, "reason": "slack",
                      "waited": 100.0}, track=TRACK_CONTROLLER),
            _instant(160.0, "dma.start",
                     {"id": 7, "chip": 2, "wake": 50.0, "bus_wait": 10.0}),
            _instant(200.0, "dma.done",
                     {"id": 7, "chip": 2, "extra": 20.0, "waited": 100.0,
                      "mig": 1}),
        ]
        report = _audit(events)
        assert report.transfers_completed == 1
        assert report.requests_completed == 3
        assert report.stage_cycles == {
            "buffer": 100.0, "wake": 50.0, "bus": 10.0, "extra": 20.0}
        assert report.cause_cycles["batching-delay:slack"] == 100.0
        assert report.cause_cycles["low-power-wakeup"] == 50.0
        assert report.cause_cycles["bus-contention"] == 10.0
        assert report.cause_cycles["migration-interference"] == 20.0

        slowest = report.slowest
        assert len(slowest) == 1
        assert slowest[0]["id"] == 7
        assert slowest[0]["total"] == 180.0

        spans = report.waterfall_events()
        names = [e.name for e in spans]
        assert "waterfall.buffer" in names
        assert "waterfall.transfer" in names
        assert all(e.track.startswith("audit") for e in spans)

    def test_slowest_is_bounded(self):
        auditor = Auditor(slowest=2)
        auditor.emit(_config_event(mu=1000.0))
        for i in range(10):
            auditor.emit(_instant(0.0, "dma.arrive",
                                  {"id": i, "chip": 0, "bus": 0,
                                   "requests": 1}))
            auditor.emit(_instant(float(i + 1), "dma.done",
                                  {"id": i, "chip": 0, "extra": 0.0,
                                   "waited": float(i + 1)}))
        report = auditor.finalize()
        assert len(report.slowest) == 2
        assert [e["total"] for e in report.slowest] == [10.0, 9.0]

    def test_render_mentions_waterfall_and_violations(self):
        report = _audit([
            _config_event(),
            _instant(0.0, "dma.arrive",
                     {"id": 1, "chip": 0, "bus": 0, "requests": 1}),
            _instant(5000.0, "dma.done",
                     {"id": 1, "chip": 0, "extra": 0.0, "waited": 5000.0}),
        ])
        text = report.render()
        assert "VIOLATION" in text
        assert "latency waterfall" in text


class TestAuditResult:
    def _result(self, **overrides):
        energy = EnergyBreakdown(serving_dma=1.0, low_power=0.5)
        base = dict(energy=energy, chip_energy=[0.75, 0.75],
                    requests=100, mu=0.5, service_cycles=4.0,
                    head_delay_cycles=10.0, extra_service_cycles=10.0,
                    guarantee_violated=False)
        base.update(overrides)
        return SimpleNamespace(**base)

    def test_clean_result_passes(self):
        assert audit_result(self._result()) == []

    def test_chip_sum_mismatch_flagged(self):
        violations = audit_result(self._result(chip_energy=[0.75, 0.60]))
        assert [v.kind for v in violations] == ["result-energy-mismatch"]

    def test_negative_bucket_flagged(self):
        energy = EnergyBreakdown(serving_dma=-1e-6)
        violations = audit_result(self._result(
            energy=energy, chip_energy=[-1e-6, 0.0]))
        assert any(v.kind == "result-energy-negative" for v in violations)

    def test_wrong_guarantee_flag_flagged(self):
        bad = self._result(head_delay_cycles=500.0, guarantee_violated=False)
        violations = audit_result(bad)
        assert any(v.kind == "result-guarantee-flag" for v in violations)

    def test_summary_lines(self):
        lines = audit_summary([AuditViolation(kind="k", message="m")])
        assert lines == ("k: m",)


class TestReportSerialisation:
    def test_write_audit_report_round_trips(self, tmp_path):
        report = _audit([
            _config_event(),
            _instant(0.0, "dma.arrive",
                     {"id": 1, "chip": 0, "bus": 0, "requests": 1}),
            _instant(3.0, "dma.done",
                     {"id": 1, "chip": 0, "extra": 1.0, "waited": 2.0}),
        ])
        path = write_audit_report(report, tmp_path / "audit.json")
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["waterfall"]["transfers"] == 1
        assert payload["waterfall"]["events"]
        assert payload["slack"]["epochs_charged"] == 0

    def test_as_dict_min_slack_none_when_unknown(self):
        report = _audit([_config_event()])
        assert report.as_dict()["slack"]["min_slack_replayed"] is None


class TestDownstreamTee:
    def test_events_forwarded(self):
        class Sink:
            def __init__(self):
                self.events = []

            def emit(self, event):
                self.events.append(event)

            def close(self):
                self.closed = True

        sink = Sink()
        auditor = Auditor(downstream=sink)
        auditor.emit(_config_event())
        auditor.close()
        assert len(sink.events) == 1
        assert sink.closed
