"""The workloads at tiny sizes: output checks, digests, and traced runs."""

import dataclasses
import importlib

import pytest

from perfbench import layers, workloads
from perfbench.spans import Patcher, SpanRecorder, self_times
from perfbench.workloads import WORKLOADS, check_result

#: Trace durations small enough for the test suite.
TINY_MS = {"fig5-st": 1.0, "xval-db": 0.5, "observed-drift": 1.0}


@pytest.fixture(scope="module")
def tiny_inputs():
    return {name: spec.setup(None, TINY_MS[name])
            for name, spec in WORKLOADS.items()}


@pytest.mark.parametrize("name,ops", [("fig5-st", 11), ("xval-db", 10),
                                      ("observed-drift", 3)])
def test_each_workload_passes(name, ops, tiny_inputs):
    outcome = WORKLOADS[name].run(tiny_inputs[name])
    assert outcome.failed == 0, [
        (op.label, op.failure) for op in outcome.ops if op.failure]
    assert len(outcome.ops) == ops
    assert outcome.requests > 0
    assert len(outcome.digest) == 64


def test_a_second_seed_runs_without_failures():
    for name, spec in WORKLOADS.items():
        outcome = spec.run(spec.setup(7, TINY_MS[name]))
        assert outcome.failed == 0, name


def test_seed_changes_inputs_and_same_seed_repeats():
    spec = WORKLOADS["xval-db"]
    a = spec.setup(3, 0.5).fingerprints
    assert a == spec.setup(3, 0.5).fingerprints
    assert a != spec.setup(4, 0.5).fingerprints


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_typical_seed_holds_the_mean_transfer_count(name):
    spec = WORKLOADS[name]
    seed = workloads.typical_seed(spec, 3)
    assert seed // workloads.SEED_CANDIDATES == 3
    traces = spec.setup(seed, spec.size_ms).traces.values()
    count = sum(len(trace.transfers) for trace in traces)
    assert abs(count - spec.transfers) \
        <= workloads.TRANSFER_TOLERANCE * spec.transfers


def test_accuracy_figures(tiny_inputs):
    fig5 = WORKLOADS["fig5-st"].run(tiny_inputs["fig5-st"])
    xval = WORKLOADS["xval-db"].run(tiny_inputs["xval-db"])
    assert 0 < fig5.accuracy["paper_err"] < 1
    gaps = [xval.accuracy[f"sim.gap.{t}"] for t in workloads.TECHNIQUES]
    assert xval.accuracy["engine_gap"] == max(gaps)
    # A 0.5 ms trace ends before the first 5 ms PL interval, where the
    # precise engine still runs on (ROADMAP: precise horizon stretch).
    assert xval.accuracy["sim.horizon_excess"] > 0


def test_paper_points_match_the_figure5_bench():
    bench = pytest.importorskip("benchmarks.bench_fig5_savings_vs_cplimit")
    assert workloads.PAPER_SAVINGS == bench.PAPER_SAVINGS


# --- output checks ---------------------------------------------------------

@pytest.fixture(scope="module")
def drift_pair(tiny_inputs):
    trace = tiny_inputs["observed-drift"].traces["Drift-Diurnal"]
    baseline = workloads.simulate(trace, technique="baseline")
    run = workloads.simulate(trace, technique="dma-ta-pl", cp_limit=0.1)
    return baseline, run


def test_check_result_flags_degradation_above_the_cp_limit(drift_pair):
    baseline, run = drift_pair
    assert check_result(run, (), baseline, 0.1) is None
    slow = dataclasses.replace(run, client_responses={
        key: value * 1.2 for key, value in baseline.client_responses.items()})
    failure = check_result(slow, (), baseline, 0.1)
    assert failure is not None and "exceeds CP-Limit" in failure
    assert check_result(slow, (), baseline, 0.3) is None


def test_check_result_flags_audit_and_guarantee(drift_pair):
    _, run = drift_pair
    assert check_result(run, ("result-energy-negative: x",)).startswith(
        "audit")
    violated = dataclasses.replace(run, guarantee_violated=True)
    assert "guarantee" in check_result(violated)


def test_observed_run_differing_from_its_twin_fails(tiny_inputs,
                                                     monkeypatch):
    real = workloads.simulate

    def perturbed(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("telemetry") is not None:
            result.energy.low_power += 1e-15
        return result

    monkeypatch.setattr(workloads, "simulate", perturbed)
    outcome = WORKLOADS["observed-drift"].run(tiny_inputs["observed-drift"])
    failures = {op.label: op.failure for op in outcome.ops if op.failure}
    assert list(failures) == ["observed"]
    assert "twin" in failures["observed"]


def test_a_raising_simulation_is_a_failed_op(tiny_inputs, monkeypatch):
    real = workloads.simulate

    def flaky(trace, technique="baseline", engine="fluid", **kwargs):
        if engine == "precise" and technique == "pl":
            raise RuntimeError("injected")
        return real(trace, technique=technique, engine=engine, **kwargs)

    monkeypatch.setattr(workloads, "simulate", flaky)
    outcome = WORKLOADS["xval-db"].run(tiny_inputs["xval-db"])
    assert [op.label for op in outcome.ops if op.failure] == ["precise:pl"]
    assert len(outcome.ops) == 10
    assert "sim.gap.pl" not in outcome.accuracy


# --- traced runs -----------------------------------------------------------

def _bindings() -> dict:
    """Every wrapped callable as its module or class holds it now."""
    found = {}
    for module, name, _, _ in layers.FUNCTIONS:
        found[module, name] = vars(importlib.import_module(module))[name]
    for module, cls, attr, _, _ in layers.METHODS:
        owner = vars(importlib.import_module(module))[cls]
        found[module, f"{cls}.{attr}"] = vars(owner)[attr]
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_restores_wrappers_and_adds_up(name):
    spec = WORKLOADS[name]
    before = _bindings()
    recorder = SpanRecorder()
    with Patcher() as patcher:
        layers.install(recorder, patcher, [workloads])
        assert layers.leftover_wrappers([workloads])
        with recorder.span("harness.run") as root:
            with recorder.span("harness.setup"):
                inputs = spec.setup(None, TINY_MS[name])
            with recorder.span("harness.iterate"):
                traced = spec.run(inputs)
    assert layers.leftover_wrappers([workloads]) == []
    after = _bindings()
    assert all(after[key] is original for key, original in before.items())
    assert workloads.simulate is before["repro.sim.run", "simulate"]

    assert traced.failed == 0
    metrics = layers.layer_metrics(recorder, root, traced.accuracy)
    assert set(metrics) | {"obs.overhead_frac", "harness.overhead_frac"} \
        == set(layers.PER_LAYER)
    layer_s = sum(metrics[f"{span}_s"] for span in layers.LAYER_SPANS)
    traced_s = metrics["harness.traced_s"]
    assert layer_s + metrics["harness.unattributed_frac"] * traced_s \
        == pytest.approx(traced_s, rel=1e-9)
    assert sum(self_times(recorder)) == pytest.approx(traced_s, rel=1e-9)
    assert metrics["traces.records"] > 0
    assert metrics["traces.generate_s"] > 0
    assert metrics["memory.layout_calls"] > 0
    if name == "fig5-st":
        assert metrics["exec.jobs"] == 11
        assert metrics["analysis.sweep_s"] > 0
    if name == "xval-db":
        assert metrics["sim.precise.ns_per_req"] > 0
        assert 0 < metrics["sim.kernel.batched_frac"] <= 1
    if name == "observed-drift":
        assert metrics["obs.telemetry.samples"] > 0
        assert metrics["obs.digest.ticks"] > 0
        assert metrics["obs.audit.events"] > 0
        assert metrics["memory.observe_calls"] > 0
