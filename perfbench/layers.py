"""Which public callables the traced run wraps, and the per-layer metrics.

Every wrapped callable records a span named after its layer; a layer's
``<span>_s`` metric is the self time of its spans. Spans whose names
start with ``harness.`` belong to the benchmark itself; their self time
is the part of the traced run no layer covers.
"""

from __future__ import annotations

import importlib

from perfbench.spans import (Patcher, SpanRecorder, calls_by_name, is_wrapper,
                             modules, self_time_by_name)
from repro.sim.run import TECHNIQUES

HARNESS = "harness."


def _count_records(recorder, args, kwargs, trace) -> None:
    recorder.counts["traces.records"] += len(trace.records)


def _count_jobs(recorder, args, kwargs, outcomes) -> None:
    recorder.counts["exec.jobs"] += len(outcomes)


def _count_moves(recorder, args, kwargs, plan) -> None:
    recorder.counts["core.migrations"] += plan.num_moves


def _count_fluid(recorder, args, kwargs, result) -> None:
    recorder.counts["sim.fluid.requests"] += result.requests


def _count_precise(recorder, args, kwargs, result) -> None:
    counters = result.metrics.counters if result.metrics else {}
    recorder.counts["sim.precise.requests"] += result.requests
    recorder.counts["sim.kernel.batches"] += counters.get("kernel.batches", 0)
    recorder.counts["sim.kernel.batched_requests"] += counters.get(
        "kernel.batched_requests", 0)


#: (module, function, span, counter) — wrapped wherever a module binds it.
FUNCTIONS = (
    ("repro.traces.oltp", "oltp_storage_trace", "traces.generate",
     _count_records),
    ("repro.traces.oltp", "oltp_database_trace", "traces.generate",
     _count_records),
    ("repro.traces.zoo", "drift_diurnal_trace", "traces.generate",
     _count_records),
    ("repro.core.cp_limit", "calibrate_mu", "core.calibrate", None),
    ("repro.sim.run", "simulate", "sim.simulate", None),
    ("repro.exec.runner", "run_many", "exec.overhead", _count_jobs),
    ("repro.analysis.sweep", "sweep_cp_limit", "analysis.sweep", None),
    ("repro.obs.audit", "audit_result", "analysis.audit", None),
)

#: (module, class, attribute, span, counter) — wrapped on the class.
METHODS = (
    ("repro.traces.trace", "Trace", "fingerprint", "traces.fingerprint",
     None),
    ("repro.storage.server", "StorageServer", "generate", "storage.generate",
     None),
    ("repro.storage.database", "DatabaseServer", "generate",
     "storage.generate", None),
    ("repro.core.layout", "PopularityGrouper", "build_plan", "core.plan",
     None),
    ("repro.core.migration", "MigrationPlanner", "plan_and_apply",
     "core.plan", _count_moves),
    ("repro.memory.address", "RandomLayout", "__init__", "memory.layout",
     None),
    ("repro.memory.address", "MutableLayout", "__init__", "memory.layout",
     None),
    ("repro.memory.chip", "FluidChip", "observe", "memory.observe", None),
    ("repro.energy.accounting", "EnergyBreakdown", "total",
     "energy.breakdown", None),
    ("repro.energy.accounting", "EnergyBreakdown", "as_dict",
     "energy.breakdown", None),
    ("repro.energy.accounting", "TimeBreakdown", "as_dict",
     "energy.breakdown", None),
    ("repro.sim.fluid", "FluidEngine", "__init__", "sim.fluid.build", None),
    ("repro.sim.fluid", "FluidEngine", "run", "sim.fluid.run",
     _count_fluid),
    ("repro.sim.precise", "PreciseEngine", "__init__", "sim.precise.build",
     None),
    ("repro.sim.precise", "PreciseEngine", "run", "sim.precise.run",
     _count_precise),
    ("repro.obs.telemetry", "TelemetrySampler", "sample",
     "obs.telemetry.sample", None),
    ("repro.obs.diff", "DigestRecorder", "sample", "obs.digest.sample",
     None),
    ("repro.obs.audit", "Auditor", "emit", "obs.audit.emit", None),
)

#: Report order of the layers, named after the ``repro`` subpackages.
LAYER_ORDER = ("traces", "storage", "core", "memory", "energy", "sim",
               "exec", "analysis", "obs", "harness")


def _in_layer_order(names) -> tuple[str, ...]:
    position = {layer: i for i, layer in enumerate(LAYER_ORDER)}
    return tuple(sorted(dict.fromkeys(names), key=lambda name: position.get(
        name.split(".")[0], len(LAYER_ORDER))))


#: Every layer span name.
LAYER_SPANS = _in_layer_order(
    [span for _, _, span, _ in FUNCTIONS]
    + [span for _, _, _, span, _ in METHODS])

#: Call-count metrics: metric name -> span name.
CALL_METRICS = {
    "core.calibrate_calls": "core.calibrate",
    "memory.layout_calls": "memory.layout",
    "memory.observe_calls": "memory.observe",
    "energy.breakdown_calls": "energy.breakdown",
    "obs.telemetry.samples": "obs.telemetry.sample",
    "obs.digest.ticks": "obs.digest.sample",
    "obs.audit.events": "obs.audit.emit",
}

#: Boundary counters reported as they are.
COUNT_METRICS = ("traces.records", "core.migrations", "exec.jobs",
                 "sim.kernel.batches")

#: Deterministic figures a workload's outcome carries (0 where the
#: workload makes no such comparison).
ACCURACY_METRICS = ("paper_err", "engine_gap", "sim.horizon_excess",
                    *(f"sim.gap.{t}" for t in TECHNIQUES))

#: Metrics derived from the run as a whole.
RUN_METRICS = ("sim.fluid.ns_per_req", "sim.precise.ns_per_req",
               "sim.kernel.batched_frac", "obs.overhead_frac",
               "harness.traced_s", "harness.overhead_frac",
               "harness.unattributed_frac")

#: Every per-layer metric name the traced run reports.
PER_LAYER = _in_layer_order(
    [f"{span}_s" for span in LAYER_SPANS] + list(CALL_METRICS)
    + list(COUNT_METRICS) + list(ACCURACY_METRICS) + list(RUN_METRICS))


def unit(metric: str) -> str:
    """The unit of a per-layer metric."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ns_per_req"):
        return "ns/req"
    if metric.endswith("_frac") or metric in ACCURACY_METRICS:
        return "fraction"
    return "count"


def install(recorder: SpanRecorder, patcher: Patcher,
            extra_modules=()) -> None:
    """Wrap every callable of :data:`FUNCTIONS` and :data:`METHODS`."""
    for module, name, span, count in FUNCTIONS:
        fn = getattr(importlib.import_module(module), name)
        patcher.wrap_function(
            fn, lambda f, s=span, c=count: recorder.wrap(f, s, c),
            extra_modules)
    for module, cls, attr, span, count in METHODS:
        owner = getattr(importlib.import_module(module), cls)
        patcher.wrap_method(
            owner, attr, lambda f, s=span, c=count: recorder.wrap(f, s, c))


def leftover_wrappers(extra_modules=()) -> list[str]:
    """Where a span wrapper is still bound (empty once restored)."""
    found = []
    for module in modules(extra_modules):
        for attr, value in vars(module).items():
            if is_wrapper(value):
                found.append(f"{module.__name__}.{attr}")
    for module, cls, attr, _, _ in METHODS:
        owner = getattr(importlib.import_module(module), cls)
        value = vars(owner).get(attr)
        if is_wrapper(getattr(value, "fget", value)):
            found.append(f"{module}.{cls}.{attr}")
    return found


def layer_metrics(recorder: SpanRecorder, root: int,
                  accuracy: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``root`` is the index of the span covering the whole traced pass
    (its only top-level span). The two overhead fractions compare
    several passes and are left to the caller.
    """
    own = self_time_by_name(recorder)
    calls = calls_by_name(recorder)
    counts = recorder.counts
    traced_s = recorder.duration(root)
    harness_s = sum(value for name, value in own.items()
                    if name.startswith(HARNESS))

    metrics = {f"{span}_s": own.get(span, 0.0) for span in LAYER_SPANS}
    metrics.update({metric: float(calls.get(span, 0))
                    for metric, span in CALL_METRICS.items()})
    metrics.update({metric: float(counts.get(metric, 0))
                    for metric in COUNT_METRICS})
    metrics.update({metric: float(accuracy.get(metric, 0.0))
                    for metric in ACCURACY_METRICS})
    for engine in ("fluid", "precise"):
        requests = counts.get(f"sim.{engine}.requests", 0)
        metrics[f"sim.{engine}.ns_per_req"] = (
            metrics[f"sim.{engine}.run_s"] / requests * 1e9
            if requests else 0.0)
    precise_requests = counts.get("sim.precise.requests", 0)
    metrics["sim.kernel.batched_frac"] = (
        counts.get("sim.kernel.batched_requests", 0) / precise_requests
        if precise_requests else 0.0)
    metrics["harness.traced_s"] = traced_s
    metrics["harness.unattributed_frac"] = harness_s / traced_s
    return metrics
