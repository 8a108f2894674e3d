"""One benchmark sample, in a fresh process.

Usage (``perfbench/run.py`` starts it; ``-`` means "default")::

    python3 perfbench/sample.py MODE WORKLOAD SEED

``MODE`` is ``setup`` (time import + set-up only), ``run`` (then run the
workload once) or ``traced`` (then set up and run again with every layer
wrapped). Prints one JSON object of raw host seconds and outputs. Only
``os``, ``sys`` and ``time`` are imported before the set-up clock
starts, so that ``setup_s`` covers everything ``import repro`` loads.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where traced samples write their spans (ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench")


def sample(mode: str, workload: str, seed) -> dict:
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: users pay it on every invocation)

    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS[workload]
    inputs = spec.setup(seed, spec.size_ms)
    found = {"setup_s": time.perf_counter() - start,
             "fingerprints": inputs.fingerprints,
             "origin": repro.__file__}
    if mode == "traced":
        found |= _traced(spec, seed)
    elif mode == "run":
        import gc

        gc.collect()
        start = time.perf_counter()
        outcome = spec.run(inputs)
        found |= _outcome_fields(outcome, time.perf_counter() - start)
    return found


def _outcome_fields(outcome, wall_s: float) -> dict:
    import resource

    return {
        "wall_s": wall_s,
        "requests": outcome.requests,
        "attempted": len(outcome.ops),
        "failures": [f"{op.label}: {op.failure}" for op in outcome.ops
                     if op.failure is not None],
        "digest": outcome.digest,
        "accuracy": outcome.accuracy,
        "timings": outcome.timings,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced(spec, seed) -> dict:
    """Set up and run with every layer wrapped, then restore them.

    The traced pass repeats set-up with fresh traces, so its spans cover
    trace generation and fingerprinting as well as the run.
    """
    import gc

    from perfbench import layers, workloads
    from perfbench.spans import Patcher, SpanRecorder

    recorder = SpanRecorder()
    gc.collect()
    with Patcher() as patcher:
        layers.install(recorder, patcher, [workloads])
        with recorder.span("harness.run") as root:
            with recorder.span("harness.setup"):
                inputs = spec.setup(seed, spec.size_ms)
            with recorder.span("harness.iterate") as iterate:
                outcome = spec.run(inputs)
    found = _outcome_fields(outcome, recorder.duration(iterate))
    found["leftover"] = layers.leftover_wrappers([workloads])
    found["layers"] = layers.layer_metrics(recorder, root, outcome.accuracy)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{spec.name}.npz")
    recorder.write(path)
    found["spans"] = f"{os.path.relpath(path, ROOT)} ({len(recorder)} spans)"
    return found


def main(argv: list[str]) -> int:
    mode, workload, seed = argv
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    found = sample(mode, workload, None if seed == "-" else int(seed))
    import json

    print(json.dumps(found))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
