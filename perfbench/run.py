"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-st --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Every sample is a fresh process that imports ``repro``, generates the
workload's traces and runs the workload once, as a ``repro`` invocation
would. This process starts the samples one at a time for ``--seconds``,
with a host-speed gauge process (``reference.py``) before and after
each, scales each sample's host seconds by the speed its two gauges
read, and reports medians. ``--trace
0`` samples run with nothing wrapped and give the end-to-end metrics;
``--trace 1`` alternates untraced and traced samples and gives the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fewest ``setup_s`` samples per run; set-up-only processes make up
#: the difference when the workload samples are fewer.
SETUP_SAMPLES = 5

#: Wall-clock limit of one sample process.
SAMPLE_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "sim_mreq_per_s": "Mreq/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run."""


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {SRC / 'repro'}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _run_json(script: str, *args: str):
    """Run ``perfbench/<script>`` in a fresh process; its last JSON line."""
    command = [sys.executable, str(Path(__file__).with_name(script)), *args]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_sample(workload: str, seed: int | None, mode: str) -> dict:
    """One ``perfbench/sample.py`` process; its parsed JSON output."""
    found = _run_json("sample.py", mode, workload,
                      "-" if seed is None else str(seed))
    origin = Path(found["origin"]).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"repro was imported from {origin}, not {SRC}")
    return found


def _gauge() -> list[float]:
    """One host-speed reading: kernel seconds from its own process."""
    return _run_json("reference.py")


def _speed(gauge: list[float]) -> float:
    """A gauge's host speed: ``reference.NOMINAL_S`` over its mean."""
    from perfbench.reference import NOMINAL_S

    return NOMINAL_S / statistics.mean(gauge)


# ---------------------------------------------------------------------------
# runs: samples for --seconds, then medians
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted/failed and the consistency problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict | None = None

    def add(self, found: dict, label: str) -> None:
        """Count one sample and compare it with the first one."""
        if "digest" in found:
            self.attempted += found["attempted"]
            self.failed += len(found["failures"])
            self.problems += [f"{label} {f}" for f in found["failures"]]
            self.problems += [f"{label}: wrapper left bound at {where}"
                              for where in found.get("leftover", ())]
        if self._first is None:
            self._first = found
            return
        for key in ("fingerprints", "digest", "accuracy"):
            if key in found and key in self._first \
                    and found[key] != self._first[key]:
                self.problems.append(f"{label}: {key} differs from the "
                                     "first sample's")

    @property
    def digest(self) -> str | None:
        return (self._first or {}).get("digest")

    @property
    def correct(self) -> bool:
        return not self.problems


class Sampler:
    """Starts sample processes one at a time until the time is up.

    A gauge process runs before the first sample and after every
    sample. Each sample gets a ``host_speed``: the mean speed of the
    gauges right before and right after it. Its raw host seconds times
    that speed are host-speed-normalised seconds.
    """

    def __init__(self, workload, seed, seconds) -> None:
        self.args = (workload, seed)
        self.seconds = seconds
        self.tally = Tally()
        self.started = time.perf_counter()
        self._spent: list[float] = []
        # Untimed: lets the bytecode cache fill where Python writes one.
        _run_sample(workload, seed, "setup")
        self.gauges = [_gauge()]

    def take(self, mode: str) -> dict:
        start = time.perf_counter()
        found = _run_sample(*self.args, mode)
        self.gauges.append(_gauge())
        found["host_speed"] = statistics.mean(
            _speed(gauge) for gauge in self.gauges[-2:])
        self.tally.add(found, f"{mode} sample {len(self._spent) + 1}")
        self._spent.append(time.perf_counter() - start)
        return found

    def time_left_for(self, samples: int) -> bool:
        """Whether ``samples`` more (of median length) fit in the time."""
        if not self._spent:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + samples * statistics.median(self._spent) \
            <= self.seconds


def measure_end_to_end(workload, seed, seconds):
    sampler = Sampler(workload, seed, seconds)
    runs = [sampler.take("run")]
    while sampler.time_left_for(1):
        runs.append(sampler.take("run"))
    setups = list(runs)
    while len(setups) < SETUP_SAMPLES:
        setups.append(sampler.take("setup"))
    walls = [r["wall_s"] * r["host_speed"] for r in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "sim_mreq_per_s": statistics.median(
            r["requests"] / wall / 1e6 for r, wall in zip(runs, walls)),
        "setup_s": statistics.median(
            s["setup_s"] * s["host_speed"] for s in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }
    units = dict(END_TO_END)
    for name, value in runs[0]["accuracy"].items():
        if name in ("paper_err", "engine_gap"):
            metrics[name] = value
            units[name] = "fraction"
    info = {
        "samples": len(runs),
        "raw wall_s per sample": _listing(r["wall_s"] for r in runs),
        "raw setup_s per sample": _listing(s["setup_s"] for s in setups),
        "host speed per sample": _listing(s["host_speed"] for s in setups),
        "digest": sampler.tally.digest,
    }
    return sampler.tally, metrics, units, tuple(END_TO_END), info


def measure_layers(workload, seed, seconds):
    from perfbench import layers

    sampler = Sampler(workload, seed, seconds)
    untraced, traced = [], []
    while not traced or sampler.time_left_for(2):
        untraced.append(sampler.take("run"))
        traced.append(sampler.take("traced"))
    per_sample = [{name: value * (found["host_speed"] if layers.unit(name)
                                  in ("s", "ns/req") else 1.0)
                   for name, value in found["layers"].items()}
                  for found in traced]
    metrics = {name: statistics.median(p[name] for p in per_sample)
               for name in per_sample[0]}
    twins = [r["timings"] for r in untraced if "twin_s" in r["timings"]]
    metrics["obs.overhead_frac"] = statistics.median(
        t["observed_s"] / t["twin_s"] - 1 for t in twins) if twins else 0.0
    metrics["harness.overhead_frac"] = (
        statistics.median(t["wall_s"] * t["host_speed"] for t in traced)
        / statistics.median(u["wall_s"] * u["host_speed"]
                            for u in untraced) - 1)
    metrics = {name: metrics[name] for name in layers.PER_LAYER}
    units = {name: layers.unit(name) for name in metrics}
    last = per_sample[-1]
    layer_s = sum(last[f"{span}_s"] for span in layers.LAYER_SPANS)
    info = {"samples": f"{len(untraced)} untraced + {len(traced)} traced",
            "host speed per traced sample": _listing(
                t["host_speed"] for t in traced),
            "digest": sampler.tally.digest,
            "spans": traced[-1]["spans"],
            "last traced sample": (
                f"layers {layer_s:.6f} s + unattributed "
                f"{last['harness.unattributed_frac']:.6f} x traced "
                f"{last['harness.traced_s']:.6f} s")}
    return sampler.tally, metrics, units, layers.PER_LAYER, info


def _listing(values) -> str:
    return " ".join(f"{value:.3f}" for value in values)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int | None, seconds: float,
                 trace: int) -> bool:
    """Measure one workload and print its metrics; whether it is correct."""
    from perfbench.workloads import WORKLOADS, typical_seed

    spec = WORKLOADS[name]
    chosen = None if seed is None else typical_seed(spec, seed)
    measure = measure_layers if trace else measure_end_to_end
    tally, metrics, units, keys, info = measure(name, chosen, seconds)
    print(f"workload {name} (seed "
          f"{'default' if seed is None else f'{seed}, workload seed {chosen}'}"
          f"): {spec.why}")
    for metric, value in metrics.items():
        print(f"  {metric:<28} {value:>16.6g} {units[metric]}")
    for key, value in info.items():
        print(f"  {key:<28} {value}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    for problem in tally.problems:
        print(f"  problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": metrics[metric],
                             "unit": units[metric]} for metric in keys},
    }), flush=True)
    return tally.correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="fig5-st, xval-db or observed-drift "
                             "(default: all of them, one after another)")
    parser.add_argument("--seed", type=int, default=None,
                        help="benchmark seed; it picks the workload seed "
                             "(see workloads.typical_seed; default: each "
                             "trace generator's own seed)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="time budget of a workload's run, its "
                             "untimed first set-up process included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced "
                             "samples")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        _use_checkout_sources()
        from perfbench.workloads import WORKLOADS

        if args.workload is not None and args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; expected "
                         f"one of {', '.join(WORKLOADS)}")
        if args.workload is not None:
            run_workload(args.workload, args.seed, args.seconds, args.trace)
            return 0
        correct = [run_workload(name, args.seed, args.seconds, args.trace)
                   for name in WORKLOADS]
        return 0 if all(correct) else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
