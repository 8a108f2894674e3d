"""The command-line contract: result line, traced metrics, gauge, missing
sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import layers
from perfbench.reference import REPEATS
from perfbench.run import END_TO_END, _gauge, _run_sample

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          check=False)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_samples_repeat_exactly_and_tracing_is_invisible():
    # Each sample is a fresh process: same seed, same outputs.
    first = _run_sample("observed-drift", 3, "run")
    again = _run_sample("observed-drift", 3, "run")
    traced = _run_sample("observed-drift", 3, "traced")
    assert first["failures"] == traced["failures"] == []
    assert first["digest"] == again["digest"] == traced["digest"]
    assert first["accuracy"] == again["accuracy"] == traced["accuracy"]
    assert first["fingerprints"] == traced["fingerprints"]
    assert traced["leftover"] == []
    other = _run_sample("observed-drift", 4, "setup")
    assert other["fingerprints"] != first["fingerprints"]


def test_gauge_runs_apart_from_the_simulator():
    times = _gauge()
    assert len(times) == REPEATS and all(t > 0 for t in times)
    probe = ("import runpy, sys; runpy.run_path('perfbench/reference.py', "
             "run_name='__main__'); print(sorted(name for name in sys.modules"
             " if name.split('.')[0] in ('repro', 'perfbench')))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_untraced_run_prints_every_end_to_end_metric():
    result = _result(_run("--workload", "observed-drift", "--seed", "5",
                          "--seconds", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    done = _run("--workload", "fig5-st", "--seconds", "0", "--trace", "1")
    result = _result(done)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (22, 0)
    assert list(result["metrics"]) == list(layers.PER_LAYER)
    assert (ROOT / ".perfbench" / "spans-fig5-st.npz").is_file()


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "fig5-st", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(
        END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [
        layers.unit(name) for name in layers.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
