"""repro.bench — machine-readable bench records and regression gates.

The performance-and-fidelity observatory on top of :mod:`repro.obs`:

* **record** (:mod:`repro.bench.record`) — the versioned JSON schema one
  bench run emits: regenerated series values next to the paper's
  published numbers (with relative deviation), per-phase wall-clock,
  cache traffic, run metadata, and the summed wall-clock ledgers of the
  simulations it computed.
* **trajectory** (:mod:`repro.bench.trajectory`) — the committed
  ``BENCH_<figure>.json`` run histories at the repository root, written
  atomically.
* **compare** (:mod:`repro.bench.compare`) — robust classification
  (median / MAD noise bands, per-figure tolerances) of a fresh run
  against the trajectory, for both wall-time and paper fidelity.
* **report** (:mod:`repro.bench.report`) — a self-contained HTML report
  with per-figure trajectory sparklines.
* **cli** (:mod:`repro.bench.cli`) — the ``repro bench
  run | compare | update-baseline | report`` verbs.

See ``docs/BENCHMARKS.md`` for the schema, the tolerance policy, and
the baseline-update workflow.
"""

from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    FIGURE_TOLERANCES,
    IMPROVED,
    NO_BASELINE,
    REGRESSED,
    UNCHANGED,
    Comparison,
    Tolerance,
    Verdict,
    classify,
    compare_records,
    mad,
    median,
    render_comparison,
)
from repro.bench.record import (
    SCHEMA_VERSION,
    BenchRecord,
    Metric,
    Phase,
)
from repro.bench.report import merge_current, render_report, write_report
from repro.bench.trajectory import (
    append_records,
    load_all_trajectories,
    load_result_records,
    load_trajectory,
    trajectory_path,
    write_json_atomic,
)

__all__ = [
    # record
    "SCHEMA_VERSION", "BenchRecord", "Metric", "Phase",
    # trajectory
    "trajectory_path", "write_json_atomic", "load_trajectory",
    "append_records", "load_all_trajectories", "load_result_records",
    # compare
    "IMPROVED", "UNCHANGED", "REGRESSED", "NO_BASELINE",
    "Tolerance", "DEFAULT_TOLERANCE", "FIGURE_TOLERANCES",
    "median", "mad", "classify", "Verdict", "Comparison",
    "compare_records", "render_comparison",
    # report
    "render_report", "write_report", "merge_current",
]
