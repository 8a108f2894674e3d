"""Trace tooling: generate, save, reload, clip, merge, and validate.

Traces are the interface between workload collection and the simulator.
This example shows the whole lifecycle, including the engine
cross-validation a careful user runs before trusting a sweep: the fluid
(fast) engine against the per-request (reference) engine on a clip of
the trace.

Run:  python examples/trace_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import (
    characterize,
    merge_traces,
    read_trace,
    simulate,
    synthetic_database_trace,
    synthetic_storage_trace,
    write_trace,
)
from repro.analysis.tables import format_table


def main() -> None:
    # Generate and persist.
    storage = synthetic_storage_trace(duration_ms=8.0, seed=3)
    database = synthetic_database_trace(duration_ms=8.0, seed=4,
                                        transfers_per_ms=40.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "storage.jsonl"
        write_trace(storage, path)
        print(f"wrote {path.stat().st_size / 1024:.0f} KiB "
              f"({len(storage)} records)")
        reloaded = read_trace(path)
        assert reloaded.records == storage.records, "round trip failed"
        print("round trip: OK")

    # Clip and merge. Client-request ids collide across independently
    # generated traces, so the merge renumbers them: the mix keeps a
    # client table and can still calibrate a CP-Limit.
    mixed = merge_traces([storage.clipped(4.0e6), database.clipped(4.0e6)],
                         name="mixed")
    rows = []
    for trace in (storage, database, mixed):
        stats = characterize(trace)
        rows.append([trace.name, f"{stats.duration_ms:.1f}",
                     stats.transfers, f"{stats.proc_accesses_per_ms:.0f}"])
    print()
    print(format_table(["trace", "ms", "transfers", "proc/ms"], rows,
                       title="Generated traces"))

    # Cross-validate the engines on a short clip before a big sweep.
    clip = storage.clipped(2.0e6)
    fluid = simulate(clip, technique="baseline", engine="fluid")
    precise = simulate(clip, technique="baseline", engine="precise")
    delta = abs(1 - fluid.energy_joules / precise.energy_joules)
    print(f"\nengine cross-check on a {clip.duration_cycles / 1.6e6:.1f} ms "
          f"clip: fluid={fluid.energy_joules * 1e3:.4f} mJ, "
          f"precise={precise.energy_joules * 1e3:.4f} mJ "
          f"(delta {delta:.2%})")
    assert delta < 0.05
    print("fluid engine validated - safe to sweep with it")


if __name__ == "__main__":
    main()
