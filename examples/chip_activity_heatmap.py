"""Visualising what the techniques do to the chips.

Renders text heatmaps of per-chip activity over time — one row per chip,
darker means busier — for the baseline and for DMA-TA-PL on the same
trace. Under the baseline, traffic speckles all 32 rows and each chip
pays wake-ups and active-idle gaps; with PL the popular pages converge
onto the first chip(s), whose row darkens while the rest fade, and
DMA-TA fuses the remaining speckles into dense aligned bursts.

Run:  python examples/chip_activity_heatmap.py
"""

from repro import simulate, synthetic_storage_trace
from repro.analysis.timeline import (activity_share, busy_intervals,
                                     render_heatmap)
from repro.obs import RingTracer


def main() -> None:
    trace = synthetic_storage_trace(duration_ms=10.0, seed=6)

    # The chips' trace spans say when each one was busy.
    base_spans, tapl_spans = RingTracer(), RingTracer()
    baseline = simulate(trace, technique="baseline", tracer=base_spans)
    aligned = simulate(trace, technique="dma-ta-pl", cp_limit=0.10,
                       tracer=tapl_spans)
    base_timeline = busy_intervals(base_spans.events)
    tapl_timeline = busy_intervals(tapl_spans.events)

    print(render_heatmap(base_timeline, baseline.duration_cycles,
                         width=70, title="baseline: traffic on all chips"))
    print()
    print(render_heatmap(tapl_timeline, aligned.duration_cycles,
                         width=70,
                         title="DMA-TA-PL @ 10%: hot pages clustered, "
                               "bursts aligned"))

    base_shares = activity_share(base_timeline, baseline.duration_cycles)
    tapl_shares = activity_share(tapl_timeline, aligned.duration_cycles)
    hottest = max(tapl_shares, key=tapl_shares.get)
    print(f"\nhottest chip under PL: chip {hottest} "
          f"({tapl_shares[hottest]:.0%} busy vs "
          f"{base_shares[hottest]:.0%} in the baseline)")
    print(f"energy: {baseline.energy_joules * 1e3:.3f} mJ -> "
          f"{aligned.energy_joules * 1e3:.3f} mJ "
          f"({aligned.energy_savings_vs(baseline):+.1%})")


if __name__ == "__main__":
    main()
