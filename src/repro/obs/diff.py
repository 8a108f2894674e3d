"""Differential observability: epoch digests, first-divergence bisection,
and root-cause reports.

The repo's correctness story is a stack of bit-exactness guarantees
(precise vs ``precise-scalar``, telemetered vs untelemetered, fleet vs
serial). When one of them breaks, an end-of-run assertion says *that*
two runs disagree but not *where*. This module answers the "where":

* :class:`DigestRecorder` — a read-only per-epoch probe (like
  :class:`~repro.obs.telemetry.TelemetrySampler`, see
  :mod:`repro.obs.probe`) that folds the shared snapshot of the run's
  observable state — per-chip residency buckets,
  energy-to-date and instantaneous power, the slack account, bus
  queues, degradation-to-date — into a rolling **blake2b chain**. Each
  snapshot is hashed as its values packed as little-endian IEEE-754
  doubles, so the payload is the bit pattern itself: one ULP (or the
  sign of a zero) in any field changes the chain. Two runs evolve
  identical chains for exactly as long as their observable state is
  identical, so the first chain mismatch brackets the first divergent
  epoch.
* :class:`DigestStore` — a bounded ring of ``(tick, ts, chain)`` rows,
  the :class:`~repro.obs.probe.DownsamplingRing` that ``TelemetryStore``
  also keeps its rows in: O(capacity) memory regardless of trace
  length, and the retained ticks stay an evenly spaced subsample, so
  chain comparison still brackets the divergence after compaction.
* :func:`diff_runs` — runs two :class:`~repro.exec.jobs.SimJob` sides
  (or takes one side as a saved trail), compares their chains,
  binary-searches the retained ticks for the first mismatch (chains
  have the prefix property: once diverged, forever diverged), re-runs
  both jobs with full per-epoch state capture across the bracket, and
  reports the first divergent **field** (chip bucket / slack / bus /
  degradation), the two values, and the trace-event causes active in
  that window. The ``repro diff`` CLI, ``repro bench explain`` and the
  exactness tests all build on it.
* :func:`result_delta` — field-by-field first differences of two
  :class:`~repro.sim.results.SimulationResult` objects, for failure
  messages that name the disagreeing quantity instead of dumping two
  giant dicts.

The recorder is strictly observational (the snapshot comes from
``chip.observe`` and never touches accrual), rides the PROBE event kind
that both engines exclude from their progress horizon, and cuts the
array-timeline kernel's batching windows exactly like telemetry does —
so a digest-enabled run is bit-identical in energy/time/duration to a
disabled one (gated by ``tests/integration/test_digest_equivalence.py``).

Fault injection: ``DigestConfig(inject_skew_epoch=N)`` adds phantom
cycles to the *observed* degradation at digest epoch ``N`` only (the
simulation is untouched, like telemetry's ``inject_spike``) — passed as
one side's config to :func:`diff_runs`, it lets tests and the CI
divergence drill prove the bisection localises a perturbation to
exactly the injected epoch.

This module takes jobs but does not import :mod:`repro.exec`, which
imports the simulator; a job is only ever asked to ``run``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.energy.accounting import BUCKETS as RESIDENCY_BUCKETS
from repro.errors import ConfigurationError, DiffError
from repro.obs.probe import (
    SNAPSHOT_SCALARS,
    DownsamplingRing,
    probe_period,
    snapshot_fields,
)

if TYPE_CHECKING:  # pragma: no cover - repro.exec imports the simulator
    from repro.exec.jobs import SimJob

#: Bump when the trail serialisation layout or the chain payload
#: changes incompatibly. Version 2 hashes packed doubles where version
#: 1 hashed ``repr`` text, so version-1 chains cannot match.
TRAIL_VERSION = 2

#: Run-wide scalar fields, in digest order (per-chip and per-bus blocks
#: follow them; see :func:`repro.obs.probe.snapshot_fields`).
SCALAR_FIELDS = SNAPSHOT_SCALARS


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DigestConfig:
    """Recorder parameters.

    Attributes:
        epoch_cycles: digest period in memory cycles. ``None`` (the
            default) uses the run's DMA-TA epoch length when the
            controller has one, else ``config.alignment.epoch_cycles``
            — so "per-epoch" is literal under DMA-TA and
            epoch-equivalent otherwise.
        capacity: ring rows kept; on overflow every other row is
            dropped and the acceptance stride doubles (the
            ``TelemetryStore`` discipline).
        capture_range: inclusive ``(lo, hi)`` digest-tick range over
            which the recorder keeps a **full** field-by-field
            :class:`EpochCapture` per epoch (every tick in range, not
            just retained ones). The bisection re-run uses this to turn
            a chain bracket into a named field.
        inject_skew_epoch: fault injection — add
            :attr:`inject_skew_cycles` phantom cycles to the *observed*
            degradation at exactly this digest tick (the simulation is
            untouched). ``None`` disables.
        inject_skew_cycles: size of the injected skew.
    """

    epoch_cycles: float | None = None
    capacity: int = 4096
    capture_range: tuple[int, int] | None = None
    inject_skew_epoch: int | None = None
    inject_skew_cycles: float = 1.0

    def __post_init__(self) -> None:
        if self.epoch_cycles is not None and self.epoch_cycles <= 0:
            raise ConfigurationError("epoch_cycles must be positive")
        if self.capacity < 8 or self.capacity % 2:
            raise ConfigurationError("capacity must be an even number >= 8")
        if self.capture_range is not None:
            lo, hi = self.capture_range
            if lo < 0 or hi < lo:
                raise ConfigurationError(
                    f"capture_range {self.capture_range} must satisfy "
                    "0 <= lo <= hi")
        if self.inject_skew_epoch is not None and self.inject_skew_epoch < 0:
            raise ConfigurationError("inject_skew_epoch must be >= 0")


# ---------------------------------------------------------------------------
# Bounded chain store
# ---------------------------------------------------------------------------

class DigestStore(DownsamplingRing):
    """Bounded ring of ``(tick, ts, chain)`` rows.

    A :class:`~repro.obs.probe.DownsamplingRing`: row ``i`` always holds
    the digest of tick ``i * stride``, and the stride evolution depends
    only on the tick count, so two runs with equal epoch counts retain
    exactly the same tick subset and chain comparison stays aligned
    after compaction.
    """

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(capacity)

    def append(self, ts: float, chain: str) -> bool:
        """Offer one digest; returns True if the row was retained."""
        return super().append((self.ticks, ts, chain))


# ---------------------------------------------------------------------------
# Trails and captures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochCapture:
    """One epoch's full field vector (bisection re-runs only)."""

    tick: int
    ts: float
    fields: dict[str, float]
    chain: str


@dataclass
class DigestTrail:
    """The digest output of one run (plain data, picklable).

    Attached to :attr:`repro.sim.results.SimulationResult.digests` when
    the run carried a recorder, and serialisable to JSON for
    ``repro diff --save`` / ``--against``.
    """

    label: str
    epoch_cycles: float
    fields: tuple[str, ...]
    ticks: int
    stride: int
    chain_tip: str
    rows: list[tuple[int, float, str]]
    captures: list[EpochCapture] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": TRAIL_VERSION,
            "label": self.label,
            "epoch_cycles": self.epoch_cycles,
            "fields": list(self.fields),
            "ticks": self.ticks,
            "stride": self.stride,
            "chain_tip": self.chain_tip,
            "rows": [[tick, ts, chain] for tick, ts, chain in self.rows],
        }

    @classmethod
    def from_dict(cls, obj: Any, where: str = "trail") -> "DigestTrail":
        if not isinstance(obj, Mapping):
            raise DiffError(f"{where}: not a JSON object")
        if obj.get("version") != TRAIL_VERSION:
            raise DiffError(
                f"{where}: trail version {obj.get('version')!r} is not "
                f"the supported version {TRAIL_VERSION}")
        rows_raw = obj.get("rows")
        if not isinstance(rows_raw, list):
            raise DiffError(f"{where}: rows is not an array")
        rows: list[tuple[int, float, str]] = []
        for index, entry in enumerate(rows_raw):
            if (not isinstance(entry, Sequence) or len(entry) != 3
                    or isinstance(entry, (str, bytes))):
                raise DiffError(f"{where}: rows[{index}] is not a "
                                "[tick, ts, chain] triple")
            tick, ts, chain = entry
            if not isinstance(tick, int) or not isinstance(chain, str) \
                    or not isinstance(ts, (int, float)):
                raise DiffError(f"{where}: rows[{index}] has bad types")
            rows.append((tick, float(ts), chain))
        try:
            return cls(
                label=str(obj.get("label", "")),
                epoch_cycles=float(obj["epoch_cycles"]),
                fields=tuple(str(f) for f in obj.get("fields", [])),
                ticks=int(obj["ticks"]),
                stride=int(obj.get("stride", 1)),
                chain_tip=str(obj.get("chain_tip", "")),
                rows=rows,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DiffError(f"{where}: malformed trail ({exc})") from exc


def write_trail(trail: DigestTrail, path: str | Path) -> Path:
    """Serialise a trail to JSON (for later ``repro diff --against``)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(trail.as_dict(), handle)
    return path


def read_trail(path: str | Path) -> DigestTrail:
    """Load a trail written by :func:`write_trail`."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DiffError(f"{path}: not valid JSON ({exc})") from exc
    return DigestTrail.from_dict(obj, where=str(path))


# ---------------------------------------------------------------------------
# The recorder
# ---------------------------------------------------------------------------

class DigestRecorder:
    """Per-epoch state-digest recorder attached to one engine run.

    Pass an instance as ``simulate(..., digests=recorder)``. It is a
    probe (:mod:`repro.obs.probe`): the engine calls :meth:`bind` at
    construction and :meth:`sample` with the shared snapshot at each of
    the recorder's epochs plus once at the end of the run. Single-use —
    bind a fresh one per run.
    """

    def __init__(self, config: DigestConfig | None = None) -> None:
        self.config = config or DigestConfig()
        self.store: DigestStore | None = None
        self.fields: tuple[str, ...] = ()
        self.captures: list[EpochCapture] = []
        self.label = ""
        self.sample_cycles = 0.0
        self._chain = b""
        self._chain_hex = ""
        self._pack: struct.Struct | None = None

    # --- binding ----------------------------------------------------------

    def bind(self, engine) -> None:
        """Attach to an engine (fluid or precise) before its run starts."""
        if self.store is not None:
            raise DiffError(
                "DigestRecorder is single-use: already bound to a run")
        self.label = engine.name
        self.sample_cycles = probe_period(engine, self.config.epoch_cycles)
        self.fields = snapshot_fields(engine.config)
        self._pack = struct.Struct(f"<{len(self.fields)}d")
        self.store = DigestStore(capacity=self.config.capacity)

    # --- sampling ---------------------------------------------------------

    def sample(self, snapshot: tuple[float, ...]) -> None:
        """Fold one probe snapshot (laid out as :attr:`fields`) into the
        chain."""
        store = self.store
        if store is None:
            raise DiffError("sample() before bind(): attach the recorder "
                            "via simulate(digests=...)")
        tick = store.ticks
        values = snapshot
        if tick == self.config.inject_skew_epoch:
            # Observed-series fault only: the simulation is untouched.
            values = list(snapshot)
            values[SCALAR_FIELDS.index("degradation_cycles")] += (
                self.config.inject_skew_cycles)

        # The payload is the values' bit patterns: any ULP of state
        # difference flips the chain from this epoch onward.
        payload = self._pack.pack(*values)
        digest = hashlib.blake2b(self._chain + payload, digest_size=16)
        self._chain = digest.digest()
        self._chain_hex = digest.hexdigest()
        store.append(values[0], self._chain_hex)

        capture = self.config.capture_range
        if capture is not None and capture[0] <= tick <= capture[1]:
            self.captures.append(EpochCapture(
                tick=tick, ts=values[0],
                fields=dict(zip(self.fields, values)),
                chain=self._chain_hex))

    def close(self) -> None:  # symmetry with TelemetrySampler
        pass

    def trail(self) -> DigestTrail:
        """The run's trail (call after the run completed)."""
        if self.store is None:
            raise DiffError("trail() before bind()")
        return DigestTrail(
            label=self.label,
            epoch_cycles=self.sample_cycles,
            fields=self.fields,
            ticks=self.store.ticks,
            stride=self.store.stride,
            chain_tip=self._chain_hex,
            rows=self.store.rows(),
            captures=list(self.captures),
        )


# ---------------------------------------------------------------------------
# Chain comparison (the bisection)
# ---------------------------------------------------------------------------

def first_divergent_bracket(
        trail_a: DigestTrail,
        trail_b: DigestTrail) -> tuple[int, int] | None:
    """Tick bracket ``(lo, hi)`` containing the first divergence.

    ``None`` means the trails are identical (same epoch count, same
    chain tip — the tip transitively covers every epoch). Otherwise the
    first divergent epoch lies in ``[lo, hi]`` where ``hi`` is the first
    *retained* tick whose chains differ; the binary search exploits the
    chain prefix property (equal chain at tick t ⇒ equal state at every
    epoch ≤ t).
    """
    chains_a = {tick: chain for tick, _ts, chain in trail_a.rows}
    chains_b = {tick: chain for tick, _ts, chain in trail_b.rows}
    common = sorted(chains_a.keys() & chains_b.keys())

    def diverged(tick: int) -> bool:
        return chains_a[tick] != chains_b[tick]

    if not common or not diverged(common[-1]):
        # Every retained common chain agrees (or none are comparable).
        if (trail_a.ticks == trail_b.ticks
                and trail_a.chain_tip == trail_b.chain_tip
                and trail_a.ticks > 0):
            return None
        lo = common[-1] + 1 if common else 0
        hi = max(trail_a.ticks, trail_b.ticks) - 1
        return (lo, max(lo, hi))
    lo_i, hi_i = 0, len(common) - 1
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if diverged(common[mid]):
            hi_i = mid
        else:
            lo_i = mid + 1
    first_bad = common[lo_i]
    lo = common[lo_i - 1] + 1 if lo_i > 0 else 0
    return (lo, first_bad)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDivergence:
    """The first divergent (epoch, field) pair of a capture re-run."""

    tick: int
    ts_a: float
    ts_b: float
    name: str
    value_a: float | None
    value_b: float | None


@dataclass
class DivergenceReport:
    """Everything one diff pass established."""

    identical: bool
    label_a: str
    label_b: str
    ticks_a: int
    ticks_b: int
    epoch_cycles: float
    #: "field" (full attribution), "chain" (bracket only — e.g. when
    #: diffing against a saved trail that cannot be re-run), or
    #: "identical".
    mode: str
    bracket: tuple[int, int] | None = None
    divergence: FieldDivergence | None = None
    chain_tip: str = ""
    causes_a: dict[str, int] = field(default_factory=dict)
    causes_b: dict[str, int] = field(default_factory=dict)
    #: The two trails compared (``repro diff --save`` writes run A's).
    trail_a: DigestTrail | None = field(default=None, repr=False)
    trail_b: DigestTrail | None = field(default=None, repr=False)

    @property
    def epoch(self) -> int | None:
        """The first divergent epoch, when it is exactly known."""
        if self.divergence is not None:
            return self.divergence.tick
        if self.bracket is not None and self.bracket[0] == self.bracket[1]:
            return self.bracket[0]
        return None

    def summary_line(self) -> str:
        """The one-line greppable verdict (``diff.divergence:`` /
        ``diff.identical:``), mirroring ``fleet.stall:``."""
        if self.identical:
            return (f"diff.identical: epochs={self.ticks_a} "
                    f"chain={self.chain_tip}")
        if self.divergence is not None:
            d = self.divergence
            return (f"diff.divergence: epoch={d.tick} field={d.name} "
                    f"a={_fmt(d.value_a)} b={_fmt(d.value_b)} "
                    f"ts={d.ts_a:g}")
        lo, hi = self.bracket or (0, 0)
        return (f"diff.divergence: epoch={hi} bracket={lo}..{hi} "
                "field=unresolved (chain-level comparison)")

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [f"digest diff: {self.label_a} vs {self.label_b} "
                 f"(epoch = {self.epoch_cycles:g} cycles)"]
        lines.append(f"  epochs: a={self.ticks_a} b={self.ticks_b}")
        if self.identical:
            lines.append(f"  chains identical (tip {self.chain_tip})")
            return "\n".join(lines)
        if self.bracket is not None:
            lo, hi = self.bracket
            lines.append(f"  chains first diverge in epoch bracket "
                         f"[{lo}, {hi}]")
        if self.divergence is not None:
            d = self.divergence
            lines.append(f"  first divergent epoch: {d.tick} "
                         f"(ts a={d.ts_a:g}, b={d.ts_b:g})")
            delta = ""
            if d.value_a is not None and d.value_b is not None:
                delta = f"  (delta {d.value_b - d.value_a:+g})"
            lines.append(f"  first divergent field: {d.name}  "
                         f"a={_fmt(d.value_a)}  b={_fmt(d.value_b)}"
                         f"{delta}")
        else:
            lines.append("  field attribution unavailable (chain-level "
                         "comparison only — re-run both sides to "
                         "attribute)")
        for label, causes in ((self.label_a, self.causes_a),
                              (self.label_b, self.causes_b)):
            if causes:
                top = sorted(causes.items(), key=lambda kv: (-kv[1], kv[0]))
                summary = ", ".join(f"{name} x{count}"
                                    for name, count in top[:8])
                lines.append(f"  window causes ({label}): {summary}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "identical": self.identical,
            "mode": self.mode,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "ticks_a": self.ticks_a,
            "ticks_b": self.ticks_b,
            "epoch_cycles": self.epoch_cycles,
            "epoch": self.epoch,
        }
        if self.bracket is not None:
            out["bracket"] = list(self.bracket)
        if self.divergence is not None:
            d = self.divergence
            out["divergence"] = {
                "epoch": d.tick, "ts_a": d.ts_a, "ts_b": d.ts_b,
                "field": d.name, "value_a": d.value_a,
                "value_b": d.value_b,
            }
        if self.chain_tip:
            out["chain_tip"] = self.chain_tip
        if self.causes_a:
            out["causes_a"] = dict(self.causes_a)
        if self.causes_b:
            out["causes_b"] = dict(self.causes_b)
        return out


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:g}"


def _first_capture_divergence(
        captures_a: Sequence[EpochCapture],
        captures_b: Sequence[EpochCapture],
        fields: Sequence[str]) -> FieldDivergence | None:
    by_tick_a = {c.tick: c for c in captures_a}
    by_tick_b = {c.tick: c for c in captures_b}
    for tick in sorted(by_tick_a.keys() | by_tick_b.keys()):
        cap_a = by_tick_a.get(tick)
        cap_b = by_tick_b.get(tick)
        if cap_a is None or cap_b is None:
            # One run ran out of epochs inside the bracket.
            present = cap_a or cap_b
            return FieldDivergence(
                tick=tick,
                ts_a=cap_a.ts if cap_a else math.nan,
                ts_b=cap_b.ts if cap_b else math.nan,
                name="(epoch missing: runs have different lengths)",
                value_a=cap_a.ts if cap_a else None,
                value_b=cap_b.ts if cap_b else None)
        for name in fields:
            va = cap_a.fields.get(name)
            vb = cap_b.fields.get(name)
            if va != vb:
                return FieldDivergence(tick=tick, ts_a=cap_a.ts,
                                       ts_b=cap_b.ts, name=name,
                                       value_a=va, value_b=vb)
    return None


def _window_causes(tracer, lo_ts: float, hi_ts: float) -> dict[str, int]:
    """Event-name counts inside the divergence window ``(lo, hi]``."""
    if tracer is None:
        return {}
    counts: dict[str, int] = {}
    for event in tracer.events:
        if lo_ts < event.ts <= hi_ts:
            counts[event.name] = counts.get(event.name, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# The diff driver
# ---------------------------------------------------------------------------

def _run_label(job: "SimJob", digests: DigestConfig) -> str:
    """How a diff report names a job: ``engine/technique [cp=|mu=]
    seed=N``, plus ``+skew@E`` when its digests carry an injected skew."""
    knob = ""
    if job.cp_limit is not None:
        knob = f" cp={job.cp_limit:g}"
    elif job.mu is not None:
        knob = f" mu={job.mu:g}"
    skew = ""
    if digests.inject_skew_epoch is not None:
        skew = f" +skew@{digests.inject_skew_epoch}"
    return f"{job.engine}/{job.technique}{knob} seed={job.seed}{skew}"


def _trail(side: "SimJob | DigestTrail", config: DigestConfig,
           tracer=None) -> DigestTrail:
    """A side's trail: a saved one as it is, a job's by running it with
    a fresh recorder."""
    if isinstance(side, DigestTrail):
        return side
    return side.run(tracer=tracer, digests=DigestRecorder(config)).digests


def diff_runs(run_a: "SimJob | DigestTrail",
              run_b: "SimJob | DigestTrail",
              *,
              label_a: str | None = None,
              label_b: str | None = None,
              digests: DigestConfig | None = None,
              digests_b: DigestConfig | None = None,
              collect_causes: bool = True,
              tracer_a=None,
              tracer_b=None) -> DivergenceReport:
    """Compare two runs' digest chains and localise the divergence.

    Each side is a :class:`~repro.exec.jobs.SimJob`, run here with a
    fresh :class:`DigestRecorder`, or a saved :class:`DigestTrail`
    (``repro diff --against``). A saved trail cannot be re-run, so a
    diff against one stops at chain level (no field attribution).

    Args:
        run_a / run_b: the two sides.
        label_a / label_b: report names; by default a job's
            ``engine/technique [cp=|mu=] seed=N`` (``+skew@E`` with an
            injected skew), ``run A`` / ``run B`` for a trail.
        digests: the recorder config of run A, and of run B unless
            ``digests_b`` is given (an injected skew rides run B's).
        collect_causes: trace the capture re-runs with a
            :class:`~repro.obs.tracer.RingTracer` and count the event
            names inside the divergence window.
        tracer_a / tracer_b: optional tracers attached to the *initial*
            runs (the CLI uses this for the aligned Perfetto export).
    """
    config_a = digests or DigestConfig()
    config_b = digests_b or config_a
    trail_a = _trail(run_a, config_a, tracer_a)
    trail_b = _trail(run_b, config_b, tracer_b)
    if label_a is None:
        label_a = ("run A" if isinstance(run_a, DigestTrail)
                   else _run_label(run_a, config_a))
    if label_b is None:
        label_b = ("run B" if isinstance(run_b, DigestTrail)
                   else _run_label(run_b, config_b))

    common = dict(label_a=label_a, label_b=label_b,
                  ticks_a=trail_a.ticks, ticks_b=trail_b.ticks,
                  epoch_cycles=trail_a.epoch_cycles,
                  trail_a=trail_a, trail_b=trail_b)
    bracket = first_divergent_bracket(trail_a, trail_b)
    if bracket is None:
        return DivergenceReport(identical=True, mode="identical",
                                chain_tip=trail_a.chain_tip, **common)
    if isinstance(run_a, DigestTrail) or isinstance(run_b, DigestTrail):
        return DivergenceReport(identical=False, mode="chain",
                                bracket=bracket, **common)

    # Re-run both sides with full state capture across the bracket
    # (one epoch earlier as the known-good anchor) and attribute the
    # first divergent field.
    lo, hi = bracket
    capture = (max(0, lo - 1), hi)
    ring_a = ring_b = None
    if collect_causes:
        from repro.obs.tracer import RingTracer

        ring_a, ring_b = RingTracer(), RingTracer()
    capture_a = _trail(run_a, replace(config_a, capture_range=capture),
                       ring_a)
    capture_b = _trail(run_b, replace(config_b, capture_range=capture),
                       ring_b)
    divergence = _first_capture_divergence(
        capture_a.captures, capture_b.captures, capture_a.fields)
    if divergence is None:
        # Retained chains disagreed but every captured field matches —
        # only possible when the runs were not reproduced faithfully.
        return DivergenceReport(identical=False, mode="chain",
                                bracket=bracket, **common)
    prior = [c.ts for c in capture_a.captures
             if c.tick < divergence.tick]
    window_lo = max(prior) if prior else 0.0
    window_hi = max(v for v in (divergence.ts_a, divergence.ts_b)
                    if not math.isnan(v))
    return DivergenceReport(
        identical=False, mode="field", bracket=bracket,
        divergence=divergence,
        causes_a=_window_causes(ring_a, window_lo, window_hi),
        causes_b=_window_causes(ring_b, window_lo, window_hi),
        **common)


# ---------------------------------------------------------------------------
# Result deltas (exactness-test failure messages)
# ---------------------------------------------------------------------------

def result_delta(a, b, limit: int = 12) -> list[str]:
    """First field-by-field differences of two results (or plain data).

    Walks the two objects structurally (dataclasses via ``__dict__``,
    mappings, sequences) and returns up to ``limit`` human-readable
    ``path: a=<x> b=<y>`` lines — the failure-message companion of
    :func:`diff_runs` for end-of-run comparisons.
    """
    lines: list[str] = []

    def walk(path: str, va, vb) -> None:
        if len(lines) >= limit:
            return
        if va is vb:
            return
        if isinstance(va, Mapping) and isinstance(vb, Mapping):
            for key in sorted(set(va) | set(vb), key=str):
                walk(f"{path}[{key!r}]", va.get(key), vb.get(key))
            return
        if (isinstance(va, (list, tuple)) and isinstance(vb, (list, tuple))):
            if len(va) != len(vb):
                lines.append(f"{path}: lengths differ a={len(va)} "
                             f"b={len(vb)}")
                return
            for index, (xa, xb) in enumerate(zip(va, vb)):
                walk(f"{path}[{index}]", xa, xb)
            return
        if hasattr(va, "__dict__") and hasattr(vb, "__dict__") \
                and type(va) is type(vb):
            for key in va.__dict__:
                walk(f"{path}.{key}" if path else key,
                     va.__dict__[key], vb.__dict__.get(key))
            return
        if va != vb:
            lines.append(f"{path}: a={va!r} b={vb!r}")

    walk("", a, b)
    return lines


def render_result_delta(a, b, label_a: str = "a", label_b: str = "b",
                        limit: int = 12) -> str:
    """Failure-message text naming the first disagreeing result fields."""
    lines = result_delta(a, b, limit=limit)
    if not lines:
        return f"results of {label_a} and {label_b} are identical"
    head = (f"results diverged ({label_a} vs {label_b}); first "
            f"{len(lines)} differing field(s):")
    return "\n".join([head] + [f"  {line}" for line in lines])


__all__ = [
    "TRAIL_VERSION", "RESIDENCY_BUCKETS", "SCALAR_FIELDS",
    "DigestConfig", "DigestStore", "DigestRecorder",
    "DigestTrail", "EpochCapture", "write_trail", "read_trail",
    "first_divergent_bracket", "FieldDivergence", "DivergenceReport",
    "diff_runs",
    "result_delta", "render_result_delta",
]
