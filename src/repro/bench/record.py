"""The versioned bench-record schema.

One bench run of one figure produces one :class:`BenchRecord`: the
regenerated series values next to the paper's expected numbers (and the
relative deviation between them), the wall-clock spent per phase, the
result-cache traffic, run metadata, and the summed wall-clock ledgers
of the simulations it computed. Records serialise to JSON
(``benchmarks/results/<name>.json``) and accumulate into the root-level
``BENCH_<figure>.json`` trajectory files that :mod:`repro.bench.compare`
diffs against.

The schema is versioned (:data:`SCHEMA_VERSION`): loaders reject records
from a different schema generation with a clear
:class:`~repro.errors.BenchFormatError` instead of silently comparing
incompatible quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import BenchFormatError

#: Bump whenever the record layout changes incompatibly.
#: v2: records carry an ``audit`` block (result-invariant findings from
#: :func:`repro.obs.audit.audit_result` over the session's runs).
SCHEMA_VERSION = 2

#: Guard against division blow-ups for paper-expected values near zero.
_EXPECTED_EPS = 1e-12

#: Trace duration of a ``repro bench run --quick`` smoke run, in ms.
#: Records at or below this duration are marked as quick in the compare
#: output and the HTML report: short traces are known to deviate on some
#: figures (fig 5 quick-mode, see ROADMAP) and must not be read as
#: fidelity regressions.
QUICK_BENCH_MS = 5.0


@dataclass(frozen=True)
class Metric:
    """One regenerated series value, optionally tied to a paper number.

    Attributes:
        name: series point name, e.g. ``"OLTP-St/dma-ta/cp=10%"``.
        value: the regenerated value.
        unit: free-form unit label (``"fraction"``, ``"mJ"``, ``"uf"``,
            ``"cycles"``, ...).
        expected: the paper's published value for this point, or ``None``
            when the paper gives no number (shape-only points).
    """

    name: str
    value: float
    unit: str = ""
    expected: float | None = None

    @property
    def deviation(self) -> float | None:
        """Relative deviation from the paper value (``None`` if untied).

        ``(value - expected) / |expected|`` — or the absolute difference
        when the expected value is (numerically) zero.
        """
        if self.expected is None:
            return None
        if abs(self.expected) < _EXPECTED_EPS:
            return self.value - self.expected
        return (self.value - self.expected) / abs(self.expected)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "value": self.value}
        if self.unit:
            out["unit"] = self.unit
        if self.expected is not None:
            out["expected"] = self.expected
            out["deviation"] = self.deviation
        return out


@dataclass(frozen=True)
class Phase:
    """Wall-clock seconds one named phase of the bench consumed."""

    name: str
    wall_s: float

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "wall_s": self.wall_s}


@dataclass
class BenchRecord:
    """Everything one bench run measured, as plain data.

    Attributes:
        name: record name — the ``benchmarks/results/`` file stem
            (``"fig5_savings_vs_cplimit"``).
        figure: figure id grouping records into one trajectory file
            (``"fig5"`` -> ``BENCH_fig5.json``); several records may
            share a figure.
        created: ISO-8601 UTC timestamp of the run.
        meta: run metadata — at least ``bench_ms`` (trace duration) and
            ``jobs``; typically also the python and package versions.
        metrics: the regenerated series values.
        phases: the bench's own stopwatch phases, wall-clock seconds
            each; they time its simulations with the rest of its work.
        cache: result-cache counters for the run (hits/misses/...).
        wall: the :class:`~repro.obs.wall.WallLedger` parts of every
            simulation the bench computed (cache hits excluded), summed
            per phase in seconds, with their count under ``runs``.
            Kept out of :attr:`phases`, whose sum :attr:`wall_s` the
            compare gate reads. Additive like ``fleet``: empty when the
            bench computed no simulation.
        audit: result-invariant audit summary —
            ``{"checked": <runs audited>, "findings": [<one-liners>]}``
            from :func:`repro.obs.audit.audit_result` over the session's
            simulation results (empty findings = all invariants held).
        fleet: sweep-level fleet rollup
            (:meth:`repro.obs.fleet.FleetReport.as_dict`) when the bench
            ran a fleet-observed parallel sweep; empty otherwise. An
            additive block: absent in older records, tolerated by the
            parser without a schema bump.
        explain: root-cause attribution attached by ``repro bench
            explain`` — the regressed metric, the baseline it was
            compared against, the digest-divergence verdict
            (:meth:`repro.obs.diff.DivergenceReport.as_dict`), and the
            per-bucket energy attribution. Additive like ``fleet``:
            empty unless an explain pass ran.
    """

    name: str
    figure: str
    created: str = ""
    meta: dict[str, Any] = field(default_factory=dict)
    metrics: list[Metric] = field(default_factory=list)
    phases: list[Phase] = field(default_factory=list)
    cache: dict[str, int] = field(default_factory=dict)
    wall: dict[str, float] = field(default_factory=dict)
    audit: dict[str, Any] = field(default_factory=dict)
    fleet: dict[str, Any] = field(default_factory=dict)
    explain: dict[str, Any] = field(default_factory=dict)

    # --- derived ---------------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Total wall-clock over all recorded phases."""
        return math.fsum(p.wall_s for p in self.phases)

    @property
    def bench_ms(self) -> float | None:
        """The trace duration the run used (the comparability key)."""
        value = self.meta.get("bench_ms")
        return float(value) if isinstance(value, (int, float)) else None

    @property
    def is_quick(self) -> bool:
        """True when the record came from a ``--quick`` smoke run."""
        ms = self.bench_ms
        return ms is not None and ms <= QUICK_BENCH_MS

    def deviations(self) -> dict[str, float]:
        """``metric name -> relative deviation`` for paper-tied metrics."""
        return {m.name: m.deviation for m in self.metrics
                if m.deviation is not None}

    def fidelity(self) -> dict[str, float]:
        """Aggregate fidelity digest over the paper-tied metrics."""
        devs = [abs(d) for d in self.deviations().values()]
        if not devs:
            return {"tied_metrics": 0}
        return {
            "tied_metrics": len(devs),
            "max_abs_deviation": max(devs),
            "mean_abs_deviation": math.fsum(devs) / len(devs),
        }

    # --- (de)serialisation ----------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "figure": self.figure,
            "created": self.created,
            "meta": dict(self.meta),
            "metrics": [m.as_dict() for m in self.metrics],
            "phases": [p.as_dict() for p in self.phases],
            "wall_s": self.wall_s,
            "fidelity": self.fidelity(),
            "cache": dict(self.cache),
            "audit": dict(self.audit),
        }
        if self.wall:
            out["wall"] = dict(self.wall)
        if self.fleet:
            out["fleet"] = dict(self.fleet)
        if self.explain:
            out["explain"] = dict(self.explain)
        return out

    @classmethod
    def from_dict(cls, obj: Any, where: str = "record") -> "BenchRecord":
        """Parse and validate one serialised record.

        Raises:
            BenchFormatError: on anything that is not a schema-current,
                structurally sound record — including records written by
                an older or newer schema generation.
        """
        if not isinstance(obj, Mapping):
            raise BenchFormatError(f"{where}: not a JSON object")
        schema = obj.get("schema")
        if schema != SCHEMA_VERSION:
            raise BenchFormatError(
                f"{where}: schema {schema!r} is not the supported "
                f"version {SCHEMA_VERSION}; regenerate the record with "
                "`repro bench run` (old records cannot be compared)")
        name = obj.get("name")
        figure = obj.get("figure")
        if not isinstance(name, str) or not name:
            raise BenchFormatError(f"{where}: missing record name")
        if not isinstance(figure, str) or not figure:
            raise BenchFormatError(f"{where}: missing figure id")
        meta = obj.get("meta", {})
        if not isinstance(meta, Mapping):
            raise BenchFormatError(f"{where}: meta is not an object")
        metrics = _parse_metrics(obj.get("metrics", []), where)
        phases = _parse_phases(obj.get("phases", []), where)
        cache = obj.get("cache", {})
        if not isinstance(cache, Mapping):
            raise BenchFormatError(f"{where}: cache is not an object")
        wall = obj.get("wall", {})
        if not isinstance(wall, Mapping) or not all(
                isinstance(v, (int, float)) for v in wall.values()):
            raise BenchFormatError(f"{where}: wall is not an object of "
                                   "numbers")
        audit = obj.get("audit", {})
        if not isinstance(audit, Mapping):
            raise BenchFormatError(f"{where}: audit is not an object")
        fleet = obj.get("fleet", {})
        if not isinstance(fleet, Mapping):
            raise BenchFormatError(f"{where}: fleet is not an object")
        explain = obj.get("explain", {})
        if not isinstance(explain, Mapping):
            raise BenchFormatError(f"{where}: explain is not an object")
        return cls(
            name=name, figure=figure,
            created=str(obj.get("created", "")),
            meta=dict(meta), metrics=metrics, phases=phases,
            cache={str(k): int(v) for k, v in cache.items()
                   if isinstance(v, (int, float))},
            wall={str(k): float(v) for k, v in wall.items()},
            audit=dict(audit),
            fleet=dict(fleet),
            explain=dict(explain),
        )


def _parse_metrics(raw: Any, where: str) -> list[Metric]:
    if not isinstance(raw, list):
        raise BenchFormatError(f"{where}: metrics is not an array")
    metrics: list[Metric] = []
    for index, entry in enumerate(raw):
        spot = f"{where}: metrics[{index}]"
        if not isinstance(entry, Mapping):
            raise BenchFormatError(f"{spot} is not an object")
        name = entry.get("name")
        value = entry.get("value")
        if not isinstance(name, str) or not name:
            raise BenchFormatError(f"{spot} has no name")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BenchFormatError(f"{spot} ({name}) has a non-numeric "
                                   f"value {value!r}")
        expected = entry.get("expected")
        if expected is not None and not isinstance(expected, (int, float)):
            raise BenchFormatError(f"{spot} ({name}) has a non-numeric "
                                   f"expected {expected!r}")
        metrics.append(Metric(
            name=name, value=float(value),
            unit=str(entry.get("unit", "")),
            expected=float(expected) if expected is not None else None))
    return metrics


def _parse_phases(raw: Any, where: str) -> list[Phase]:
    if not isinstance(raw, list):
        raise BenchFormatError(f"{where}: phases is not an array")
    phases: list[Phase] = []
    for index, entry in enumerate(raw):
        spot = f"{where}: phases[{index}]"
        if not isinstance(entry, Mapping):
            raise BenchFormatError(f"{spot} is not an object")
        name = entry.get("name")
        wall = entry.get("wall_s")
        if not isinstance(name, str) or not name:
            raise BenchFormatError(f"{spot} has no name")
        if not isinstance(wall, (int, float)) or wall < 0:
            raise BenchFormatError(f"{spot} ({name}) has a bad wall_s "
                                   f"{wall!r}")
        phases.append(Phase(name=name, wall_s=float(wall)))
    return phases


__all__ = [
    "SCHEMA_VERSION", "QUICK_BENCH_MS", "Metric", "Phase", "BenchRecord",
]
