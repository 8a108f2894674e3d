"""Job specifications: the one description of a simulation.

A :class:`SimJob` is one fully-specified :func:`repro.simulate` call —
trace, configuration, technique, technique parameters, engine, and seed
— as inert data. Jobs exist so that sweeps can be validated eagerly,
deduplicated, dispatched to worker processes, and cached by content
rather than by object identity. :meth:`SimJob.run` runs one with the
observers a caller attaches; :meth:`SimJob.build_engine` builds its
engine unrun. The CLI's run verbs, :func:`repro.obs.diff.diff_runs` and
:func:`~repro.exec.runner.run_many` all describe their runs this way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.config import SimulationConfig
from repro.sim.engine import EngineCore
from repro.sim.results import SimulationResult
from repro.sim.run import build_engine, simulate, validate_simulation_args
from repro.traces.trace import Trace

#: Bump when the meaning of a cached result changes without the package
#: version changing (result schema tweaks, canonicalisation fixes, ...).
#: 2: SimulationResult gained the ``metrics`` report field.
#: 3: SimulationResult gained the ``profile`` hot-paths field.
#: 4: ``profile`` gave way to the ``wall`` ledger attribute.
CACHE_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class SimJob:
    """One simulation to run.

    Attributes:
        trace: the input trace.
        technique: technique name (see :data:`repro.sim.run.TECHNIQUES`).
        config: platform configuration; ``None`` means the paper default.
        engine: engine name (see :data:`repro.sim.run.ENGINES`).
        mu: raw DMA-TA degradation parameter (exclusive with cp_limit).
        cp_limit: client-perceived degradation limit (exclusive with mu).
        seed: page-layout seed.
        tag: free-form caller label carried through to the outcome;
            NOT part of the job identity or cache key.
    """

    trace: Trace
    technique: str = "baseline"
    config: SimulationConfig | None = None
    engine: str = "fluid"
    mu: float | None = None
    cp_limit: float | None = None
    seed: int = 0
    tag: str = field(default="", compare=False)

    @property
    def label(self) -> str:
        """A short human-readable handle for diagnostics and dashboards.

        The caller's ``tag`` when present, else the technique plus
        whichever degradation parameter is set — never empty, never part
        of the job identity.
        """
        if self.tag:
            return self.tag
        parts = [self.technique]
        if self.cp_limit is not None:
            parts.append(f"cp={self.cp_limit:g}")
        if self.mu is not None:
            parts.append(f"mu={self.mu:g}")
        if self.engine != "fluid":
            parts.append(self.engine)
        return ":".join(parts)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` on a bad spec.

        Runs the same checks :func:`repro.simulate` would, plus config
        construction, so errors surface in the submitting process before
        any worker is involved.
        """
        validate_simulation_args(self.technique, self.engine, mu=self.mu,
                                 cp_limit=self.cp_limit, config=self.config)
        config = self.config or SimulationConfig()
        if self.mu is not None:
            config.with_mu(self.mu)  # triggers alignment-config validation

    def run(self, tracer=None, telemetry=None,
            digests=None) -> SimulationResult:
        """Run the job: :func:`repro.simulate` with these observers.

        The keywords are :func:`~repro.sim.run.simulate`'s. This is the
        default job body of :func:`~repro.exec.runner.run_many`.
        """
        return simulate(self.trace, **self._arguments(), tracer=tracer,
                        telemetry=telemetry, digests=digests)

    def build_engine(self, tracer=None, telemetry=None,
                     digests=None) -> EngineCore:
        """The engine :meth:`run` would run, built but not run (``repro
        audit`` injects its under-charge fault into it)."""
        return build_engine(self.trace, **self._arguments(), tracer=tracer,
                            telemetry=telemetry, digests=digests)

    def _arguments(self) -> dict:
        """The job as :func:`~repro.sim.run.simulate` and
        :func:`~repro.sim.run.build_engine` keywords."""
        return dict(config=self.config, technique=self.technique,
                    engine=self.engine, mu=self.mu, cp_limit=self.cp_limit,
                    seed=self.seed)

    def key(self) -> str:
        """The content-addressed identity of this job.

        Stable across processes and machine restarts: built from the
        trace content digest, the canonical configuration dict, the
        technique parameters, and the code/schema version. Anything that
        could change the simulation output is in here; ``tag`` is not.
        """
        from repro import __version__

        config = self.config or SimulationConfig()
        payload = json.dumps({
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "trace": self.trace.fingerprint(),
            "config": config.canonical_dict(),
            "technique": self.technique,
            "engine": self.engine,
            "mu": repr(self.mu),
            "cp_limit": repr(self.cp_limit),
            "seed": self.seed,
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def validate_jobs(jobs: list[SimJob] | tuple[SimJob, ...]) -> None:
    """Validate every job spec eagerly, before any dispatch."""
    for index, job in enumerate(jobs):
        try:
            job.validate()
        except Exception as exc:
            exc.args = (f"job {index} ({job.technique!r}"
                        f"{f', tag={job.tag!r}' if job.tag else ''}): "
                        f"{exc}",)
            raise
