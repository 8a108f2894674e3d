"""The public simulation entry point."""

from __future__ import annotations

import math

from repro.config import SimulationConfig
from repro.core.cp_limit import calibrate_mu
from repro.errors import ConfigurationError
from repro.obs.wall import WallLedger
from repro.sim.engine import TECHNIQUES, EngineCore
from repro.sim.fluid import FluidEngine
from repro.sim.precise import PreciseEngine
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace

#: ``precise-scalar`` is the precise engine with the array-timeline
#: kernel disabled — the pure event-stepping oracle the vectorized
#: engine is gated against (see docs/ENGINES.md).
ENGINES = ("fluid", "precise", "precise-scalar")


def validate_simulation_args(
    technique: str,
    engine: str = "fluid",
    mu: float | None = None,
    cp_limit: float | None = None,
    config: SimulationConfig | None = None,
) -> None:
    """Check simulation arguments without running anything.

    :func:`simulate` calls this itself; :meth:`repro.exec.SimJob.validate`
    calls it before dispatching jobs to worker processes so that a bad
    job spec fails in the submitting process (with a clean
    :class:`ConfigurationError`) rather than deep inside a pool worker.
    The precise engines model neither fair bus sharing nor opportunistic
    page copies, so ``config`` may not ask them for either.
    """
    if technique not in TECHNIQUES:
        raise ConfigurationError(
            f"unknown technique {technique!r}; expected one of {TECHNIQUES}")
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    if mu is not None and cp_limit is not None:
        raise ConfigurationError("pass either mu or cp_limit, not both")
    for name, value in (("mu", mu), ("cp_limit", cp_limit)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ConfigurationError(
                f"{name} must be finite and non-negative, got {value!r}")
    if engine != "fluid" and config is not None:
        for option, fluid_only in (
                ("buses.sharing='fair'", config.buses.sharing == "fair"),
                ("layout.opportunistic_copies=True",
                 config.layout.opportunistic_copies)):
            if fluid_only:
                raise ConfigurationError(
                    f"{option} is modelled by the fluid engine only, "
                    f"not by {engine!r}")


def build_engine(trace: Trace, config: SimulationConfig | None = None,
                 technique: str = "baseline", engine: str = "fluid",
                 mu: float | None = None, cp_limit: float | None = None,
                 seed: int = 0, tracer=None, telemetry=None,
                 digests=None) -> EngineCore:
    """The engine :func:`simulate` runs, built but not run.

    Takes :func:`simulate`'s arguments: checks them, calibrates ``mu``
    from ``cp_limit`` when given, and builds the engine, whose
    :class:`~repro.obs.wall.WallLedger` has timed both as its
    ``calibrate`` phase. ``repro audit`` uses it to reach the slack
    account.
    """
    wall = WallLedger()
    validate_simulation_args(technique, engine, mu=mu, cp_limit=cp_limit,
                             config=config)

    config = config or SimulationConfig()
    if cp_limit is not None:
        config = config.with_mu(calibrate_mu(trace, config, cp_limit).mu)
    elif mu is not None:
        config = config.with_mu(mu)
    wall.lap("calibrate")

    if engine == "fluid":
        built: EngineCore = FluidEngine(
            trace, config, technique=technique, seed=seed, tracer=tracer,
            telemetry=telemetry, digests=digests)
    else:
        built = PreciseEngine(
            trace, config, technique=technique, seed=seed, tracer=tracer,
            vectorize=engine != "precise-scalar", telemetry=telemetry,
            digests=digests)
    built.wall = wall
    return built


def simulate(
    trace: Trace,
    config: SimulationConfig | None = None,
    technique: str = "baseline",
    engine: str = "fluid",
    mu: float | None = None,
    cp_limit: float | None = None,
    seed: int = 0,
    tracer=None,
    telemetry=None,
    digests=None,
) -> SimulationResult:
    """Run one simulation of ``trace`` under ``technique``.

    Args:
        trace: the input trace (see :mod:`repro.traces`).
        config: platform configuration; the paper's Section 5.1 platform
            by default.
        technique: ``nopm`` (no power management), ``baseline`` (dynamic
            low-level policy only), ``dma-ta``, ``pl``, or ``dma-ta-pl``.
        engine: ``fluid`` (fast, default), ``precise`` (per-request,
            with the array-timeline kernel), or ``precise-scalar`` (the
            pure event-stepping oracle; bit-identical results to
            ``precise``, one order of magnitude slower).
        mu: DMA-TA per-request degradation parameter; overrides the
            configured value.
        cp_limit: client-perceived response-time degradation limit; when
            given, ``mu`` is calibrated from the trace (Section 5.1) —
            mutually exclusive with ``mu``.
        seed: seed for the baseline random page layout.
        tracer: optional :class:`~repro.obs.tracer.Tracer` receiving the
            run's structured events (power-state spans, TA decisions,
            slack charges, migrations); ``None`` costs nothing.
        telemetry: optional
            :class:`~repro.obs.telemetry.TelemetrySampler` capturing
            live per-epoch time series (residency, power, slack,
            migrations, bus depth) during the run; the sampler is
            read-only, so results stay bit-identical in energy. See
            ``docs/OBSERVABILITY.md`` ("Live telemetry").
        digests: optional :class:`~repro.obs.diff.DigestRecorder`
            folding a per-epoch state digest into a rolling hash chain;
            the recorder's :class:`~repro.obs.diff.DigestTrail` is
            attached to ``result.digests``. Read-only, same bit-identity
            guarantee as telemetry. See ``docs/OBSERVABILITY.md``
            ("Differential observability").

    Returns:
        The :class:`~repro.sim.results.SimulationResult`. Its ``wall``
        attribute is the call's :class:`~repro.obs.wall.WallLedger`.
    """
    result = build_engine(
        trace, config, technique=technique, engine=engine, mu=mu,
        cp_limit=cp_limit, seed=seed, tracer=tracer, telemetry=telemetry,
        digests=digests).run()
    if digests is not None:
        result.digests = digests.trail()
    result.wall.lap("other")
    return result
