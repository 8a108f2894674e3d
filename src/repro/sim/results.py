"""Simulation results and their derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.accounting import EnergyBreakdown, TimeBreakdown
from repro.obs.metrics import MetricsReport


@dataclass
class SimulationResult:
    """Everything a simulation run measured.

    Attributes:
        trace_name: name of the input trace.
        technique: ``"nopm" | "baseline" | "dma-ta" | "pl" | "dma-ta-pl"``.
        engine: ``"fluid"`` or ``"precise"`` (``precise-scalar`` runs
            report ``"precise"`` — the model is identical; only the
            stepping strategy differs).
        duration_cycles: simulated horizon (trace duration or last
            completion, whichever is later).
        energy: aggregate energy breakdown over all chips.
        time: aggregate chip-time breakdown over all chips.
        transfers: DMA transfers processed.
        requests: DMA-memory requests those transfers decomposed into.
        proc_accesses: processor cache-line accesses processed.
        mu: the DMA-TA degradation parameter in force (0 for baseline).
        service_cycles: the undisturbed per-request service time ``T``.
        head_delay_cycles: total gather+wake delay imposed on transfer
            head requests.
        extra_service_cycles: total per-request service-time inflation
            from chip-side throttling.
        client_responses: measured response time per client request id.
        migrations: PL page moves executed.
        table_flushes: PL translation-table flush interrupts.
        wakes: chip low-power -> ACTIVE transitions.
        controller_stats: controller-specific counters.
        guarantee_violated: True if the measured average per-request
            degradation exceeded ``mu * T``.
    """

    trace_name: str
    technique: str
    engine: str
    duration_cycles: float
    energy: EnergyBreakdown
    time: TimeBreakdown
    transfers: int = 0
    requests: int = 0
    proc_accesses: int = 0
    mu: float = 0.0
    service_cycles: float = 0.0
    head_delay_cycles: float = 0.0
    extra_service_cycles: float = 0.0
    client_responses: dict[int, float] = field(default_factory=dict)
    migrations: int = 0
    table_flushes: int = 0
    wakes: int = 0
    controller_stats: dict[str, float] = field(default_factory=dict)
    guarantee_violated: bool = False
    #: Per-chip total energy (joules), index = chip id.
    chip_energy: list[float] = field(default_factory=list)
    #: The run's metrics snapshot (counters, histograms, per-chip state
    #: residency, transition counts); see :mod:`repro.obs.metrics`.
    metrics: MetricsReport | None = None
    #: The run's :class:`~repro.obs.diff.DigestTrail` (per-epoch rolling
    #: state-digest chain), populated only when the run was started with
    #: ``simulate(..., digests=DigestRecorder(...))``; see
    #: :mod:`repro.obs.diff`.
    digests: object | None = None
    #: The run's :class:`~repro.obs.wall.WallLedger`, which the engine
    #: attaches. A class attribute, not a field: equality, ``asdict``,
    #: cache keys and digest trails never see it. Results served from
    #: the on-disk cache keep the ledger of the run that computed them.
    wall = None

    # --- derived metrics -----------------------------------------------

    @property
    def energy_joules(self) -> float:
        """Total memory energy of the run."""
        return self.energy.total

    @property
    def utilization_factor(self) -> float:
        """The paper's ``uf`` (Section 5.3)."""
        return self.time.utilization_factor()

    @property
    def avg_extra_service_cycles(self) -> float:
        """Mean extra service time per DMA-memory request."""
        if self.requests <= 0:
            return 0.0
        return (self.head_delay_cycles + self.extra_service_cycles) / self.requests

    @property
    def avg_service_degradation(self) -> float:
        """Measured per-request degradation (compare against ``mu``)."""
        if self.service_cycles <= 0:
            return 0.0
        return self.avg_extra_service_cycles / self.service_cycles

    def energy_savings_vs(self, baseline: "SimulationResult") -> float:
        """Fractional energy saved relative to ``baseline`` (Figure 5)."""
        if baseline.energy_joules <= 0:
            return 0.0
        return 1.0 - self.energy_joules / baseline.energy_joules

    def client_degradation_vs(self, baseline: "SimulationResult") -> float:
        """Measured client-perceived response-time degradation.

        Compares mean responses over the client requests both runs
        completed; this is the quantity CP-Limit bounds.
        """
        shared = self.client_responses.keys() & baseline.client_responses.keys()
        if not shared:
            return 0.0
        mine = sum(self.client_responses[i] for i in shared) / len(shared)
        theirs = sum(baseline.client_responses[i] for i in shared) / len(shared)
        if theirs <= 0:
            return 0.0
        return mine / theirs - 1.0

    def summary(self) -> str:
        """A human-readable multi-line summary of the run."""
        fractions = self.energy.fractions()
        lines = [
            f"trace={self.trace_name} technique={self.technique} "
            f"engine={self.engine}",
            f"  duration: {self.duration_cycles:.0f} cycles, "
            f"transfers: {self.transfers}, requests: {self.requests}, "
            f"proc accesses: {self.proc_accesses}",
            f"  energy: {self.energy_joules * 1e3:.3f} mJ "
            f"(uf={self.utilization_factor:.3f}, wakes={self.wakes})",
        ]
        for bucket in ("serving_dma", "serving_proc", "idle_dma",
                       "idle_threshold", "transition", "low_power",
                       "migration"):
            share = fractions.get(bucket, 0.0)
            lines.append(f"    {bucket:<15} {share * 100:5.1f}%")
        if self.mu > 0:
            lines.append(
                f"  guarantee: mu={self.mu:.3g}, measured "
                f"degradation={self.avg_service_degradation:.3g} "
                f"({'VIOLATED' if self.guarantee_violated else 'ok'})")
        if self.migrations:
            lines.append(
                f"  migrations: {self.migrations} "
                f"(table flushes: {self.table_flushes})")
        return "\n".join(lines)
