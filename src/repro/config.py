"""Configuration objects for the simulator.

A :class:`SimulationConfig` bundles the memory geometry, the I/O bus set,
the low-level power policy, and the DMA-aware technique parameters. The
defaults reproduce the paper's evaluation platform (Section 5.1):

* 32 memory chips of 32 MB each (1 GB total), 512-Mb 1600-MHz RDRAM
  (Table 1 power model), 8-KB pages;
* three 133-MHz 64-bit PCI-X buses (1.064 GB/s each);
* 8-byte DMA-memory requests;
* the dynamic-threshold policy as the baseline low-level manager;
* 2 popularity groups for PL.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro import units
from repro.errors import ConfigurationError
from repro.energy.policies import PowerPolicy, default_dynamic_policy
from repro.energy.rdram import rdram_1600_model
from repro.energy.states import PowerModel

MB = 1 << 20


def check_period(name: str, cycles: float) -> None:
    """Reject a period (in memory cycles) that cannot advance the clock.

    A period must be finite and at least one cycle. A shorter one is
    below the resolution of any event (a request takes T = 4 cycles).
    NaN and infinity never schedule a sane next tick. At one cycle or
    more, ``now + period > now`` for every horizon below 2**52 cycles,
    so every periodic event moves time forward.
    """
    if not (math.isfinite(cycles) and cycles >= 1.0):
        raise ConfigurationError(
            f"{name} must be a finite period of at least one memory "
            f"cycle, got {cycles!r}")


@dataclass(frozen=True)
class MemoryConfig:
    """Memory subsystem geometry and device model.

    Attributes:
        num_chips: number of independently power-managed chips.
        chip_bytes: capacity of each chip.
        page_bytes: OS/DMA page size; transfers are page-aligned.
        request_bytes: size of one DMA-memory request (8 B on PCI-X).
        power_model: device power/timing model (Table 1 by default).
    """

    num_chips: int = 32
    chip_bytes: int = 32 * MB
    page_bytes: int = 8192
    request_bytes: int = 8
    power_model: PowerModel = field(default_factory=rdram_1600_model)

    def __post_init__(self) -> None:
        if self.num_chips <= 0:
            raise ConfigurationError("num_chips must be positive")
        if self.chip_bytes <= 0 or self.page_bytes <= 0:
            raise ConfigurationError("sizes must be positive")
        if self.page_bytes > self.chip_bytes:
            raise ConfigurationError("a page must fit in a chip")
        if self.chip_bytes % self.page_bytes:
            raise ConfigurationError("chip size must be a page multiple")
        if self.request_bytes <= 0:
            raise ConfigurationError("request_bytes must be positive")

    @property
    def pages_per_chip(self) -> int:
        return self.chip_bytes // self.page_bytes

    @property
    def total_pages(self) -> int:
        return self.pages_per_chip * self.num_chips

    @property
    def total_bytes(self) -> int:
        return self.chip_bytes * self.num_chips

    @property
    def serve_cycles(self) -> float:
        """Chip-busy cycles per DMA-memory request (4 at Table 1 defaults)."""
        return self.power_model.serve_cycles(self.request_bytes)


@dataclass(frozen=True)
class BusConfig:
    """The I/O bus complex.

    Attributes:
        count: number of buses (the paper simulates three).
        bandwidth_bytes_per_s: per-bus bandwidth (PCI-X: 1.064 GB/s).
        sharing: ``"fifo"`` (the paper's model — a bus carries one
            transfer at a time at full rate; later transfers queue) or
            ``"fair"`` (request-granularity round-robin, modelled as an
            equal bandwidth split; an ablation that dilutes alignment).
    """

    count: int = 3
    bandwidth_bytes_per_s: float = units.PCIX_BANDWIDTH
    sharing: str = "fifo"

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ConfigurationError("bus count must be positive")
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bus bandwidth must be positive")
        if self.sharing not in ("fifo", "fair"):
            raise ConfigurationError(
                f"unknown bus sharing {self.sharing!r}; "
                "expected 'fifo' or 'fair'")


@dataclass(frozen=True)
class ProcessorConfig:
    """Processor-side access parameters.

    Both engines implement Section 4.1.3 solution 1: processor accesses
    are always serviced before pending DMA-memory requests.

    Attributes:
        cache_line_bytes: granularity of processor-initiated accesses.
    """

    cache_line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.cache_line_bytes <= 0:
            raise ConfigurationError("cache_line_bytes must be positive")


@dataclass(frozen=True)
class TemporalAlignmentConfig:
    """Parameters of the DMA-TA technique (Section 4.1).

    Attributes:
        mu: acceptable average per-request service-time degradation; the
            average DMA-memory request service time is guaranteed to stay
            within ``(1 + mu) * T``. Usually derived from a CP-Limit via
            :mod:`repro.core.cp_limit`.
        epoch_cycles: epoch length for the pessimistic slack charging.
            Results are insensitive to this as long as it is not too large.
            Finite and at least one cycle (:func:`check_period`).
        slack_release_fraction: release gathered requests when the projected
            queueing delay ``n*U/2`` reaches this fraction of the available
            slack ("close to the current Slack" in the paper).
        deadline_fraction: each buffered transfer is additionally released
            no later than its own slack budget — ``deadline_fraction * mu *
            T * num_requests`` after arrival. This per-transfer deadline
            keeps releases spread out in time (a transfer waiting for
            partners that never come is let through once it has consumed
            its share of the guarantee), bounding the client-perceived
            degradation below the configured CP-Limit.
    """

    mu: float = 0.0
    epoch_cycles: float = 2000.0
    slack_release_fraction: float = 1.0
    deadline_fraction: float = 0.6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ConfigurationError(
                f"mu must be finite and non-negative, got {self.mu!r}")
        check_period("epoch_cycles", self.epoch_cycles)
        if not 0 < self.slack_release_fraction <= 1:
            raise ConfigurationError(
                "slack_release_fraction must be in (0, 1]")
        if not 0 < self.deadline_fraction <= 1:
            raise ConfigurationError("deadline_fraction must be in (0, 1]")


@dataclass(frozen=True)
class PopularityLayoutConfig:
    """Parameters of the PL technique (Section 4.2).

    Attributes:
        num_groups: total number of popularity groups K (hot groups sized
            1, 2, 4, ... chips plus one cold group). 2 is the paper's best.
        hot_access_fraction: the tunable ``p`` — the hot chips together
            should absorb this fraction of DMA-memory requests.
        interval_cycles: page-migration interval (multiple epochs);
            finite and at least one cycle (:func:`check_period`).
        counter_bits: width of the per-page DMA reference counters.
        aging_shift: right-shift applied to every counter at each interval
            boundary (0 resets counters instead).
        hysteresis_factor: a page already resident in the hot group stays
            hot as long as it ranks within ``hysteresis_factor`` times the
            hot page count. Rank noise at the hot/cold boundary otherwise
            flaps pages in and out every interval, and each flap is two
            page copies of pure overhead — the effect behind the paper's
            observation that "pages accessed 8 times are not necessarily
            hotter than pages that have been accessed 10 times".
        min_hot_references: a page needs at least this (aged) reference
            count to earn a hot frame. Counts of one are indistinguishable
            from sampling noise; migrating such pages is churn.
        opportunistic_copies: the Section 4.2.2 optimisation — migration
            copies proceed only during cycles their chips are active for
            other traffic anyway (soaking up active-idle waste), never
            waking a chip or keeping it awake on their own. Off by
            default, matching the paper's evaluated configuration ("these
            optimizations are still being implemented in our simulator").
            Fluid engine only.
        translation_table_entries: capacity of the controller's
            <old_location, new_location> table before a page-table flush.
    """

    num_groups: int = 2
    hot_access_fraction: float = 0.6
    interval_cycles: float = 8_000_000.0
    counter_bits: int = 8
    aging_shift: int = 1
    hysteresis_factor: float = 2.0
    min_hot_references: int = 2
    opportunistic_copies: bool = False
    translation_table_entries: int = 1024

    def __post_init__(self) -> None:
        if self.num_groups < 2:
            raise ConfigurationError("PL needs at least 2 groups (hot+cold)")
        if not 0 < self.hot_access_fraction < 1:
            raise ConfigurationError("hot_access_fraction must be in (0,1)")
        check_period("interval_cycles", self.interval_cycles)
        if self.counter_bits <= 0 or self.counter_bits > 32:
            raise ConfigurationError("counter_bits must be in [1, 32]")
        if self.aging_shift < 0:
            raise ConfigurationError("aging_shift must be non-negative")
        if self.hysteresis_factor < 1.0:
            raise ConfigurationError("hysteresis_factor must be >= 1")
        if self.min_hot_references < 1:
            raise ConfigurationError("min_hot_references must be >= 1")
        if self.translation_table_entries <= 0:
            raise ConfigurationError("translation table must be non-empty")


def canonical_value(obj: object) -> object:
    """Recursively encode ``obj`` into JSON-able primitives, canonically.

    The encoding is the identity notion behind the :mod:`repro.exec`
    result cache: dataclasses become ``{"__type__": ClassName, **fields}``
    dicts (so two different policy classes with identical fields never
    collide), enums become their values, floats keep full precision via
    ``repr``, and mappings are emitted with stringified keys (JSON sorts
    them at dump time). Unknown object types are rejected rather than
    silently hashed by address.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return canonical_value(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        encoded: dict = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            encoded[f.name] = canonical_value(getattr(obj, f.name))
        return encoded
    if isinstance(obj, (list, tuple)):
        return [canonical_value(item) for item in obj]
    if isinstance(obj, Mapping):
        return {str(key): canonical_value(value)
                for key, value in obj.items()}
    raise ConfigurationError(
        f"cannot canonicalize {type(obj).__name__!r} for cache hashing")


#: Valid initial page-placement strategies.
BASE_LAYOUTS = ("random", "sequential", "interleaved")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a simulation run needs besides the trace itself.

    Attributes:
        base_layout: the initial page placement — ``"random"`` (default;
            models a long-running server whose buffer-cache pages carry
            no spatial order), ``"sequential"`` (first-touch fill), or
            ``"interleaved"`` (round-robin striping). PL, when enabled,
            starts from this placement and migrates on top of it.
    """

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    buses: BusConfig = field(default_factory=BusConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    policy: PowerPolicy = None  # type: ignore[assignment]
    alignment: TemporalAlignmentConfig = field(
        default_factory=TemporalAlignmentConfig)
    layout: PopularityLayoutConfig = field(
        default_factory=PopularityLayoutConfig)
    base_layout: str = "random"
    strict_guarantee: bool = False

    def __post_init__(self) -> None:
        if self.policy is None:
            object.__setattr__(
                self, "policy", default_dynamic_policy(self.memory.power_model))
        if self.base_layout not in BASE_LAYOUTS:
            raise ConfigurationError(
                f"unknown base_layout {self.base_layout!r}; "
                f"expected one of {BASE_LAYOUTS}")

    # --- derived request geometry ---------------------------------------

    @property
    def frequency_hz(self) -> float:
        return self.memory.power_model.frequency_hz

    @property
    def serve_cycles(self) -> float:
        """Chip cycles to serve one DMA-memory request (the paper's 4)."""
        return self.memory.serve_cycles

    @property
    def request_period_cycles(self) -> float:
        """Cycles between successive requests of one transfer (the 12).

        Set by the bus: one ``request_bytes`` chunk per
        ``request_bytes / bus_bytes_per_cycle`` cycles.
        """
        bus_bytes_per_cycle = units.bandwidth_bytes_per_cycle(
            self.buses.bandwidth_bytes_per_s, self.frequency_hz)
        return self.memory.request_bytes / bus_bytes_per_cycle

    @property
    def bandwidth_ratio(self) -> float:
        """Memory bandwidth over per-bus I/O bandwidth (the paper's ~3)."""
        return (self.memory.power_model.bandwidth_bytes_per_s
                / self.buses.bandwidth_bytes_per_s)

    @property
    def saturating_buses(self) -> int:
        """``k = ceil(Rm / Rb)``: buses needed to saturate one chip.

        Computed with a 5% tolerance so that the paper's canonical
        geometry — PCI-X at 1.064 GB/s against RDRAM at 3.2 GB/s, a ratio
        of 3.0075 — yields ``k = 3`` (three buses saturate a chip), as the
        paper states, rather than a vacuous 4.
        """
        return max(1, math.ceil(self.bandwidth_ratio - 0.05))

    @property
    def proc_serve_cycles(self) -> float:
        """Chip cycles to serve one processor cache-line access."""
        return self.memory.power_model.serve_cycles(
            self.processor.cache_line_bytes)

    @property
    def undisturbed_service_cycles(self) -> float:
        """The paper's ``T``: mean request service time with no alignment
        and no power management — the chip-serve time of one request."""
        return self.serve_cycles

    # --- canonical identity ----------------------------------------------

    def canonical_dict(self) -> dict:
        """A JSON-able dict that fully determines this configuration.

        Two configs with the same canonical dict produce identical
        simulations. Used by :mod:`repro.exec` to build stable,
        restart-proof cache keys; see :func:`canonical_value` for the
        encoding rules.
        """
        return canonical_value(self)

    def fingerprint(self) -> str:
        """A stable hex digest of :meth:`canonical_dict`."""
        payload = json.dumps(self.canonical_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def with_mu(self, mu: float) -> "SimulationConfig":
        """A copy with the DMA-TA degradation parameter replaced."""
        return replace(self, alignment=replace(self.alignment, mu=mu))

    def with_bus_bandwidth(self, bandwidth_bytes_per_s: float) -> "SimulationConfig":
        """A copy with the per-bus bandwidth replaced (Figure 10 sweeps)."""
        return replace(
            self, buses=replace(self.buses,
                                bandwidth_bytes_per_s=bandwidth_bytes_per_s))
