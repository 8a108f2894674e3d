"""Energy and time accounting with the paper's Figure 2(b)/Figure 6 buckets.

Every joule a simulated chip consumes lands in exactly one bucket:

* ``serving_dma``    — actively moving DMA data ("Active Serving").
* ``serving_proc``   — actively serving processor cache-line accesses.
* ``idle_dma``       — active but idle *between* DMA-memory requests of
  in-flight transfers ("Active Idle DMA"); the waste the paper attacks.
* ``idle_threshold`` — active and idle with no transfer in progress, waiting
  out the dynamic policy's idleness threshold ("Active Idle Threshold").
* ``transition``     — power-mode transitions, both directions.
* ``low_power``      — residency in standby/nap/powerdown.
* ``migration``      — page-migration copies performed by the PL technique.

:class:`TimeBreakdown` mirrors the same buckets in chip-cycles so that the
utilization factor ``uf = T_useful / T_tot`` of Section 5.3 falls straight
out of the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.errors import SimulationError

#: The buckets of both breakdowns, in field order. Every other list of
#: bucket names (telemetry columns, digest fields, trace export, tables)
#: is this tuple.
BUCKETS = ("serving_dma", "serving_proc", "idle_dma", "idle_threshold",
           "transition", "low_power", "migration")

#: Position of each bucket in :data:`BUCKETS`.
BUCKET_INDEX = {name: i for i, name in enumerate(BUCKETS)}

#: ``bucket_values(breakdown)`` -> the bucket values in :data:`BUCKETS`
#: order, as a tuple.
bucket_values = attrgetter(*BUCKETS)

#: Tolerance used when checking that buckets sum to the recorded total.
_REL_TOL = 1e-9


class _Buckets:
    """Bucket arithmetic shared by both breakdowns.

    ``total`` and ``as_dict`` stay on each class: profilers wrap them
    per class.
    """

    _unit = ""

    def add(self, other) -> None:
        """Accumulate ``other`` into this breakdown in place."""
        for name, mine, theirs in zip(BUCKETS, bucket_values(self),
                                      bucket_values(other)):
            setattr(self, name, mine + theirs)

    def __add__(self, other):
        result = type(self)()
        result.add(self)
        result.add(other)
        return result

    def copy(self):
        return type(self)(*bucket_values(self))

    def validate(self) -> None:
        """Raise :class:`SimulationError` if any bucket is negative."""
        floor = -_REL_TOL * max(1.0, abs(self.total))
        for name, value in zip(BUCKETS, bucket_values(self)):
            if value < floor:
                raise SimulationError(
                    f"negative {self._unit} bucket {name}={value!r}")


@dataclass
class EnergyBreakdown(_Buckets):
    """Per-category energy (joules). Mutable accumulator."""

    _unit = "energy"

    serving_dma: float = 0.0
    serving_proc: float = 0.0
    idle_dma: float = 0.0
    idle_threshold: float = 0.0
    transition: float = 0.0
    low_power: float = 0.0
    migration: float = 0.0

    @property
    def serving(self) -> float:
        """Total active-serving energy (DMA plus processor)."""
        return self.serving_dma + self.serving_proc

    @property
    def total(self) -> float:
        """Sum of all buckets."""
        # sum(), not a chain of +: from Python 3.12 sum() of floats is
        # compensated, and every recorded total was summed this way.
        return sum(bucket_values(self))

    def fractions(self) -> dict[str, float]:
        """Each bucket as a fraction of the total (empty dict if total is 0)."""
        total = self.total
        if total <= 0:
            return {}
        return {name: value / total
                for name, value in zip(BUCKETS, bucket_values(self))}

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (bucket name -> joules), including the total."""
        out = dict(zip(BUCKETS, bucket_values(self)))
        out["total"] = self.total
        return out


@dataclass
class TimeBreakdown(_Buckets):
    """Per-category chip time (memory cycles). Mutable accumulator.

    ``active_dma_total`` is the paper's ``T_tot``: cycles during which some
    DMA transfer to the chip is in progress (chip active). ``serving_dma``
    is ``T_useful``. Their ratio is the utilization factor.
    """

    _unit = "time"

    serving_dma: float = 0.0
    serving_proc: float = 0.0
    idle_dma: float = 0.0
    idle_threshold: float = 0.0
    transition: float = 0.0
    low_power: float = 0.0
    migration: float = 0.0

    @property
    def active_dma_total(self) -> float:
        """T_tot of Section 5.3: transfer-in-progress active cycles."""
        return self.serving_dma + self.idle_dma

    @property
    def total(self) -> float:
        return sum(bucket_values(self))

    def utilization_factor(self) -> float:
        """``uf = T_useful / T_tot`` (Section 5.3); 0.0 when no DMA ran.

        Processor accesses served while transfers are in flight count as
        useful cycles, matching the paper's observation that they "consume
        some of the idle cycles when the memory is active between
        DMA-memory requests".
        """
        t_tot = self.active_dma_total + self.serving_proc
        if t_tot <= 0:
            return 0.0
        return (self.serving_dma + self.serving_proc) / t_tot

    def as_dict(self) -> dict[str, float]:
        out = dict(zip(BUCKETS, bucket_values(self)))
        out["total"] = self.total
        return out
