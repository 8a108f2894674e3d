"""Power states and the chip power model (the paper's Table 1).

An RDRAM chip can be independently set to one of four power states. It must
be *active* to serve a read or write; entering or leaving a low-power state
costs both time and energy. :class:`PowerModel` holds the per-state power
draw and the transition table, and exposes the derived quantities the rest
of the simulator needs (transition times and energies, the serve time of
one request).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigurationError


class PowerState(enum.Enum):
    """Operating states of a memory chip, ordered from hottest to coldest."""

    ACTIVE = "active"
    STANDBY = "standby"
    NAP = "nap"
    POWERDOWN = "powerdown"

    @property
    def depth(self) -> int:
        """0 for ACTIVE, increasing with how deep the low-power state is."""
        return _DEPTH[self]


_DEPTH = {
    PowerState.ACTIVE: 0,
    PowerState.STANDBY: 1,
    PowerState.NAP: 2,
    PowerState.POWERDOWN: 3,
}

#: The low-power states, in the order a dynamic policy steps through them.
LOW_POWER_STATES = (PowerState.STANDBY, PowerState.NAP, PowerState.POWERDOWN)

#: The ``"from->to"`` name of every transition edge, keyed by the two
#: states' ``_value_`` strings: a chip counting a transition hashes two
#: strings, not two members (``Enum.__hash__`` is Python code).
EDGE_NAMES = {(source._value_, target._value_):
              f"{source.value}->{target.value}"
              for source in PowerState for target in PowerState}


@dataclass(frozen=True)
class Transition:
    """Cost of one power-mode transition.

    Attributes:
        power_watts: power drawn while the transition is in progress.
        time_cycles: duration of the transition in memory cycles.
    """

    power_watts: float
    time_cycles: float


@dataclass(frozen=True)
class PowerModel:
    """A complete chip power model: state powers plus the transition table.

    Attributes:
        name: human-readable model name (e.g. ``"RDRAM-1600"``).
        frequency_hz: memory clock; all ``time_cycles`` are in this clock.
        bytes_per_cycle: peak transfer rate of the device per cycle
            (2.0 for RDRAM-1600, giving 3.2 GB/s).
        state_power_watts: steady-state power draw per state.
        downward: transition from ACTIVE into each low-power state.
        upward: transition from each low-power state back to ACTIVE
            (the resynchronisation delay: +6 ns / +60 ns / +6000 ns).
    """

    name: str
    frequency_hz: float
    bytes_per_cycle: float
    state_power_watts: Mapping[PowerState, float]
    downward: Mapping[PowerState, Transition]
    upward: Mapping[PowerState, Transition]

    def __post_init__(self) -> None:
        for state in PowerState:
            if state not in self.state_power_watts:
                raise ConfigurationError(f"missing power for state {state}")
        for state in LOW_POWER_STATES:
            if state not in self.downward:
                raise ConfigurationError(f"missing downward transition to {state}")
            if state not in self.upward:
                raise ConfigurationError(f"missing upward transition from {state}")
        powers = [self.state_power_watts[s] for s in PowerState]
        if any(p < 0 for p in powers):
            raise ConfigurationError("state power must be non-negative")
        if powers != sorted(powers, reverse=True):
            raise ConfigurationError(
                "state powers must decrease from ACTIVE to POWERDOWN")

    # --- steady-state -------------------------------------------------

    def power(self, state: PowerState) -> float:
        """Steady-state power draw (watts) in ``state``."""
        return self.state_power_watts[state]

    @property
    def active_power(self) -> float:
        return self.state_power_watts[PowerState.ACTIVE]

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Peak device bandwidth implied by the clock and width."""
        return self.bytes_per_cycle * self.frequency_hz

    # --- transitions ---------------------------------------------------

    def sleep_time_cycles(self, state: PowerState) -> float:
        """Cycles to transition from ACTIVE down into ``state``."""
        if state is PowerState.ACTIVE:
            return 0.0
        return self.downward[state].time_cycles

    def transition_energy(self, transition: Transition) -> float:
        """Energy (joules) of one transition under this model's clock."""
        return transition.power_watts * transition.time_cycles / self.frequency_hz

    def wake_energy(self, state: PowerState) -> float:
        """Energy (joules) to return from ``state`` to ACTIVE."""
        if state is PowerState.ACTIVE:
            return 0.0
        return self.transition_energy(self.upward[state])

    def sleep_energy(self, state: PowerState) -> float:
        """Energy (joules) to drop from ACTIVE into ``state``."""
        if state is PowerState.ACTIVE:
            return 0.0
        return self.transition_energy(self.downward[state])

    # --- derived geometry ----------------------------------------------

    def serve_cycles(self, request_bytes: float) -> float:
        """Cycles the chip is busy serving one request of this size."""
        return request_bytes / self.bytes_per_cycle

    def replace(self, **overrides) -> "PowerModel":
        """A copy of this model with the given fields replaced."""
        import dataclasses

        return dataclasses.replace(self, **overrides)


def make_power_model(
    name: str,
    frequency_hz: float,
    bytes_per_cycle: float,
    state_power_mw: Mapping[PowerState, float],
    downward_mw_cycles: Mapping[PowerState, tuple[float, float]],
    upward_mw_ns: Mapping[PowerState, tuple[float, float]],
) -> PowerModel:
    """Build a :class:`PowerModel` from Table 1-style units.

    Args:
        state_power_mw: per-state power in milliwatts.
        downward_mw_cycles: ``state -> (power_mw, time_cycles)`` for
            ACTIVE -> state transitions.
        upward_mw_ns: ``state -> (power_mw, time_ns)`` for state -> ACTIVE
            transitions (the paper quotes these in nanoseconds).
    """
    state_power = {s: mw / 1e3 for s, mw in state_power_mw.items()}
    downward = {
        s: Transition(power_watts=mw / 1e3, time_cycles=cycles)
        for s, (mw, cycles) in downward_mw_cycles.items()
    }
    upward = {
        s: Transition(power_watts=mw / 1e3, time_cycles=ns * 1e-9 * frequency_hz)
        for s, (mw, ns) in upward_mw_ns.items()
    }
    return PowerModel(
        name=name,
        frequency_hz=frequency_hz,
        bytes_per_cycle=bytes_per_cycle,
        state_power_watts=state_power,
        downward=downward,
        upward=upward,
    )
