"""Memory power modelling: states, device models, accounting, and policies.

This subpackage transcribes the paper's Table 1 (RDRAM power states and
transition costs) into an executable :class:`~repro.energy.states.PowerModel`,
provides the static and dynamic-threshold low-level management policies of
Lebeck et al. that the paper uses as its baseline, and defines the
:class:`~repro.energy.accounting.EnergyBreakdown` whose categories match
Figure 2(b) / Figure 6.
"""

from repro.energy.states import PowerState, Transition, PowerModel
from repro.energy.rdram import rdram_1600_model, ddr_sdram_model
from repro.energy.accounting import EnergyBreakdown, TimeBreakdown
from repro.energy.policies import (
    AlwaysOnPolicy,
    PowerPolicy,
    StaticPolicy,
    DynamicThresholdPolicy,
    break_even_cycles,
    default_dynamic_policy,
)

__all__ = [
    "AlwaysOnPolicy",
    "PowerState",
    "Transition",
    "PowerModel",
    "rdram_1600_model",
    "ddr_sdram_model",
    "EnergyBreakdown",
    "TimeBreakdown",
    "PowerPolicy",
    "StaticPolicy",
    "DynamicThresholdPolicy",
    "break_even_cycles",
    "default_dynamic_policy",
]
