"""The aggregate memory system: all chips plus the page layout."""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.energy.policies import PowerPolicy
from repro.errors import LayoutError
from repro.memory.address import PageLayout, RandomLayout
from repro.memory.chip import FluidChip


class MemorySystem:
    """All memory chips of the simulated machine plus their page layout.

    The layout may be replaced or mutated at run time (the PL technique
    swaps in a :class:`~repro.memory.address.MutableLayout` and edits it at
    interval boundaries); chip objects are stable for a simulation's life.
    """

    def __init__(
        self,
        config: MemoryConfig,
        policy: PowerPolicy,
        layout: PageLayout | None = None,
        start_asleep: bool = True,
    ) -> None:
        self.config = config
        self.layout = layout or RandomLayout(
            config.num_chips, config.pages_per_chip, seed=0)
        if self.layout.num_chips != config.num_chips:
            raise LayoutError("layout chip count does not match memory config")
        if self.layout.pages_per_chip != config.pages_per_chip:
            raise LayoutError("layout page capacity does not match memory config")
        self.chips = [
            FluidChip(i, config.power_model, policy, start_asleep=start_asleep)
            for i in range(config.num_chips)
        ]

    def advance_all(self, now: float) -> None:
        """Bring every chip's accounting up to ``now``."""
        for chip in self.chips:
            chip.advance(now)
