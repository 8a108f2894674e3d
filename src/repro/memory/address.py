"""Page-to-chip layouts.

The layout decides which physical chip holds each logical page and is the
knob the PL technique turns. Static layouts here serve as baselines:

* :class:`SequentialLayout` fills chips one after another, the way a
  first-touch allocator would on a fresh machine.
* :class:`InterleavedLayout` stripes consecutive pages across chips
  (round-robin), the classical performance-oriented layout.
* :class:`RandomLayout` scatters pages pseudo-randomly — a model of a
  long-running server whose buffer-cache pages have no spatial order;
  this is the default baseline layout because it makes hot pages land on
  all chips, which is precisely the situation PL fixes.
* :class:`MutableLayout` is the dynamic mapping the PL migration engine
  edits at interval boundaries.
"""

from __future__ import annotations

import abc
import functools
import random
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import LayoutError

if TYPE_CHECKING:
    from repro.config import SimulationConfig

#: Chip maps the process keeps for :class:`RandomLayout` (least recently
#: used goes first). One map at the Table 1 geometry (32 chips x 4,096
#: pages) is 512 KB.
_CHIP_MAP_MEMO_SIZE = 8


class PageLayout(abc.ABC):
    """Maps logical pages to chips."""

    def __init__(self, num_chips: int, pages_per_chip: int) -> None:
        if num_chips <= 0 or pages_per_chip <= 0:
            raise LayoutError("layout dimensions must be positive")
        self.num_chips = num_chips
        self.pages_per_chip = pages_per_chip

    @property
    def total_pages(self) -> int:
        return self.num_chips * self.pages_per_chip

    @abc.abstractmethod
    def chip_of(self, page: int) -> int:
        """The chip holding logical ``page``."""

    @abc.abstractmethod
    def chip_map(self) -> np.ndarray:
        """Every page's chip, indexed by page, as an ``int32`` array.

        The array may be shared and read-only: copy it to edit it.
        """

    def _check(self, page: int) -> None:
        if not 0 <= page < self.total_pages:
            raise LayoutError(
                f"page {page} outside memory of {self.total_pages} pages")


class SequentialLayout(PageLayout):
    """Pages 0..P-1 on chip 0, P..2P-1 on chip 1, and so on."""

    def chip_of(self, page: int) -> int:
        self._check(page)
        return page // self.pages_per_chip

    def chip_map(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_chips, dtype=np.int32),
                         self.pages_per_chip)


class InterleavedLayout(PageLayout):
    """Page p lives on chip ``p mod num_chips`` (round-robin striping)."""

    def chip_of(self, page: int) -> int:
        self._check(page)
        return page % self.num_chips

    def chip_map(self) -> np.ndarray:
        return np.tile(np.arange(self.num_chips, dtype=np.int32),
                       self.pages_per_chip)


@functools.lru_cache(maxsize=_CHIP_MAP_MEMO_SIZE)
def _random_chip_map(num_chips: int, pages_per_chip: int,
                     seed: int) -> np.ndarray:
    """The shuffled chip of every page, built once per key and shared."""
    chips = [page // pages_per_chip
             for page in range(num_chips * pages_per_chip)]
    random.Random(seed).shuffle(chips)
    shared = np.array(chips, dtype=np.int32)
    shared.setflags(write=False)
    return shared


class RandomLayout(PageLayout):
    """A random permutation of pages onto chips (capacity-respecting).

    Deterministic for a given seed, so simulations are reproducible: the
    seed must be an ``int`` (``None`` would draw from OS entropy). Every
    layout with the same (chips, pages per chip, seed) shares one
    read-only map, shuffled on first use.
    """

    def __init__(self, num_chips: int, pages_per_chip: int, seed: int = 0) -> None:
        super().__init__(num_chips, pages_per_chip)
        if not isinstance(seed, int):
            raise LayoutError(
                f"layout seed must be an int, got {type(seed).__name__}")
        self._chips = _random_chip_map(num_chips, pages_per_chip, seed)

    def chip_of(self, page: int) -> int:
        self._check(page)
        return self._chips.item(page)

    def chip_map(self) -> np.ndarray:
        return self._chips


class MutableLayout(PageLayout):
    """A layout whose page placement can be edited (used by PL migration).

    Starts from any base layout; :meth:`move` relocates one page, keeping
    per-chip occupancy within capacity. Occupancy bookkeeping is what lets
    the migration planner find free frames on destination chips.
    """

    def __init__(self, base: PageLayout) -> None:
        super().__init__(base.num_chips, base.pages_per_chip)
        self._chips = np.array(base.chip_map(), dtype=np.int32)
        self._occupancy = np.bincount(
            self._chips, minlength=self.num_chips).tolist()

    def chip_of(self, page: int) -> int:
        self._check(page)
        return self._chips.item(page)

    def chip_map(self) -> np.ndarray:
        """A read-only view of the live map: it follows later edits."""
        view = self._chips.view()
        view.setflags(write=False)
        return view

    def occupancy(self, chip: int) -> int:
        """Number of pages currently resident on ``chip``."""
        if not 0 <= chip < self.num_chips:
            raise LayoutError(f"chip {chip} out of range")
        return self._occupancy[chip]

    def free_frames(self, chip: int) -> int:
        """Free page frames remaining on ``chip``."""
        return self.pages_per_chip - self.occupancy(chip)

    def move(self, page: int, to_chip: int) -> int:
        """Relocate ``page`` to ``to_chip``; returns the previous chip.

        Raises :class:`LayoutError` if the destination chip is full.
        """
        self._check(page)
        if not 0 <= to_chip < self.num_chips:
            raise LayoutError(f"chip {to_chip} out of range")
        source = self._chips.item(page)
        if source == to_chip:
            return source
        if self.free_frames(to_chip) <= 0:
            raise LayoutError(f"chip {to_chip} has no free frames")
        self._chips[page] = to_chip
        self._occupancy[source] -= 1
        self._occupancy[to_chip] += 1
        return source

    def swap(self, page_a: int, page_b: int) -> None:
        """Exchange the frames of two pages (always capacity-safe)."""
        self._check(page_a)
        self._check(page_b)
        chip_a, chip_b = self._chips.item(page_a), self._chips.item(page_b)
        self._chips[page_a], self._chips[page_b] = chip_b, chip_a


def build_base_layout(config: SimulationConfig, seed: int) -> PageLayout:
    """The initial page placement selected by ``config.base_layout``."""
    memory = config.memory
    if config.base_layout == "sequential":
        return SequentialLayout(memory.num_chips, memory.pages_per_chip)
    if config.base_layout == "interleaved":
        return InterleavedLayout(memory.num_chips, memory.pages_per_chip)
    return RandomLayout(memory.num_chips, memory.pages_per_chip, seed=seed)
