"""Popularity-group construction for PL (Section 4.2.1).

Given the current page-popularity ranking, the grouper picks how many
chips should be "hot" (``N_hot`` — just enough that the most popular pages
filling them absorb the tunable fraction ``p`` of DMA-memory requests) and
splits the hot chips into exponentially sized groups ``G_1`` (1 chip),
``G_2`` (2 chips), ``G_3`` (4 chips), ... with the final hot group
absorbing the remainder; all other chips form the cold group ``G_K``.
With the paper's best setting of 2 groups this degenerates to one hot
group of ``N_hot`` chips plus the cold group.

The group sizes follow an exponential curve *on purpose*: the popularity
distribution is logarithmic (Figure 4), and a strict popularity ordering
would migrate pages whose counts differ insignificantly (a page accessed
8 times is not meaningfully colder than one accessed 10 times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import PopularityLayoutConfig
from repro.errors import LayoutError


@dataclass(frozen=True)
class Group:
    """One popularity group: its chips and the pages assigned to it."""

    index: int
    chips: tuple[int, ...]
    pages: tuple[int, ...]
    is_cold: bool = False


@dataclass
class GroupPlan:
    """The target layout: which group every ranked page belongs to.

    ``groups[i]`` is more popular than ``groups[j]`` for ``i < j``; the
    last group is the cold group. ``page_group`` maps each *tracked* page
    to its target group index; untracked pages implicitly belong to the
    cold group. ``candidates`` records every page that *ranked* hot this
    interval (before the entry-confirmation filter), which the next
    interval uses to confirm new entries.
    """

    groups: list[Group]
    page_group: dict[int, int] = field(default_factory=dict)
    candidates: set[int] = field(default_factory=set)

    @property
    def hot_chips(self) -> set[int]:
        hot: set[int] = set()
        for group in self.groups:
            if not group.is_cold:
                hot.update(group.chips)
        return hot


def hot_group_sizes(n_hot: int, num_hot_groups: int) -> list[int]:
    """Split ``n_hot`` chips into exponentially growing group sizes.

    Sizes are 1, 2, 4, ... with the last hot group absorbing whatever is
    left. When ``n_hot`` is too small to populate every group, trailing
    groups are dropped (a 3-group plan over 2 hot chips becomes [1, 1]).
    """
    if n_hot <= 0:
        return []
    if num_hot_groups <= 1:
        return [n_hot]
    sizes: list[int] = []
    remaining = n_hot
    for i in range(num_hot_groups):
        if remaining <= 0:
            break
        is_last = i == num_hot_groups - 1
        size = remaining if is_last else min(1 << i, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


class PopularityGrouper:
    """Builds :class:`GroupPlan` objects from popularity rankings."""

    def __init__(self, num_chips: int, pages_per_chip: int,
                 config: PopularityLayoutConfig) -> None:
        if num_chips < 2:
            raise LayoutError("PL needs at least two chips")
        self.num_chips = num_chips
        self.pages_per_chip = pages_per_chip
        self.config = config

    def hot_page_count(self, ranked: list[tuple[int, int]]) -> int:
        """Pages from the top of the ranking that cover ``p`` of accesses.

        Only these pages earn a hot frame; clustering anything colder
        would pay migration energy for accesses that never come.
        """
        total = sum(count for _, count in ranked)
        if total == 0:
            return 0
        target = self.config.hot_access_fraction * total
        cumulative = 0
        pages_needed = 0
        for _, count in ranked:
            if count < self.config.min_hot_references:
                break  # everything below is sampling noise, not heat
            cumulative += count
            pages_needed += 1
            if cumulative >= target:
                break
        return pages_needed

    def compute_n_hot(self, ranked: list[tuple[int, int]]) -> int:
        """Chips needed to hold the pages that cover ``p`` of accesses.

        Clamped to [1, num_chips - 1] so a cold group always exists.
        """
        pages_needed = self.hot_page_count(ranked)
        n_hot = max(1, math.ceil(pages_needed / self.pages_per_chip))
        return min(self.num_chips - 1, n_hot)

    def build_plan(self, ranked: list[tuple[int, int]],
                   previous_hot: set[int] | None = None,
                   previous_candidates: set[int] | None = None) -> GroupPlan:
        """The target grouping for the current popularity ranking.

        Hot chips are always the lowest-numbered ones so that successive
        intervals keep the same designation and migration churn stays
        proportional to actual popularity drift. Only the pages that
        cover the ``p`` access fraction are assigned hot frames; every
        other page belongs to the cold group and stays wherever it is.

        Args:
            ranked: ``(page, count)`` pairs, most popular first.
            previous_hot: pages hot in the previous interval. Such a page
                is retained (appended after the new hot pages) while it
                still ranks within ``hysteresis_factor`` times the hot
                page count, damping boundary flapping.
            previous_candidates: pages that ranked hot in the previous
                interval. A page not yet hot must rank hot in two
                consecutive intervals before it is migrated (entry
                confirmation) — a one-interval burst is not worth two
                page copies.
        """
        pages_needed = self.hot_page_count(ranked)
        n_hot = self.compute_n_hot(ranked)
        sizes = hot_group_sizes(n_hot, self.config.num_groups - 1)
        candidates = {page for page, _ in ranked[:pages_needed]}
        hot_pages = list(ranked[:pages_needed])
        if previous_candidates is not None:
            confirmed = previous_candidates | (previous_hot or set())
            hot_pages = [(p, c) for p, c in hot_pages if p in confirmed]
        if previous_hot:
            zone_end = min(len(ranked),
                           int(pages_needed * self.config.hysteresis_factor))
            for page, count in ranked[pages_needed:zone_end]:
                if page in previous_hot:
                    hot_pages.append((page, count))

        groups: list[Group] = []
        page_group: dict[int, int] = {}
        next_chip = 0
        cursor = 0
        for index, size in enumerate(sizes):
            chips = tuple(range(next_chip, next_chip + size))
            capacity = size * self.pages_per_chip
            pages = tuple(page for page, _ in hot_pages[cursor:cursor + capacity])
            for page in pages:
                page_group[page] = index
            groups.append(Group(index=index, chips=chips, pages=pages))
            next_chip += size
            cursor += capacity

        cold_chips = tuple(range(next_chip, self.num_chips))
        cold_pages = tuple(page for page, _ in ranked[pages_needed:]
                           if page not in page_group)
        cold_index = len(groups)
        for page in cold_pages:
            page_group[page] = cold_index
        groups.append(Group(index=cold_index, chips=cold_chips,
                            pages=cold_pages, is_cold=True))
        return GroupPlan(groups=groups, page_group=page_group,
                         candidates=candidates)
