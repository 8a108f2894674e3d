"""Per-page DMA popularity tracking (Section 4.2.1).

The memory controller keeps a few bits of DMA reference count per page
(processor accesses are deliberately excluded — PL clusters pages by *DMA*
popularity). Counters saturate at the configured width and are aged at
interval boundaries, either by a right shift or by resetting, so the
layout adapts to workload drift.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ConfigurationError


class PopularityTracker:
    """Saturating, aged DMA reference counters per page."""

    def __init__(self, counter_bits: int = 8, aging_shift: int = 1) -> None:
        if not 0 < counter_bits <= 32:
            raise ConfigurationError("counter_bits must be in [1, 32]")
        if aging_shift < 0:
            raise ConfigurationError("aging_shift must be non-negative")
        self.counter_bits = counter_bits
        self.aging_shift = aging_shift
        self._max = (1 << counter_bits) - 1
        self._counts: Counter[int] = Counter()
        self.total_recorded = 0

    def record(self, page: int, requests: int = 1) -> None:
        """Count ``requests`` DMA-memory requests against ``page``."""
        if requests <= 0:
            return
        self._counts[page] = min(self._max, self._counts[page] + requests)
        self.total_recorded += requests

    def count(self, page: int) -> int:
        """Current (saturated, aged) reference count of ``page``."""
        return self._counts.get(page, 0)

    def age(self) -> None:
        """Apply the aging step: right shift, or reset if shift is 0."""
        if self.aging_shift == 0:
            self._counts.clear()
            return
        aged = Counter()
        for page, value in self._counts.items():
            value >>= self.aging_shift
            if value:
                aged[page] = value
        self._counts = aged

    def ranked_pages(self) -> list[tuple[int, int]]:
        """Pages and counts, most popular first (ties by page id)."""
        return sorted(self._counts.items(), key=lambda item: (-item[1], item[0]))

    def histogram(self, bins: int = 10) -> list[tuple[float, float]]:
        """The access-distribution histogram of Section 4.2.1.

        Returns ``(page_fraction, access_fraction)`` cumulative points:
        the most popular ``x`` fraction of tracked pages receives ``y``
        fraction of the recorded accesses — the data behind Figure 4.
        """
        ranked = self.ranked_pages()
        total = sum(count for _, count in ranked)
        if not ranked or total == 0 or bins <= 0:
            return []
        points: list[tuple[float, float]] = []
        cumulative = 0
        next_edge = 1
        for index, (_, count) in enumerate(ranked, start=1):
            cumulative += count
            while index >= next_edge * len(ranked) / bins and next_edge <= bins:
                points.append((index / len(ranked), cumulative / total))
                next_edge += 1
        return points
