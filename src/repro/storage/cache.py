"""The main-memory buffer cache of a data server (Figure 1).

An LRU cache of page frames with dirty tracking: reads that hit avoid the
disk entirely (network DMA straight out of memory); reads that miss pull
the page in via a disk DMA; writes dirty their page and are flushed to
disk when evicted (write-back). The cache's index table is the metadata
the server's processor consults — the paper keeps metadata out of scope,
and so do we: only the resulting DMA transfers reach the trace.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigurationError


class BufferCache:
    """An LRU page cache with write-back dirty handling."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity_pages = capacity_pages
        self._frames: OrderedDict[int, bool] = OrderedDict()  # page -> dirty
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page: int) -> bool:
        return page in self._frames

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, page: int) -> bool:
        """True (and a recency bump) if ``page`` is resident."""
        if page in self._frames:
            self._frames.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, page: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Make ``page`` resident; returns an evicted ``(page, dirty)``.

        If the page is already resident it is bumped (and marked dirty if
        requested) with no eviction.
        """
        if page in self._frames:
            self._frames.move_to_end(page)
            if dirty:
                self._frames[page] = True
            return None
        evicted = None
        if len(self._frames) >= self.capacity_pages:
            evicted = self._frames.popitem(last=False)
        self._frames[page] = dirty
        return evicted

    def mark_dirty(self, page: int) -> bool:
        """Mark a resident page dirty; returns False if not resident."""
        if page not in self._frames:
            return False
        self._frames[page] = True
        self._frames.move_to_end(page)
        return True

    def mark_clean(self, page: int) -> None:
        """Clear a resident page's dirty bit without touching recency
        (checkpoint destaging must not distort the LRU order)."""
        if page in self._frames:
            self._frames[page] = False

    def dirty_pages(self) -> list[int]:
        """Dirty resident pages, LRU first (the checkpoint flush order)."""
        return [page for page, dirty in self._frames.items() if dirty]
