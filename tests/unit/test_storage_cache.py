"""Units for the LRU buffer cache."""

import pytest

from repro.errors import ConfigurationError
from repro.storage.cache import BufferCache


class TestLookup:
    def test_miss_then_hit(self):
        cache = BufferCache(4)
        assert not cache.lookup(1)
        cache.insert(1)
        assert cache.lookup(1)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_ratio == 0.5

    def test_hit_ratio_empty(self):
        assert BufferCache(4).hit_ratio == 0.0


class TestEviction:
    def test_lru_order(self):
        cache = BufferCache(2)
        cache.insert(1)
        cache.insert(2)
        evicted = cache.insert(3)
        assert evicted == (1, False)
        assert 1 not in cache and 2 in cache and 3 in cache

    def test_lookup_refreshes_recency(self):
        cache = BufferCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.lookup(1)  # 1 becomes MRU
        evicted = cache.insert(3)
        assert evicted == (2, False)

    def test_dirty_eviction(self):
        cache = BufferCache(1)
        cache.insert(1, dirty=True)
        evicted = cache.insert(2)
        assert evicted == (1, True)

    def test_reinsert_no_eviction(self):
        cache = BufferCache(1)
        cache.insert(1)
        assert cache.insert(1, dirty=True) is None
        evicted = cache.insert(2)
        assert evicted == (1, True)  # dirty bit stuck


class TestDirty:
    def test_mark_dirty(self):
        cache = BufferCache(2)
        cache.insert(1)
        assert cache.mark_dirty(1)
        assert not cache.mark_dirty(99)


class TestValidation:
    def test_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            BufferCache(0)

    def test_len(self):
        cache = BufferCache(4)
        cache.insert(1)
        assert len(cache) == 1
