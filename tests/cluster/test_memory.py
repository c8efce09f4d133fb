"""Tests for the byte-accounted LRU chunk cache, incl. property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.memory import ChunkTooLargeError, LRUChunkCache
from repro.core.chunks import Chunk


def chunk(i: int, size: int = 100) -> Chunk:
    return Chunk(dataset="ds", index=i, size=size)


class TestBasics:
    def test_insert_and_contains(self):
        cache = LRUChunkCache(1000)
        c = chunk(0)
        assert c not in cache
        assert cache.insert(c) == []
        assert c in cache
        assert cache.used_bytes == 100
        assert cache.free_bytes == 900

    def test_touch_hit_and_miss(self):
        cache = LRUChunkCache(1000)
        c = chunk(0)
        assert cache.touch(c) is False
        cache.insert(c)
        assert cache.touch(c) is True

    def test_reinsert_does_not_double_count(self):
        cache = LRUChunkCache(1000)
        c = chunk(0)
        cache.insert(c)
        assert cache.insert(c) == []
        assert cache.used_bytes == 100
        assert len(cache) == 1

    def test_evict_explicit(self):
        cache = LRUChunkCache(1000)
        c = chunk(0)
        cache.insert(c)
        assert cache.evict(c) is True
        assert cache.evict(c) is False
        assert cache.used_bytes == 0

    def test_clear(self):
        cache = LRUChunkCache(1000)
        for i in range(5):
            cache.insert(chunk(i))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_chunk_too_large(self):
        cache = LRUChunkCache(50)
        with pytest.raises(ChunkTooLargeError):
            cache.insert(chunk(0, size=51))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUChunkCache(0)


class TestInsertIsOneLRUOperation:
    """``insert`` handles residency, capacity and eviction on its own."""

    def test_resident_insert_returns_empty_and_moves_to_mru(self):
        cache = LRUChunkCache(300)
        seen = []
        for i in range(3):
            cache.insert(chunk(i))
        cache.observer = lambda kind, c: seen.append((kind, c))
        assert cache.insert(chunk(0)) == []
        assert cache.chunks() == [chunk(1), chunk(2), chunk(0)]
        assert cache.used_bytes == 300
        assert seen == []
        # chunk 0 is now most recently used, so chunk 1 goes first.
        assert cache.insert(chunk(3)) == [chunk(1)]

    def test_too_large_raises_before_any_mutation(self):
        cache = LRUChunkCache(250)
        seen = []
        cache.insert(chunk(0))
        cache.insert(chunk(1))
        cache.observer = lambda kind, c: seen.append((kind, c))
        with pytest.raises(ChunkTooLargeError):
            cache.insert(chunk(2, size=251))
        assert cache.chunks() == [chunk(0), chunk(1)]
        assert cache.used_bytes == 200
        assert seen == []
        cache.check_invariants()

    def test_observer_sees_evictions_before_the_insert(self):
        cache = LRUChunkCache(300)
        for i in range(3):
            cache.insert(chunk(i))
        seen = []
        cache.observer = lambda kind, c: seen.append((kind, c))
        assert cache.insert(chunk(3, size=200)) == [chunk(0), chunk(1)]
        assert seen == [
            ("evict", chunk(0)),
            ("evict", chunk(1)),
            ("insert", chunk(3, size=200)),
        ]
        assert cache.chunks() == [chunk(2), chunk(3, size=200)]
        cache.check_invariants()


class TestLRUOrder:
    def test_eviction_order_is_least_recent_first(self):
        cache = LRUChunkCache(300)
        a, b, c, d = (chunk(i) for i in range(4))
        cache.insert(a)
        cache.insert(b)
        cache.insert(c)
        evicted = cache.insert(d)  # a is LRU
        assert evicted == [a]
        assert a not in cache and d in cache

    def test_touch_protects_from_eviction(self):
        cache = LRUChunkCache(300)
        a, b, c, d = (chunk(i) for i in range(4))
        cache.insert(a)
        cache.insert(b)
        cache.insert(c)
        cache.touch(a)  # now b is LRU
        assert cache.insert(d) == [b]

    def test_multi_eviction_for_large_insert(self):
        cache = LRUChunkCache(300)
        small = [chunk(i, size=100) for i in range(3)]
        for s in small:
            cache.insert(s)
        big = chunk(99, size=180)
        evicted = cache.insert(big)
        assert evicted == small[:2]
        assert cache.used_bytes == 100 + 180

    def test_lru_chunk_and_iteration_order(self):
        cache = LRUChunkCache(1000)
        chunks = [chunk(i) for i in range(3)]
        for c in chunks:
            cache.insert(c)
        assert cache.lru_chunk() == chunks[0]
        assert cache.chunks() == chunks
        cache.touch(chunks[0])
        assert cache.lru_chunk() == chunks[1]

    def test_empty_lru_chunk(self):
        assert LRUChunkCache(10).lru_chunk() is None


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.sampled_from(["insert", "touch", "evict"])),
            max_size=200,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants_under_random_ops(self, ops):
        """Byte accounting and capacity hold under arbitrary op sequences."""
        cache = LRUChunkCache(500)
        model = {}
        for i, op in ops:
            c = chunk(i, size=60 + 10 * (i % 4))
            if op == "insert":
                evicted = cache.insert(c)
                for victim in evicted:
                    model.pop(victim, None)
                model[c] = c.size
            elif op == "touch":
                assert cache.touch(c) == (c in model)
            else:
                assert cache.evict(c) == (c in model)
                model.pop(c, None)
            cache.check_invariants()
            assert cache.used_bytes == sum(model.values())
            assert set(cache.chunks()) == set(model)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_capacity(self, indices):
        cache = LRUChunkCache(256)
        for i in indices:
            cache.insert(chunk(i, size=50 + (i % 7) * 20))
            assert cache.used_bytes <= 256

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_most_recent_insert_always_resident(self, indices):
        cache = LRUChunkCache(200)
        for i in indices:
            c = chunk(i, size=80)
            cache.insert(c)
            assert c in cache
