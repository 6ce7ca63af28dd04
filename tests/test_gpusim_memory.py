"""Tests for the GPU memory model: coalescing, banks, caches, allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpusim.cache import lru_walk_scalar
from repro.gpusim.isa import Space
from repro.gpusim.memory import (
    Allocator,
    CacheModel,
    DeviceArray,
    bank_conflict_degree,
    coalesce,
)


class TestCoalesce:
    def test_contiguous_floats_one_segment(self):
        addrs = np.arange(16) * 4 + 256
        assert coalesce(addrs).size == 1

    def test_strided_hits_every_segment(self):
        addrs = np.arange(32) * 64
        assert coalesce(addrs).size == 32

    def test_duplicates_merge(self):
        addrs = np.array([0, 0, 0, 4])
        assert coalesce(addrs).size == 1

    def test_empty(self):
        assert coalesce(np.empty(0, dtype=np.int64)).size == 0

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=64))
    def test_matches_set_of_segments(self, raw):
        addrs = np.array(raw, dtype=np.int64)
        expected = sorted({a // 64 * 64 for a in raw})
        np.testing.assert_array_equal(coalesce(addrs), expected)


class TestBankConflicts:
    def test_conflict_free_unit_stride(self):
        addrs = np.arange(32) * 4
        assert bank_conflict_degree(addrs) == 1

    def test_broadcast_is_free(self):
        addrs = np.zeros(32, dtype=np.int64)
        assert bank_conflict_degree(addrs) == 1

    def test_stride_two_gives_two_way(self):
        addrs = np.arange(32) * 8  # even banks only
        assert bank_conflict_degree(addrs) == 2

    def test_same_bank_full_serialization(self):
        addrs = np.arange(32) * 4 * 32  # all in bank 0
        assert bank_conflict_degree(addrs) == 32

    def test_empty_is_zero(self):
        assert bank_conflict_degree(np.empty(0, dtype=np.int64)) == 0


def _one(cache, addr):
    """Access a single address; True on a hit."""
    return bool(cache.access(np.array([addr]))[0])


class TestCacheModel:
    def test_repeat_hits(self):
        c = CacheModel(1024, assoc=2)
        assert not _one(c, 0)
        assert _one(c, 0)
        assert c.hit_rate == 0.5

    def test_eviction_order_is_lru(self):
        c = CacheModel(2 * 64, assoc=2, line_bytes=64)  # one set, 2 ways
        _one(c, 0)
        _one(c, 64 * 1)  # with 1 set: same set
        _one(c, 0)       # touch 0 -> MRU
        _one(c, 64 * 2)  # evicts line 1
        assert _one(c, 0)
        assert not _one(c, 64 * 1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 4095), min_size=1, max_size=300),
        st.sampled_from([256, 512, 2048]),
        st.sampled_from([1, 2, 4]),
    )
    def test_matches_reference(self, raw, size, assoc):
        c = CacheModel(size, assoc=assoc, line_bytes=64)
        lines = np.array(raw, dtype=np.int64) // 64
        got = c.access(np.array(raw, dtype=np.int64))
        expected = lru_walk_scalar(lines, lines % c.n_sets, assoc)
        assert got.tolist() == expected.tolist()

    def test_hash_sets_avoid_stride_aliasing(self):
        # Power-of-two stride pathological for modulo indexing.
        stride = 64 * 256
        addrs = np.tile(np.arange(16) * stride, 50)
        plain = CacheModel(64 * 1024, assoc=4, line_bytes=64)
        hashed = CacheModel(64 * 1024, assoc=4, line_bytes=64, hash_sets=True)
        plain.access(addrs)
        hashed.access(addrs)
        assert hashed.hit_rate > plain.hit_rate

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CacheModel(0)

    def test_clone_empty_preserves_geometry(self):
        c = CacheModel(2048, assoc=8, line_bytes=32, hash_sets=True)
        d = c.clone_empty()
        assert (d.size_bytes, d.assoc, d.line_bytes, d.hash_sets) == (
            2048, 8, 32, True)
        assert d.accesses == 0


class TestAllocator:
    def test_spaces_disjoint(self):
        a = Allocator()
        g = a.alloc(100, Space.GLOBAL)
        s = a.alloc(100, Space.SHARED)
        assert g != s

    def test_sequential_no_overlap(self):
        a = Allocator()
        b1 = a.alloc(100, Space.GLOBAL)
        b2 = a.alloc(100, Space.GLOBAL)
        assert b2 >= b1 + 100

    def test_reset_reuses(self):
        a = Allocator()
        b1 = a.alloc(64, Space.SHARED)
        a.reset(Space.SHARED)
        b2 = a.alloc(64, Space.SHARED)
        assert b1 == b2


class TestDeviceArray:
    def test_to_host_copies(self):
        arr = DeviceArray(np.zeros(4), 0x1000, Space.GLOBAL)
        h = arr.to_host()
        h[0] = 7
        assert arr.data[0] == 0

    def test_properties(self):
        arr = DeviceArray(np.zeros((2, 3), dtype=np.float32), 0x40, Space.TEX)
        assert arr.itemsize == 4
        assert arr.size == 6
        assert arr.nbytes == 24
        assert arr.shape == (2, 3)


class TestWarmBatchCache:
    """Each CacheModel.access call continues from the state the last one
    left; a stream split into calls must equal the per-access walk."""

    @pytest.mark.parametrize("hash_sets", [False, True])
    def test_scalar_batch_scalar_equals_pure_scalar(self, hash_sets):
        rng = np.random.default_rng(7)
        warm = rng.integers(0, 4096, size=3000) * 64
        big = rng.integers(0, 4096, size=20000) * 64
        tail = rng.integers(0, 4096, size=500) * 64

        mixed = CacheModel(16 * 1024, assoc=4, hash_sets=hash_sets)
        state = {}
        for part in (warm, big, tail):
            lines = part // 64
            want = lru_walk_scalar(lines, mixed.set_index(lines), 4, state)
            np.testing.assert_array_equal(mixed.access(part), want)
        misses = sum(len(p) for p in (warm, big, tail)) - mixed.hits
        assert mixed.misses == misses
        # Post-state must also agree: identical per-set LRU lists.
        assert mixed.lru.resident() == state

    def test_batch_on_cold_cache_unchanged(self):
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 2048, size=8192) * 64
        cold = CacheModel(16 * 1024, assoc=4)
        state = {}
        want = lru_walk_scalar(addrs // 64, addrs // 64 % cold.n_sets, 4,
                               state)
        np.testing.assert_array_equal(cold.access(addrs), want)
        assert cold.lru.resident() == state
