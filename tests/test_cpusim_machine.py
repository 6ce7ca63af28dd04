"""Tests for the instrumented machine, thread contexts, and trace merge."""

import numpy as np
import pytest

from repro.cpusim import Machine


class TestMemoryOps:
    def test_load_store_roundtrip(self):
        m = Machine(n_threads=2)
        a = m.array(np.arange(10.0))
        b = m.alloc(10)

        def w(t):
            v = t.load(a, np.arange(10))
            t.store(b, np.arange(10), v * 2)

        m.serial(w)
        np.testing.assert_allclose(b.data, np.arange(10) * 2)

    def test_scalar_index(self):
        m = Machine()
        a = m.array(np.array([5.0, 7.0]))

        def w(t):
            assert t.load(a, 1) == 7.0
            t.store(a, 0, 9.0)

        m.serial(w)
        assert a.data[0] == 9.0

    def test_out_of_bounds(self):
        m = Machine()
        a = m.alloc(4)

        def w(t):
            t.load(a, 10)

        with pytest.raises(IndexError):
            m.serial(w)

    def test_update_rmw(self):
        m = Machine()
        a = m.array(np.array([1.0, 2.0]))

        def w(t):
            t.update(a, np.array([0, 1]), lambda v: v + 10)

        m.serial(w)
        np.testing.assert_allclose(a.data, [11.0, 12.0])
        assert m.counts.load == 2 and m.counts.store == 2

    def test_2d_array_flat_addressing(self):
        m = Machine()
        a = m.array(np.zeros((4, 4)))

        def w(t):
            t.store(a, 5, 3.0)   # row 1, col 1

        m.serial(w)
        assert a.data[1, 1] == 3.0


class TestPartitioning:
    def test_chunk_covers_range(self):
        m = Machine(n_threads=3)
        seen = []

        def w(t):
            seen.extend(t.chunk(10))

        m.parallel(w)
        assert sorted(seen) == list(range(10))

    def test_strided_covers_range(self):
        m = Machine(n_threads=3)
        seen = []

        def w(t):
            seen.extend(t.strided(10))

        m.parallel(w)
        assert sorted(seen) == list(range(10))

    def test_parallel_returns_results(self):
        m = Machine(n_threads=4)
        out = m.parallel(lambda t: t.tid * 10)
        assert out == [0, 10, 20, 30]


class TestTraceMerge:
    def test_counts_accumulate(self):
        m = Machine(n_threads=2)
        a = m.alloc(100)

        def w(t):
            t.load(a, np.arange(50))
            t.alu(7)
            t.branch(3)

        m.parallel(w)
        assert m.counts.load == 100
        assert m.counts.alu == 14
        assert m.counts.branch == 6

    def test_round_robin_interleave(self):
        m = Machine(n_threads=2, quantum=4)
        a = m.alloc(64)

        def w(t):
            base = t.tid * 32
            for i in range(8):
                t.load(a, base + i)

        m.parallel(w)
        addrs, tids, writes = m.trace()
        # First quantum from tid 0, second from tid 1, alternating.
        assert tids[:4].tolist() == [0] * 4
        assert tids[4:8].tolist() == [1] * 4
        assert tids[8:12].tolist() == [0] * 4

    def test_single_thread_region_skips_interleave(self):
        m = Machine(n_threads=4)
        a = m.alloc(8)
        m.serial(lambda t: t.load(a, np.arange(8)))
        addrs, tids, writes = m.trace()
        assert (tids == 0).all()
        assert addrs.size == 8

    def test_footprint_pages(self):
        m = Machine()
        a = m.alloc(4096, dtype=np.int8)   # exactly one page if aligned

        def w(t):
            t.load(a, np.arange(4096))

        m.serial(w)
        assert m.data_footprint_pages() in (1, 2)  # alignment-dependent

    def test_trace_cache_invalidation(self):
        m = Machine()
        a = m.alloc(4)
        m.serial(lambda t: t.load(a, 0))
        assert m.n_accesses == 1
        m.serial(lambda t: t.load(a, 1))
        assert m.n_accesses == 2

    def test_write_flags(self):
        m = Machine()
        a = m.alloc(4)

        def w(t):
            t.load(a, 0)
            t.store(a, 1, 1.0)

        m.serial(w)
        _, _, writes = m.trace()
        assert writes.tolist() == [False, True]


class TestMixFractions:
    def test_mix_sums_to_one(self):
        m = Machine()
        a = m.alloc(4)

        def w(t):
            t.load(a, 0)
            t.alu(2)
            t.branch(1)

        m.serial(w)
        assert sum(m.counts.mix().values()) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Bounds-check contract: scalar and vector paths, load / store / update
# ----------------------------------------------------------------------
BAD_INDICES = [
    # (index, the bad entry the message names); size 6 below
    (-1, -1),
    (np.int64(-3), -3),
    (6, 6),
    (np.int32(9), 9),
    (np.uint64(2**64 - 1), -1),  # named as its int64 conversion
    (np.array([0, 1, -2, 3]), -2),
    (np.array([0, 6, 1]), 6),
    (np.array([[0, 1], [7, 2]]), 7),
    ([0, -1], -1),
    (np.array(-4), -4),
]


class TestBoundsContract:
    @pytest.mark.parametrize("op", ["load", "store", "update"])
    @pytest.mark.parametrize(
        "idx,bad", BAD_INDICES, ids=[repr(i) for i, _ in BAD_INDICES]
    )
    def test_out_of_bounds_raises_and_leaves_no_trace(self, op, idx, bad):
        m = Machine(n_threads=2)
        a = m.array(np.arange(6.0), name="victim")
        errors = []

        def w(t):
            t.load(a, 0)
            if t.tid == 1:
                call = {
                    "load": lambda: t.load(a, idx),
                    "store": lambda: t.store(a, idx, 99.0),
                    "update": lambda: t.update(a, idx, lambda v: v + 1),
                }[op]
                try:
                    call()
                except IndexError as e:
                    errors.append(str(e))
            t.store(a, 5, 5.0)

        m.parallel(w)
        assert errors == [
            f"thread 1: index {bad} out of bounds for victim (size 6)"
        ]
        addrs, tids, writes = m.trace()
        assert addrs.tolist() == [a.base, a.base + 40] * 2
        assert tids.tolist() == [0, 0, 1, 1]
        assert writes.tolist() == [False, True] * 2
        assert (m.counts.load, m.counts.store, m.counts.alu) == (2, 2, 0)
        np.testing.assert_array_equal(a.data, np.arange(6.0))
