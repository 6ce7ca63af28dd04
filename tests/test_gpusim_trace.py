"""Tests for trace accumulation and aggregate views."""

import numpy as np
import pytest

from repro.gpusim.isa import Category, Space
from repro.gpusim.trace import KernelTrace, LaunchTrace


class TestLaunchTrace:
    def _lt(self):
        tr = KernelTrace("t")
        return tr.new_launch("k", (4, 2), (64, 2), 24), tr

    def test_geometry(self):
        lt, _ = self._lt()
        assert lt.n_blocks == 8
        assert lt.threads_per_block == 128

    def test_charge_skips_empty_warps(self):
        lt, _ = self._lt()
        lt.charge_warps(Category.ALU, np.array([32, 0, 5, 0]))
        assert lt.issued_warp_insts == 2
        assert lt.thread_insts == 37
        assert lt.occupancy_hist[31] == 1
        assert lt.occupancy_hist[4] == 1

    def test_repeat_multiplies(self):
        lt, _ = self._lt()
        lt.charge_warps(Category.MEM, np.array([16]), repeat=10)
        assert lt.issued_warp_insts == 10
        assert lt.thread_insts == 160
        assert lt.occupancy_hist[15] == 10

    def test_transactions_concatenate(self):
        lt, _ = self._lt()
        lt.record_transactions(np.array([0, 64]), 3, False)
        lt.record_transactions(np.array([128]), 5, True)
        addrs, blocks, stores = lt.transactions()
        np.testing.assert_array_equal(addrs, [0, 64, 128])
        np.testing.assert_array_equal(blocks, [3, 3, 5])
        np.testing.assert_array_equal(stores, [False, False, True])
        assert lt.n_transactions == 3
        assert lt.dram_bytes == 3 * 64

    def test_transactions_cache_invalidated_on_append(self):
        lt, _ = self._lt()
        lt.record_transactions(np.array([0]), 0, False)
        assert lt.n_transactions == 1
        lt.record_transactions(np.array([64]), 0, False)
        assert lt.n_transactions == 2

    def test_empty_transactions(self):
        lt, _ = self._lt()
        addrs, blocks, stores = lt.transactions()
        assert addrs.size == blocks.size == stores.size == 0


class TestKernelTraceAggregates:
    def _trace(self):
        tr = KernelTrace("app")
        a = tr.new_launch("k1", (1, 1), (32, 1), 16)
        a.charge_warps(Category.ALU, np.array([32]), repeat=10)
        a.charge_mem_space(Space.GLOBAL, 4)
        a.charge_mem_space(Space.LOCAL, 2)
        a.charge_warps(Category.MEM, np.array([32]), repeat=6)
        b = tr.new_launch("k2", (1, 1), (32, 1), 16)
        b.charge_warps(Category.BRANCH, np.array([16]), repeat=4)
        b.charge_mem_space(Space.SHARED, 6)
        b.charge_warps(Category.MEM, np.array([16]), repeat=6)
        return tr

    def test_totals(self):
        tr = self._trace()
        assert tr.n_launches == 2
        assert tr.issued_warp_insts == 26
        assert tr.thread_insts == 10 * 32 + 6 * 32 + 4 * 16 + 6 * 16

    def test_mem_mix_merges_global_and_local(self):
        mix = self._trace().mem_mix()
        assert mix["global"] == pytest.approx(6 / 12)
        assert mix["shared"] == pytest.approx(6 / 12)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_mem_mix_empty(self):
        mix = KernelTrace("empty").mem_mix()
        assert all(v == 0.0 for v in mix.values())

    def test_occupancy_buckets_sum(self):
        buckets = self._trace().occupancy_buckets()
        assert sum(buckets.values()) == pytest.approx(1.0)
        assert buckets["25-32"] == pytest.approx(16 / 26)
        assert buckets["9-16"] == pytest.approx(10 / 26)

    def test_mean_occupancy(self):
        tr = self._trace()
        expect = (16 * 32 + 10 * 16) / 26
        assert tr.mean_warp_occupancy == pytest.approx(expect)

    def test_category_mix(self):
        mix = self._trace().category_mix()
        assert mix["alu"] == pytest.approx(10 / 26)
        assert mix["mem"] == pytest.approx(12 / 26)
        assert mix["branch"] == pytest.approx(4 / 26)

    def test_empty_buckets(self):
        buckets = KernelTrace("e").occupancy_buckets()
        assert sum(buckets.values()) == 0.0
        assert KernelTrace("e").mean_warp_occupancy == 0.0


class TestAggregateMemoization:
    """Aggregates are fresh after every recording call."""

    def test_aggregates_cached_until_new_data(self):
        tr = KernelTrace("memo")
        a = tr.new_launch("k", (2, 1), (32, 1), 16)
        a.charge_warps(Category.ALU, np.array([32, 32]))
        first = tr.thread_insts
        assert tr.thread_insts == first
        # More data on an *existing* launch shows in the aggregate.
        a.charge_warps(Category.ALU, np.array([32, 32]))
        assert tr.thread_insts == first + 64

    def test_new_launch_invalidates(self):
        tr = KernelTrace("memo")
        a = tr.new_launch("k", (1, 1), (32, 1), 16)
        a.charge_warps(Category.MEM, np.array([16]))
        assert tr.issued_warp_insts == 1
        b = tr.new_launch("k2", (1, 1), (32, 1), 16)
        b.charge_warps(Category.MEM, np.array([16, 8]))
        assert tr.issued_warp_insts == 3

    def test_transactions_invalidate_dram_bytes(self):
        tr = KernelTrace("memo")
        a = tr.new_launch("k", (1, 1), (32, 1), 16)
        assert tr.dram_bytes == 0
        a.record_transactions(np.array([0, 64, 128]), 0, False)
        assert tr.n_transactions == 3
        assert tr.dram_bytes == 3 * 64

    def test_transaction_stream_matches_per_warp_recording(self):
        """record_transaction_stream is the batch engine's entry point;
        appending a pre-assembled stream must be indistinguishable from
        the equivalent sequence of record_transactions calls."""
        a = LaunchTrace("k", (2, 1), (32, 1), 16)
        a.record_transactions(np.array([0, 64]), 0, False)
        a.record_transactions(np.array([128]), 1, True)
        b = LaunchTrace("k", (2, 1), (32, 1), 16)
        b.record_transaction_stream(
            np.array([0, 64, 128]),
            np.array([0, 0, 1]),
            np.array([False, False, True]),
        )
        for u, v in zip(a.transactions(), b.transactions()):
            np.testing.assert_array_equal(u, v)
