"""Tests for cache simulation, reuse distance, sharing, and footprints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.chunked import (
    analyze_sharing_chunked,
    reuse_histogram_chunked,
)
from repro.cpusim.cache import PAPER_CACHE_SIZES, SharedCache
from repro.cpusim.reuse import miss_rate_curve_chunked
from tests.chunks import one_chunk, two_chunks


def _cache_stats(chunks, size_bytes, assoc=4):
    """One :class:`SharedCache` run per chunk, as in characterization."""
    cache = SharedCache(size_bytes, assoc=assoc)
    for (addrs,) in chunks():
        cache.run(addrs, record_hits=False)
    return cache.stats


class TestSharedCache:
    def test_streaming_miss_rate(self):
        addrs = np.arange(10000) * 8  # 8 doubles per 64B line
        stats = _cache_stats(one_chunk(addrs), 128 * 1024)
        assert stats.miss_rate == pytest.approx(1 / 8, rel=0.01)

    def test_resident_fits(self):
        addrs = np.tile(np.arange(64) * 64, 100)
        stats = _cache_stats(one_chunk(addrs), 128 * 1024)
        # Only cold misses.
        assert stats.misses == 64
        assert stats.cold_misses == 64

    def test_thrash_when_oversized(self):
        n_lines = 4096  # 256 kB footprint > 128 kB cache, cyclic access
        addrs = np.tile(np.arange(n_lines) * 64, 4)
        stats = _cache_stats(one_chunk(addrs), 128 * 1024)
        assert stats.miss_rate > 0.9

    def test_too_small_cache_rejected(self):
        with pytest.raises(ValueError):
            SharedCache(64, assoc=4, line_bytes=64)

    def test_miss_rates_monotone_in_size(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 22, 5000) // 64 * 64
        vals = [
            _cache_stats(one_chunk(addrs), size).miss_rate
            for size in PAPER_CACHE_SIZES[:5]
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def _naive_reuse(lines):
    """O(n^2) stack distances."""
    hist = {}
    cold = 0
    last = {}
    for t, ln in enumerate(lines):
        if ln in last:
            d = len(set(lines[last[ln] + 1 : t]))
            hist[d] = hist.get(d, 0) + 1
        else:
            cold += 1
        last[ln] = t
    return hist, cold


class TestReuseDistance:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=200))
    def test_matches_naive(self, lines):
        addrs = np.array(lines, dtype=np.int64) * 64
        ref_hist, ref_cold = _naive_reuse(lines)
        for chunks in (one_chunk(addrs), two_chunks(addrs)):
            hist, cold = reuse_histogram_chunked(chunks)
            assert cold == ref_cold
            got = {d: int(c) for d, c in enumerate(hist) if c}
            assert got == ref_hist

    def test_curve_matches_fully_associative_sim(self):
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 18, 4000) // 64 * 64
        curve = miss_rate_curve_chunked(one_chunk(addrs), sizes=(128 * 1024,))
        # Fully-associative exact simulation: assoc == n_lines.
        n_lines = 128 * 1024 // 64
        stats = _cache_stats(one_chunk(addrs), 128 * 1024, assoc=n_lines)
        assert curve[128 * 1024] == pytest.approx(stats.miss_rate, abs=1e-12)

    def test_curve_monotone(self):
        rng = np.random.default_rng(2)
        addrs = rng.integers(0, 1 << 21, 20000) // 64 * 64
        curve = miss_rate_curve_chunked(one_chunk(addrs))
        vals = [curve[s] for s in PAPER_CACHE_SIZES]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_empty_trace(self):
        curve = miss_rate_curve_chunked(one_chunk(np.empty(0, dtype=np.int64)))
        assert all(v == 0.0 for v in curve.values())

    def test_close_approximation_of_4way(self):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 20, 30000) // 8 * 8
        curve = miss_rate_curve_chunked(one_chunk(addrs), sizes=(512 * 1024,))
        exact = _cache_stats(one_chunk(addrs), 512 * 1024).miss_rate
        assert curve[512 * 1024] == pytest.approx(exact, abs=0.02)


class TestSharing:
    def _trace(self, triples):
        a = np.array([t[0] for t in triples], dtype=np.int64)
        t = np.array([t[1] for t in triples], dtype=np.int16)
        w = np.array([t[2] for t in triples], dtype=bool)
        return a, t, w

    def _sharing(self, a, t, w):
        s = analyze_sharing_chunked(one_chunk(a, t, w))
        assert analyze_sharing_chunked(two_chunks(a, t, w)) == s
        return s

    def test_private_lines(self):
        a, t, w = self._trace([(0, 0, False), (64, 1, False)])
        s = self._sharing(a, t, w)
        assert s.shared_lines == 0
        assert s.shared_access_ratio == 0.0

    def test_shared_line_detected(self):
        a, t, w = self._trace([(0, 0, False), (8, 1, False), (64, 0, False)])
        s = self._sharing(a, t, w)
        assert s.total_lines == 2
        assert s.shared_lines == 1
        assert s.shared_access_ratio == pytest.approx(2 / 3)

    def test_consumer_reads(self):
        a, t, w = self._trace([
            (0, 0, True),    # t0 writes line 0
            (0, 1, False),   # t1 reads it -> communication
            (0, 0, False),   # producer reads own data -> not counted
        ])
        s = self._sharing(a, t, w)
        assert s.consumer_reads == 1

    def test_write_shared(self):
        a, t, w = self._trace([(0, 0, True), (0, 1, False), (64, 0, True)])
        s = self._sharing(a, t, w)
        assert s.write_shared_lines == 1

    def test_empty(self):
        s = analyze_sharing_chunked(one_chunk(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int16),
            np.empty(0, dtype=bool),
        ))
        assert s.frac_lines_shared == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 600), st.integers(0, 3), st.booleans()),
        min_size=1, max_size=200,
    ))
    def test_invariants(self, triples):
        a, t, w = self._trace([(x * 16, tid, wr) for x, tid, wr in triples])
        s = self._sharing(a, t, w)
        assert 0 <= s.shared_lines <= s.total_lines
        assert 0 <= s.shared_accesses <= s.total_accesses
        assert 0.0 <= s.frac_lines_shared <= 1.0
        assert 0.0 <= s.shared_access_ratio <= 1.0
        assert s.mean_sharers >= 1.0
