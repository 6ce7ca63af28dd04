"""Tests for the private-cache write-invalidate coherence simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpusim.coherence import (
    CoherenceStats,
    simulate_coherent_caches_chunked,
    simulate_coherent_caches_scalar,
)
from tests.chunks import chunks_of, one_chunk, two_chunks


def _trace(triples):
    a = np.array([t[0] for t in triples], dtype=np.int64)
    tid = np.array([t[1] for t in triples], dtype=np.int16)
    wr = np.array([t[2] for t in triples], dtype=bool)
    return a, tid, wr


def run(triples, **kw):
    """The scalar oracle's stats, asserted equal to the streaming
    engine's on one chunk, on two and on single-access chunks."""
    cols = _trace(triples)
    want = simulate_coherent_caches_scalar(*cols, **kw)
    for chunks in (one_chunk(*cols), two_chunks(*cols), chunks_of(1, *cols)):
        assert simulate_coherent_caches_chunked(chunks, **kw) == want
    return want


class TestProtocol:
    def test_private_reads_hit(self):
        stats = run([(0, 0, False), (0, 0, False), (0, 0, False)])
        assert stats.misses == 1 and stats.cold_misses == 1
        assert stats.invalidations == 0

    def test_write_invalidates_reader(self):
        stats = run([
            (0, 0, False),   # core 0 reads line
            (0, 1, True),    # core 1 writes -> invalidate core 0's copy
            (0, 0, False),   # core 0 re-reads -> coherence miss
        ])
        assert stats.invalidations == 1
        assert stats.coherence_misses == 1

    def test_read_does_not_invalidate(self):
        stats = run([(0, 0, False), (0, 1, False), (0, 0, False)])
        assert stats.invalidations == 0
        assert stats.misses == 2  # one cold per core

    def test_ping_pong(self):
        triples = [(0, t % 2, True) for t in range(10)]
        stats = run(triples)
        assert stats.invalidations == 9
        assert stats.coherence_misses == 8  # all but the two cold installs

    def test_writeback_on_dirty_eviction(self):
        # One set (cache of 2 ways x 64B lines): write three lines.
        stats = run(
            [(0, 0, True), (64, 0, True), (128, 0, True)],
            cache_bytes_per_core=128, assoc=2,
        )
        assert stats.writebacks == 1

    def test_false_sharing_detected(self):
        # Two threads write different words of the SAME line.
        triples = []
        for i in range(6):
            triples.append((0, 0, True))
            triples.append((8, 1, True))
        stats = run(triples)
        assert stats.invalidations >= 10
        # Neither thread ever touches the other's word: pure false sharing.
        assert stats.false_sharing_invalidations == stats.invalidations
        assert stats.false_sharing_fraction == 1.0

    def test_true_sharing_classified(self):
        # Both threads read and write the SAME word.
        triples = [(0, t % 2, True) for t in range(8)]
        stats = run(triples)
        assert stats.invalidations >= 6
        assert stats.true_sharing_invalidations == stats.invalidations
        assert stats.false_sharing_fraction == 0.0

    def test_mixed_sharing_partition(self):
        rng = np.random.default_rng(5)
        triples = [
            (int(a) * 8, int(t), bool(w))
            for a, t, w in zip(
                rng.integers(0, 64, 2000),   # few lines -> much sharing
                rng.integers(0, 4, 2000),
                rng.random(2000) < 0.5,
            )
        ]
        stats = run(triples)
        assert (stats.true_sharing_invalidations
                + stats.false_sharing_invalidations) == stats.invalidations

    def test_miss_classes_partition(self):
        rng = np.random.default_rng(0)
        triples = [
            (int(a) * 8, int(t), bool(w))
            for a, t, w in zip(
                rng.integers(0, 4096, 3000),
                rng.integers(0, 8, 3000),
                rng.random(3000) < 0.3,
            )
        ]
        stats = run(triples, cache_bytes_per_core=16 * 1024)
        assert stats.cold_misses + stats.coherence_misses + stats.capacity_misses == stats.misses
        assert stats.capacity_misses >= 0

    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 3), st.booleans()),
        min_size=1, max_size=300,
    ))
    def test_invariants(self, raw):
        triples = [(a * 16, t, w) for a, t, w in raw]
        stats = run(triples, cache_bytes_per_core=4096)
        assert 0 <= stats.misses <= stats.accesses
        assert 0 <= stats.cold_misses <= stats.misses
        assert 0 <= stats.coherence_misses <= stats.misses
        assert stats.capacity_misses >= 0
        assert 0.0 <= stats.coherence_miss_fraction <= 1.0


class TestAgainstSharedCache:
    def test_read_only_trace_matches_partitioned_private(self):
        """With thread-private data, private caches see only cold misses."""
        triples = [(tid * 65536 + i * 8, tid, False)
                   for tid in range(4) for i in range(200)]
        stats = run(triples, cache_bytes_per_core=64 * 1024)
        assert stats.misses == stats.cold_misses
        assert stats.coherence_misses == 0

    def test_workload_integration(self):
        from repro.common.config import SimScale
        from repro.cpusim import Machine
        from repro.workloads import get

        machine = Machine()
        get("canneal").cpu_fn(machine, SimScale.TINY)
        stats = simulate_coherent_caches_chunked(machine.iter_trace_chunks)
        # Concurrent swaps on the shared placement must produce
        # invalidation traffic.
        assert stats.invalidations > 0
        assert stats.miss_rate > 0
