"""Property-based equivalence: vectorized analytics vs. scalar oracles.

Every batch engine in :mod:`repro.analytics` must match its per-access
scalar oracle *bit for bit* — same histograms, same stats, same
per-access hit masks, same final cache state.  Hypothesis drives random
traces (plus adversarial shapes: every access in one set, a single
line repeated, write-storms) through the streaming entry points on one
chunk and on two.  Every LRU cache is checked against the one
per-access walk, :func:`repro.cpusim.cache.lru_walk_scalar`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.cache import SetLRU
from repro.analytics.chunked import (
    analyze_sharing_chunked,
    reuse_histogram_chunked,
)
from repro.analytics.reuse import count_earlier_leq, previous_occurrence
from repro.cpusim.cache import SharedCache, lru_walk_scalar
from repro.cpusim.coherence import (
    simulate_coherent_caches_chunked,
    simulate_coherent_caches_scalar,
)
from repro.cpusim.reuse import reuse_distance_histogram_scalar
from repro.cpusim.sharing import (
    _count_consumer_reads,
    sharing_at_size_chunked,
    sharing_at_size_scalar,
)
from tests.chunks import one_chunk, two_chunks

_SETTINGS = dict(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# Trace strategies
# ----------------------------------------------------------------------
@st.composite
def traces(draw, max_len=400, max_lines=None):
    """A (lines, tids, writes) trace over a small address pool."""
    n = draw(st.integers(min_value=0, max_value=max_len))
    pool = draw(st.integers(min_value=1, max_value=max_lines or 80))
    lines = draw(
        st.lists(
            st.integers(min_value=0, max_value=pool - 1),
            min_size=n, max_size=n,
        )
    )
    tids = draw(
        st.lists(st.integers(min_value=0, max_value=7), min_size=n, max_size=n)
    )
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (
        np.array(lines, dtype=np.int64),
        np.array(tids, dtype=np.int64),
        np.array(writes, dtype=bool),
    )


def _adversarial_traces():
    """Shapes that stress the engines' corner cases."""
    rng = np.random.default_rng(7)
    n = 600
    out = []
    # Every access lands in set 0 of a 16-set cache (stride = n_sets).
    same_set = (np.arange(n) % 7) * 16
    out.append(("same-set", same_set))
    # A single line repeated — one group, all hits after the first.
    out.append(("single-line", np.full(n, 42, dtype=np.int64)))
    # Two interleaved lines in one set.
    out.append(("ping-pong", np.where(np.arange(n) % 2 == 0, 5, 5 + 16)))
    # Random with heavy reuse.
    out.append(("random", rng.integers(0, 50, size=n)))
    # Streaming: no reuse at all.
    out.append(("stream", np.arange(n, dtype=np.int64)))
    return out


# ----------------------------------------------------------------------
# Reuse distance
# ----------------------------------------------------------------------
@settings(**_SETTINGS)
@given(st.lists(st.integers(min_value=-1, max_value=50), max_size=300))
def test_count_earlier_leq_matches_naive(vals):
    values = np.array(vals, dtype=np.int64)
    got = count_earlier_leq(values)
    want = np.array(
        [int((values[:i] <= v).sum()) for i, v in enumerate(vals)],
        dtype=np.int64,
    )
    assert np.array_equal(got, want)


@settings(**_SETTINGS)
@given(traces())
def test_previous_occurrence_matches_naive(trace):
    lines, _, _ = trace
    got = previous_occurrence(lines)
    last = {}
    want = np.empty(lines.size, dtype=np.int64)
    for i, v in enumerate(lines.tolist()):
        want[i] = last.get(v, -1)
        last[v] = i
    assert np.array_equal(got, want)


@settings(**_SETTINGS)
@given(traces())
def test_reuse_histogram_batch_matches_scalar(trace):
    lines, _, _ = trace
    addrs = lines * 64
    h_s, cold_s = reuse_distance_histogram_scalar(addrs)
    for chunks in (one_chunk(addrs), two_chunks(addrs)):
        h_b, cold_b = reuse_histogram_chunked(chunks)
        assert cold_s == cold_b
        m = max(h_s.size, h_b.size)
        assert np.array_equal(
            np.pad(h_s, (0, m - h_s.size)), np.pad(h_b, (0, m - h_b.size))
        )


def test_stack_distance_identity_on_long_trace():
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 500, size=5000)
    prev = previous_occurrence(lines)
    dist = count_earlier_leq(prev) - prev - 1
    # Warm accesses: distance == distinct lines since previous occurrence.
    for i in np.flatnonzero(prev >= 0)[::97]:
        p = int(prev[i])
        assert dist[i] == np.unique(lines[p + 1 : i]).size
    # Cold accesses are flagged through prev, one per distinct line.
    assert int((prev < 0).sum()) == np.unique(lines).size


# ----------------------------------------------------------------------
# Set-associative LRU
# ----------------------------------------------------------------------
@settings(**_SETTINGS)
@given(traces(), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=32))
def test_lru_sets_matches_shared_cache(trace, assoc, n_sets):
    lines, _, _ = trace
    sets = lines % n_sets
    state = {}
    want_hits = lru_walk_scalar(lines, sets, assoc, state)
    for chunks in (one_chunk(lines, sets), two_chunks(lines, sets)):
        lru = SetLRU(n_sets, assoc)
        got_hits = np.concatenate(
            [lru.access(l, s) for l, s in chunks()] + [np.zeros(0, bool)]
        )
        assert np.array_equal(got_hits, want_hits)
        # Final state: every occupied set's lines in LRU-to-MRU order.
        assert lru.resident() == {s: w for s, w in state.items() if w}


@pytest.mark.parametrize("name,lines", _adversarial_traces())
def test_shared_cache_batch_adversarial(name, lines):
    addrs = np.repeat(lines, 8) * 64
    lines = addrs // 64
    state = {}
    hits_ref = lru_walk_scalar(lines, lines % 16, 4, state)
    for chunks in (one_chunk(addrs), two_chunks(addrs)):
        fast = SharedCache(16 * 4 * 64)
        hits_fast = np.concatenate([fast.run(a) for (a,) in chunks()])
        assert np.array_equal(hits_fast, hits_ref), name
        assert (fast.stats.accesses, fast.stats.misses) == (
            lines.size, int((~hits_ref).sum())
        )
        assert fast.lru.resident() == {s: w for s, w in state.items() if w}


# ----------------------------------------------------------------------
# Sharing
# ----------------------------------------------------------------------
@settings(**_SETTINGS)
@given(traces())
def test_consumer_reads_batch_matches_scalar(trace):
    lines, tids, writes = trace
    want = _count_consumer_reads(lines, tids, writes)
    cols = (lines * 64, tids, writes)
    for chunks in (one_chunk(*cols), two_chunks(*cols)):
        assert analyze_sharing_chunked(chunks).consumer_reads == want


@settings(**_SETTINGS)
@given(traces(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=16))
def test_sharing_at_size_batch_matches_scalar(trace, assoc, n_sets):
    lines, tids, _ = trace
    size = n_sets * assoc * 64
    ref = sharing_at_size_scalar(lines * 64, tids, size, assoc=assoc)
    for chunks in (one_chunk(lines * 64, tids), two_chunks(lines * 64, tids)):
        assert sharing_at_size_chunked(chunks, size, assoc=assoc) == ref


def test_sharing_at_size_batch_adversarial():
    rng = np.random.default_rng(11)
    for name, lines in _adversarial_traces():
        tids = rng.integers(0, 8, size=lines.size)
        ref = sharing_at_size_scalar(lines * 64, tids, 16 * 4 * 64)
        for chunks in (one_chunk(lines * 64, tids),
                       two_chunks(lines * 64, tids)):
            assert sharing_at_size_chunked(chunks, 16 * 4 * 64) == ref, name


# ----------------------------------------------------------------------
# Coherence
# ----------------------------------------------------------------------
@settings(**_SETTINGS)
@given(traces(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=8))
def test_coherence_batch_matches_scalar(trace, assoc, n_cores):
    lines, tids, writes = trace
    addrs = lines * 64 + (lines % 8) * 8  # vary the touched word too
    kwargs = dict(
        cache_bytes_per_core=8 * assoc * 64,  # 8 sets
        assoc=assoc,
        n_cores=n_cores,
    )
    want = simulate_coherent_caches_scalar(addrs, tids, writes, **kwargs)
    for chunks in (one_chunk(addrs, tids, writes),
                   two_chunks(addrs, tids, writes)):
        got = simulate_coherent_caches_chunked(chunks, **kwargs)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_coherence_batch_adversarial():
    rng = np.random.default_rng(13)
    for name, lines in _adversarial_traces():
        n = lines.size
        addrs = lines * 64 + rng.integers(0, 8, size=n) * 8
        tids = rng.integers(0, 8, size=n)
        writes = rng.random(n) < 0.5
        want = simulate_coherent_caches_scalar(
            addrs, tids, writes, cache_bytes_per_core=16 * 4 * 64
        )
        for chunks in (one_chunk(addrs, tids, writes),
                       two_chunks(addrs, tids, writes)):
            got = simulate_coherent_caches_chunked(
                chunks, cache_bytes_per_core=16 * 4 * 64
            )
            assert dataclasses.asdict(got) == dataclasses.asdict(want), name


# ----------------------------------------------------------------------
# GPU cache model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hash_sets", [False, True])
def test_gpu_cache_batch_matches_scalar(hash_sets):
    from repro.gpusim.memory import CacheModel

    rng = np.random.default_rng(17)
    addrs = rng.integers(0, 1 << 18, size=8192) * 4
    fast = CacheModel(16 * 1024, 4, 64, hash_sets=hash_sets)
    got = fast.access(addrs)
    lines = addrs // 64
    state = {}
    want = lru_walk_scalar(lines, fast.set_index(lines), 4, state)
    assert np.array_equal(got, want)
    assert (fast.hits, fast.misses) == (int(want.sum()), int((~want).sum()))
    assert fast.lru.resident() == state
