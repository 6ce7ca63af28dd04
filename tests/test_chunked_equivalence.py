"""Bit-identical equivalence of the chunked analytics vs dense oracles.

The out-of-core pipeline only earns its keep if streaming a trace chunk
by chunk is *indistinguishable* from the dense whole-trace computation.
Every streaming decomposition (reuse distances, sharing, the exact-LRU
caches, coherence, GPU timing) is checked here against its dense
counterpart at several chunk geometries, including the degenerate ones:
single-access chunks, chunks that split mid-launch, and empty appends.
"""

import numpy as np
import pytest

from repro.common import config as cfgmod

_N = 12000


@pytest.fixture(scope="module")
def trace_cols():
    rng = np.random.default_rng(42)
    addrs = (
        rng.integers(0, 3000, _N) * 64 + rng.integers(0, 64, _N)
    ).astype(np.int64)
    tids = rng.integers(0, 8, _N).astype(np.int16)
    writes = rng.random(_N) < 0.3
    return addrs, tids, writes


def _chunker(cols, size):
    n = cols[0].size

    def it():
        for i in range(0, n, size):
            yield tuple(c[i : i + size] for c in cols)

    return it


CHUNK_SIZES = (5000, 4097, 999, 1)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_reuse_histogram_chunked_matches_dense(trace_cols, size):
    from repro.analytics.chunked import reuse_histogram_chunked
    from repro.cpusim.reuse import reuse_distance_histogram

    addrs = trace_cols[0]
    hd, cd = reuse_distance_histogram(addrs, 64)
    hc, cc = reuse_histogram_chunked(_chunker(trace_cols, size), 64)
    assert cc == cd
    np.testing.assert_array_equal(hc, hd)


@pytest.mark.parametrize("size", CHUNK_SIZES[:3])
def test_streaming_sharing_matches_dense(trace_cols, size):
    from repro.analytics.chunked import StreamingSharing
    from repro.cpusim.sharing import analyze_sharing

    addrs, tids, writes = trace_cols
    dense = analyze_sharing(addrs, tids, writes)
    st = StreamingSharing(64)
    for a, t, w in _chunker(trace_cols, size)():
        st.update(a, t, w)
    assert st.result(_chunker(trace_cols, size)) == dense


def test_streaming_sharing_rejects_wide_tids():
    from repro.analytics.chunked import StreamingSharing

    st = StreamingSharing(64)
    with pytest.raises(ValueError):
        st.update(
            np.zeros(4, dtype=np.int64),
            np.full(4, 64, dtype=np.int64),
            np.zeros(4, dtype=bool),
        )


@pytest.mark.parametrize("size", CHUNK_SIZES[:3])
def test_sharing_at_size_chunked_matches_dense(trace_cols, size):
    from repro.cpusim.sharing import sharing_at_size, sharing_at_size_chunked

    addrs, tids, _ = trace_cols
    for cache_bytes in (256 * 1024, 4 * 1024 * 1024):
        dense = sharing_at_size(addrs, tids, cache_bytes)
        chunked = sharing_at_size_chunked(
            _chunker(trace_cols, size), cache_bytes
        )
        assert chunked == dense


@pytest.mark.parametrize("size", CHUNK_SIZES[:3])
def test_coherence_chunked_matches_dense(trace_cols, size):
    from repro.cpusim.coherence import (
        simulate_coherent_caches,
        simulate_coherent_caches_chunked,
    )

    addrs, tids, writes = trace_cols
    dense = simulate_coherent_caches(addrs, tids, writes)
    chunked = simulate_coherent_caches_chunked(_chunker(trace_cols, size))
    assert chunked == dense


@pytest.mark.parametrize("size", (5000, 999))
def test_miss_curves_chunked_match_dense(trace_cols, size):
    from repro.cpusim.reuse import miss_rate_curve, miss_rate_curve_chunked
    from repro.cpusim.workingset import fine_miss_curve, fine_miss_curve_chunked

    addrs = trace_cols[0]
    assert miss_rate_curve_chunked(_chunker(trace_cols, size)) == (
        miss_rate_curve(addrs)
    )
    assert fine_miss_curve_chunked(_chunker(trace_cols, size)) == (
        fine_miss_curve(addrs)
    )


def test_shared_cache_warm_batches_match_dense(trace_cols):
    from repro.cpusim.cache import SharedCache

    addrs = trace_cols[0]
    dense = SharedCache(256 * 1024, assoc=4)
    dense.run(addrs, record_hits=False)
    for size in (5000, 4097):
        warm = SharedCache(256 * 1024, assoc=4)
        for a, _, _ in _chunker(trace_cols, size)():
            warm.run(a, record_hits=False)
        d, w = dense.stats, warm.stats
        assert (d.accesses, d.misses, d.cold_misses, d.evictions) == (
            w.accesses, w.misses, w.cold_misses, w.evictions
        )
    # Mixed batch/scalar boundary: pieces below the batch threshold take
    # the scalar path against the same warm state.
    mixed = SharedCache(256 * 1024, assoc=4)
    pos = 0
    for piece in (6000, 100, 5000, 900):
        mixed.run(addrs[pos : pos + piece], record_hits=False)
        pos += piece
    m = mixed.stats
    d = dense.stats
    assert (d.accesses, d.misses, d.cold_misses, d.evictions) == (
        m.accesses, m.misses, m.cold_misses, m.evictions
    )


def test_characterize_trace_invariant_to_chunk_rows():
    from repro.cpusim import Machine
    from repro.cpusim.metrics import characterize_trace
    from repro.workloads import base as wl
    from repro.common.config import SimScale

    wl.load_all()
    defn = wl.get("hotspot")

    def run():
        m = Machine()
        defn.cpu_fn(m, SimScale.TINY)
        return characterize_trace(m, "hotspot")

    base = run()
    with cfgmod.override(trace_chunk_rows=1000):
        small = run()
    assert base.miss_curve == small.miss_curve
    assert base.miss_rate_4mb == small.miss_rate_4mb
    assert base.sharing == small.sharing
    assert base.data_footprint_4kb == small.data_footprint_4kb
    assert base.fine_miss_curve == small.fine_miss_curve
    assert base.sharing_by_size == small.sharing_by_size
    assert base.coherence == small.coherence


def test_gpu_timing_and_sharing_invariant_to_chunk_rows():
    from repro.gpusim import GPUConfig, TimingModel
    from repro.gpusim.gpu import GPU
    from repro.gpusim.sharing import analyze_gpu_sharing
    from repro.workloads import base as wl
    from repro.common.config import SimScale

    wl.load_all()
    defn = wl.get("hotspot")

    def run():
        gpu = GPU(app_name="hotspot")
        defn.gpu_fn(gpu, SimScale.TINY)
        trace = gpu.trace
        timing = TimingModel(GPUConfig()).time(trace)
        return timing, analyze_gpu_sharing(trace)

    timing_a, sharing_a = run()
    # 1000-row chunks split every launch of the TINY trace many times.
    with cfgmod.override(trace_chunk_rows=1000):
        timing_b, sharing_b = run()
    assert timing_a.cycles == timing_b.cycles
    assert timing_a.dram_bytes == timing_b.dram_bytes
    assert sharing_a == sharing_b
