"""Bit-identical equivalence of the streaming analytics vs scalar oracles.

The out-of-core pipeline only earns its keep if streaming a trace chunk
by chunk is *indistinguishable* from the per-access reference walk.
Every streaming decomposition (reuse distances, sharing, the exact-LRU
caches, coherence, GPU timing) is checked here against its oracle at
several chunk geometries, including the degenerate ones: single-access
chunks, chunks that split mid-launch, and empty appends.  Each oracle
runs once per module.
"""

import numpy as np
import pytest

from repro.common import config as cfgmod
from tests.chunks import chunks_of, one_chunk, two_chunks

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


CHUNK_SIZES = (5000, 4097, 999, 1)


def _sharing_oracle(addrs, tids, writes, line_bytes=64):
    """Per-access whole-run sharing statistics (Bienia-style)."""
    from repro.cpusim.sharing import SharingStats, _count_consumer_reads

    lines = (addrs // line_bytes).astype(np.int64)
    sharers = {}
    written = set()
    for line, tid, w in zip(lines.tolist(), tids.tolist(), writes.tolist()):
        sharers.setdefault(line, set()).add(tid)
        if w:
            written.add(line)
    shared = {line for line, ts in sharers.items() if len(ts) > 1}
    return SharingStats(
        total_lines=len(sharers),
        shared_lines=len(shared),
        total_accesses=int(lines.size),
        shared_accesses=sum(line in shared for line in lines.tolist()),
        write_shared_lines=len(written & shared),
        consumer_reads=_count_consumer_reads(lines, tids, writes),
        mean_sharers=float(np.mean([len(ts) for ts in sharers.values()])),
    )


@pytest.fixture(scope="module")
def oracles(trace_cols):
    """Every scalar oracle over the module's trace, computed once."""
    from repro.cpusim.coherence import simulate_coherent_caches_scalar
    from repro.cpusim.reuse import reuse_distance_histogram_scalar
    from repro.cpusim.sharing import sharing_at_size_scalar

    addrs, tids, writes = trace_cols
    return {
        "reuse": reuse_distance_histogram_scalar(addrs, 64),
        "sharing": _sharing_oracle(addrs, tids, writes),
        "sharing_at_size": {
            size: sharing_at_size_scalar(addrs, tids, size)
            for size in (256 * 1024, 4 * 1024 * 1024)
        },
        "coherence": simulate_coherent_caches_scalar(addrs, tids, writes),
    }


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_reuse_histogram_chunked_matches_dense(trace_cols, oracles, size):
    from repro.analytics.chunked import reuse_histogram_chunked

    hd, cd = oracles["reuse"]
    hc, cc = reuse_histogram_chunked(chunks_of(size, *trace_cols), 64)
    assert cc == cd
    np.testing.assert_array_equal(hc, hd)


@pytest.mark.parametrize("size", CHUNK_SIZES[:3])
def test_streaming_sharing_matches_dense(trace_cols, oracles, size):
    from repro.analytics.chunked import StreamingSharing

    st = StreamingSharing(64)
    for a, t, w in chunks_of(size, *trace_cols)():
        st.update(a, t, w)
    assert st.result(chunks_of(size, *trace_cols)) == oracles["sharing"]


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
def test_sharing_at_size_chunked_matches_dense(trace_cols, oracles, size):
    from repro.cpusim.sharing import sharing_at_size_chunked

    for cache_bytes, want in oracles["sharing_at_size"].items():
        chunked = sharing_at_size_chunked(
            chunks_of(size, *trace_cols), cache_bytes
        )
        assert chunked == want


def test_sharing_at_size_chunked_wide_tids_match_scalar(trace_cols):
    """Thread ids of 64 and more take the same kernel as narrow ones."""
    from repro.cpusim.sharing import (
        SizeSharing,
        sharing_at_size_chunked,
        sharing_at_size_scalar,
    )

    addrs, tids, _ = trace_cols
    addrs = addrs[:6000]
    tids = tids[:6000].astype(np.int64) * 37  # ids up to 259
    assert tids.max() >= 64
    want = sharing_at_size_scalar(addrs, tids, 16 * 1024)
    assert want.shared_accesses > 0
    for chunks in (one_chunk(addrs, tids), two_chunks(addrs, tids)) + tuple(
        chunks_of(size, addrs, tids) for size in CHUNK_SIZES
    ):
        assert sharing_at_size_chunked(chunks, 16 * 1024) == want
    empty = sharing_at_size_chunked(lambda: iter(()), 16 * 1024)
    assert empty == SizeSharing(16 * 1024, 0, 0, 0, 0)


@pytest.mark.parametrize("size", CHUNK_SIZES[:3])
def test_coherence_chunked_matches_dense(trace_cols, oracles, size):
    from repro.cpusim.coherence import simulate_coherent_caches_chunked

    chunked = simulate_coherent_caches_chunked(chunks_of(size, *trace_cols))
    assert chunked == oracles["coherence"]


def test_coherence_chunked_wide_lines_fall_back_to_scalar(trace_cols):
    """Lines too wide for the touched-word masks take the scalar oracle."""
    from repro.cpusim.coherence import (
        CoherenceStats,
        simulate_coherent_caches_chunked,
        simulate_coherent_caches_scalar,
    )

    cols = tuple(c[:3000] for c in trace_cols)
    want = simulate_coherent_caches_scalar(*cols, line_bytes=1024)
    assert want.invalidations > 0
    got = simulate_coherent_caches_chunked(
        chunks_of(1000, *cols), line_bytes=1024
    )
    assert got == want
    empty = simulate_coherent_caches_chunked(lambda: iter(()), line_bytes=1024)
    assert empty == CoherenceStats(8, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("size", (5000, 999))
def test_miss_curves_chunked_match_dense(trace_cols, oracles, size):
    from repro.cpusim.reuse import (
        curve_from_histogram,
        miss_rate_curve_chunked,
    )
    from repro.cpusim.workingset import fine_miss_curve_chunked, fine_size_grid

    hist, cold = oracles["reuse"]
    chunks = chunks_of(size, *trace_cols)
    assert miss_rate_curve_chunked(chunks) == curve_from_histogram(hist, cold)
    assert fine_miss_curve_chunked(chunks) == curve_from_histogram(
        hist, cold, tuple(fine_size_grid())
    )


def _chunkings(*cols):
    """One chunk, two, and every size of CHUNK_SIZES."""
    return (one_chunk(*cols), two_chunks(*cols)) + tuple(
        chunks_of(size, *cols) for size in CHUNK_SIZES
    )


def _shared_cache_matches_walk(addrs, size_bytes, chunks):
    """One SharedCache run per chunk equals the per-access walk."""
    from repro.cpusim.cache import SharedCache, lru_walk_scalar

    cache = SharedCache(size_bytes, assoc=4)
    lines = addrs // 64
    state = {}
    want = lru_walk_scalar(lines, lines % cache.n_sets, 4, state)
    hits = [cache.run(a) for a, *_ in chunks()]
    np.testing.assert_array_equal(np.concatenate(hits), want)
    assert (cache.stats.accesses, cache.stats.misses) == (
        want.size, int((~want).sum())
    )
    assert cache.lru.resident() == state


def test_shared_cache_warm_batches_match_dense(trace_cols):
    addrs = trace_cols[0]
    for chunks in _chunkings(addrs):
        _shared_cache_matches_walk(addrs, 256 * 1024, chunks)
    # Uneven pieces against the same warm state.
    bounds = np.cumsum([0, 6000, 100, 5000, 900])
    pieces = [(addrs[a:b],) for a, b in zip(bounds[:-1], bounds[1:])]
    _shared_cache_matches_walk(
        addrs[: bounds[-1]], 256 * 1024, lambda: iter(pieces)
    )


def test_one_hot_set_stream_matches_walk():
    """Every access in one set: the kernel's cost and result do not
    depend on how the accesses spread over sets."""
    rng = np.random.default_rng(5)
    n_sets = 256 * 1024 // (4 * 64)
    addrs = rng.integers(0, 12, 9000) * n_sets * 64 + 64 * 3
    for chunks in _chunkings(addrs):
        _shared_cache_matches_walk(addrs, 256 * 1024, chunks)


def test_merged_l1_matches_per_sm_walk():
    """Per-SM L1s as set groups of one model: two SMs touching the same
    lines never hit on each other's accesses."""
    from repro.cpusim.cache import lru_walk_scalar
    from repro.gpusim.memory import CacheModel

    rng = np.random.default_rng(9)
    n = 9000
    addrs = rng.integers(0, 600, n) * 128
    sms = rng.integers(0, 2, n)
    for chunks in _chunkings(addrs, sms):
        l1 = CacheModel(16 * 1024, 4, 128, n_caches=2)
        got = np.concatenate([l1.access(a, s) for a, s in chunks()])
        want = np.empty(n, dtype=bool)
        for sm in range(2):
            mine = sms == sm
            lines = addrs[mine] // 128
            want[mine] = lru_walk_scalar(lines, l1.set_index(lines), 4)
        np.testing.assert_array_equal(got, want)
        assert (l1.hits, l1.misses) == (want.sum(), (~want).sum())


def test_lru_telemetry_counts_every_cache_access():
    """``analytics.lru.*`` counts every call, however small."""
    from repro import telemetry
    from repro.gpusim.memory import CacheModel

    rng = np.random.default_rng(3)
    cache = CacheModel(16 * 1024, 4, 64, hash_sets=True)
    assert telemetry.start()
    try:
        for size in (1, 3, 0, 5000, 2):
            cache.access(rng.integers(0, 1 << 16, size) * 64)
    finally:
        counters = telemetry.stop()["counters"]
    assert counters["analytics.lru.accesses"] == cache.accesses
    assert counters["analytics.lru.hits"] == cache.hits
    assert counters["analytics.lru.misses"] == cache.misses


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
