"""Microbenchmarks of the substrates themselves: simulator throughput,
cache/reuse analysis speed, suffix tree construction, analysis kernels.

These quantify the cost model of the reproduction (how expensive each
pipeline stage is) — useful when choosing problem scales.
"""

import numpy as np
import pytest

from repro.core import PCA, linkage
from repro.cpusim import (
    Machine,
    SharedCache,
    analyze_sharing_chunked,
    miss_rate_curve_chunked,
)
from repro.gpusim import GPU
from repro.workloads.rodinia.suffixtree import SuffixTree


def test_gpusim_lane_throughput(benchmark):
    """Functional SIMT execution rate (lane-instructions/second)."""
    n = 65536

    def run():
        gpu = GPU()
        a = gpu.to_device(np.arange(n, dtype=np.float32))
        out = gpu.alloc(n)

        def k(ctx, a, out):
            i = ctx.gtid
            with ctx.masked(i < n):
                v = ctx.load(a, i)
                ctx.alu(4)
                ctx.store(out, i, v * 2 + 1)

        gpu.launch(k, n // 256, 256, a, out)
        return gpu.trace.thread_insts

    insts = benchmark(run)
    assert insts > 0


def test_cpusim_trace_throughput(benchmark):
    """Instrumented access recording rate."""
    def run():
        m = Machine()
        a = m.alloc(1 << 16)

        def w(t):
            for lo in range(0, 1 << 16, 1024):
                t.load(a, np.arange(lo, lo + 1024))

        m.serial(w)
        return m.n_accesses

    assert benchmark(run) == 1 << 16


@pytest.fixture(scope="module")
def trace_1m():
    rng = np.random.default_rng(7)
    return (rng.zipf(1.3, 300_000) % (1 << 18)) * 64


def test_exact_cache_sim_speed(benchmark, trace_1m):
    def run():
        cache = SharedCache(4 * 1024 * 1024)
        cache.run(trace_1m, record_hits=False)
        return cache.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.accesses == trace_1m.size


def test_reuse_distance_speed(benchmark, trace_1m):
    curve = benchmark.pedantic(
        miss_rate_curve_chunked, args=(lambda: iter([(trace_1m,)]),),
        rounds=1, iterations=1,
    )
    assert len(curve) == 8


def test_sharing_analysis_speed(benchmark, trace_1m):
    tids = (np.arange(trace_1m.size) % 8).astype(np.int16)
    writes = np.zeros(trace_1m.size, dtype=bool)

    def chunks():
        return iter([(trace_1m, tids, writes)])

    stats = benchmark.pedantic(
        analyze_sharing_chunked, args=(chunks,), rounds=1, iterations=1
    )
    assert stats.total_accesses == trace_1m.size


def test_suffix_tree_build_speed(benchmark):
    rng = np.random.default_rng(11)
    seq = rng.integers(0, 4, 20_000).astype(np.int8)
    tree = benchmark.pedantic(SuffixTree, args=(seq,), rounds=1, iterations=1)
    assert tree.flatten().n_nodes > seq.size


def test_pca_plus_linkage_speed(benchmark):
    rng = np.random.default_rng(13)
    x = rng.normal(0, 1, (24, 17))

    def run():
        coords = PCA(n_components=5).fit_transform(x)
        return linkage(coords, "average")

    z = benchmark(run)
    assert z.shape == (23, 4)
