"""Micro-benchmarks: streaming analytics engines vs. scalar oracles.

The headline number is the reuse-distance histogram on a >= 1M-access
synthetic trace: the streaming engine, fed the trace as one chunk, must
be at least 5x faster than the scalar Fenwick walk while producing an
identical histogram.  The other benchmarks time the sharing and
coherence engines on the same trace family and assert exact agreement
(speedups printed for the record; their scalar baselines are too slow
to gate tightly at this size).
"""

import dataclasses
import time

import numpy as np
import pytest

N_ACCESSES = 1_000_000


def _synthetic_trace(n=N_ACCESSES, seed=0):
    """A Zipf-flavoured multithreaded trace: hot lines plus a long tail.

    Mirrors the structure of the real workload traces (strong reuse, a
    working set much larger than one cache set) so the batch engines'
    round counts are representative, not best-case.
    """
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 4_096, size=n)
    cold = rng.integers(0, 1 << 22, size=n)
    lines = np.where(rng.random(n) < 0.7, hot, cold).astype(np.int64)
    addrs = lines * 64 + rng.integers(0, 8, size=n) * 8
    tids = rng.integers(0, 8, size=n).astype(np.int64)
    writes = rng.random(n) < 0.3
    return addrs, tids, writes


@pytest.fixture(scope="module")
def trace():
    return _synthetic_trace()


def _one_chunk(*cols):
    return lambda: iter([cols])


def test_reuse_histogram_speedup(trace):
    from repro.analytics.chunked import reuse_histogram_chunked
    from repro.cpusim.reuse import reuse_distance_histogram_scalar

    addrs, _, _ = trace
    t0 = time.perf_counter()
    hist_s, cold_s = reuse_distance_histogram_scalar(addrs)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    hist_b, cold_b = reuse_histogram_chunked(_one_chunk(addrs))
    batch_s = time.perf_counter() - t0

    assert cold_s == cold_b
    m = max(hist_s.size, hist_b.size)
    assert np.array_equal(
        np.pad(hist_s, (0, m - hist_s.size)),
        np.pad(hist_b, (0, m - hist_b.size)),
    )
    speedup = scalar_s / batch_s
    print(
        f"\nreuse-distance {addrs.size:,} accesses: "
        f"scalar {scalar_s:.2f}s, batch {batch_s:.2f}s, {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"batch path only {speedup:.1f}x faster"


def test_sharing_at_size_speedup(trace):
    from repro.cpusim.sharing import (
        sharing_at_size_chunked,
        sharing_at_size_scalar,
    )

    addrs, tids, _ = trace
    size = 1 * 1024 * 1024
    t0 = time.perf_counter()
    fast = sharing_at_size_chunked(_one_chunk(addrs, tids), size)
    batch_s = time.perf_counter() - t0

    sub = slice(0, 100_000)  # scalar baseline on a tenth of the trace
    t0 = time.perf_counter()
    ref = sharing_at_size_scalar(addrs[sub], tids[sub], size)
    scalar_sub_s = time.perf_counter() - t0

    check = sharing_at_size_chunked(_one_chunk(addrs[sub], tids[sub]), size)
    assert (check.shared_accesses, check.lifetimes, check.shared_lifetimes) \
        == (ref.shared_accesses, ref.lifetimes, ref.shared_lifetimes)
    print(
        f"\nsharing@1MB {addrs.size:,} accesses: batch {batch_s:.2f}s; "
        f"scalar {scalar_sub_s:.2f}s for 10% of the trace"
    )
    assert fast.total_accesses == addrs.size


def test_coherence_speedup(trace):
    from repro.cpusim.coherence import (
        simulate_coherent_caches_chunked,
        simulate_coherent_caches_scalar,
    )

    addrs, tids, writes = trace
    t0 = time.perf_counter()
    fast = simulate_coherent_caches_chunked(_one_chunk(addrs, tids, writes))
    batch_s = time.perf_counter() - t0

    sub = slice(0, 100_000)
    t0 = time.perf_counter()
    ref = simulate_coherent_caches_scalar(addrs[sub], tids[sub], writes[sub])
    scalar_sub_s = time.perf_counter() - t0

    check = simulate_coherent_caches_chunked(
        _one_chunk(addrs[sub], tids[sub], writes[sub])
    )
    assert dataclasses.asdict(check) == dataclasses.asdict(ref)
    print(
        f"\ncoherence {addrs.size:,} accesses: batch {batch_s:.2f}s; "
        f"scalar {scalar_sub_s:.2f}s for 10% of the trace"
    )
    assert fast.accesses == addrs.size
