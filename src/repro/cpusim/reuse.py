"""Reuse-distance (Mattson stack) profiling.

One pass over the trace yields the LRU stack-distance histogram, from
which the miss rate of a fully-associative LRU cache of *any* size
follows (inclusion property): an access misses iff its reuse distance
(number of distinct lines touched since the previous access to the same
line) is at least the cache's line capacity.  The paper's caches are
4-way set-associative; the LRU-stack curve is a standard, close
approximation (validated against the exact simulator in the test suite).

The classic last-use + Fenwick-tree walk below (O(log n) per access,
pure Python) is the test oracle.  Production streams the trace through
:class:`repro.analytics.chunked.StreamingReuse`, whose offline
previous-occurrence + dominance-counting passes are bit-identical and an
order of magnitude faster on long traces.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.cpusim.cache import PAPER_CACHE_SIZES


class _Fenwick:
    """Binary indexed tree over access timestamps."""

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of positions [0, i]."""
        i += 1
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s


def reuse_distance_histogram_scalar(
    addrs: np.ndarray, line_bytes: int = 64
) -> Tuple[np.ndarray, int]:
    """Scalar (Fenwick) stack-distance histogram — the test oracle."""
    lines = (addrs // line_bytes).astype(np.int64)
    n = lines.size
    if n == 0:
        return np.zeros(1, dtype=np.int64), 0
    fen = _Fenwick(n)
    last_use: Dict[int, int] = {}
    hist: Dict[int, int] = {}
    cold = 0
    seq = lines.tolist()
    for t, line in enumerate(seq):
        prev = last_use.get(line)
        if prev is None:
            cold += 1
        else:
            # Distinct lines since prev = markers in (prev, t).
            d = fen.prefix(t - 1) - fen.prefix(prev)
            hist[d] = hist.get(d, 0) + 1
            fen.add(prev, -1)
        fen.add(t, 1)
        last_use[line] = t
    if hist:
        out = np.zeros(max(hist) + 1, dtype=np.int64)
        for d, c in hist.items():
            out[d] = c
    else:
        out = np.zeros(1, dtype=np.int64)
    return out, cold


def curve_from_histogram(
    hist: np.ndarray,
    cold: int,
    sizes: Tuple[int, ...] = PAPER_CACHE_SIZES,
    line_bytes: int = 64,
) -> Dict[int, float]:
    """Miss rates at each cache size from a stack-distance histogram.

    The inclusion property makes one histogram serve every size: a cache
    holding ``L`` lines misses exactly the accesses with distance >= L,
    plus all cold misses.  Turns the histogram of
    :class:`repro.analytics.chunked.StreamingReuse` into both the paper's
    curve (:func:`miss_rate_curve_chunked`) and the fine-grid curve of
    :mod:`repro.cpusim.workingset`.
    """
    n = int(hist.sum()) + cold
    if n == 0:
        return {size: 0.0 for size in sizes}
    cum = np.cumsum(hist)  # cum[d] = accesses with distance <= d
    total_hist = int(hist.sum())
    out = {}
    for size in sizes:
        capacity = size // line_bytes
        if capacity <= 0:
            hits = 0
        elif capacity - 1 >= hist.size:
            hits = total_hist
        else:
            hits = int(cum[capacity - 1])
        out[size] = (n - hits) / n
    return out


def miss_rate_curve_chunked(
    iter_chunks,
    sizes: Tuple[int, ...] = PAPER_CACHE_SIZES,
    line_bytes: int = 64,
) -> Dict[int, float]:
    """Miss rate (misses per memory reference) at each cache size.

    ``iter_chunks`` is a zero-argument callable returning an iterator of
    (addr, ...) column chunks.  One reuse-distance pass serves every
    size: for a cache holding ``L`` lines, accesses with stack distance
    >= L miss, plus all cold misses.
    """
    from repro.analytics.chunked import reuse_histogram_chunked

    hist, cold = reuse_histogram_chunked(iter_chunks, line_bytes)
    return curve_from_histogram(hist, cold, sizes, line_bytes)
