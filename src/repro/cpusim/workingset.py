"""Working-set identification from miss-rate curves.

Bienia et al. [4] — whose methodology the paper adopts — identify each
workload's *working sets* (WS1, WS2) as the cache sizes where the
miss-rate curve drops sharply: the plateaus between drops are stable
regimes, the drops mark a working set becoming cache-resident.  This
module detects those knees from the reuse-distance miss curve, giving
the "how much cache does this benchmark want" numbers that architects
read off Figure 8's underlying data.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro.cpusim.reuse import curve_from_histogram


@dataclasses.dataclass
class WorkingSet:
    """One detected working set."""

    size_bytes: int            # cache size at which it becomes resident
    miss_rate_before: float    # plateau above the knee
    miss_rate_after: float     # plateau below the knee

    @property
    def drop(self) -> float:
        """Absolute miss-rate reduction when this working set fits."""
        return self.miss_rate_before - self.miss_rate_after


def fine_size_grid(
    points_per_octave: int = 2,
    min_size: int = 16 * 1024,
    max_size: int = 32 * 1024 * 1024,
) -> List[int]:
    """Log-spaced cache sizes, ``points_per_octave`` per doubling."""
    sizes: List[int] = []
    size = min_size
    while size <= max_size:
        for step in range(points_per_octave):
            s = int(size * 2 ** (step / points_per_octave))
            if s <= max_size:
                sizes.append(s)
        size *= 2
    return sorted(set(sizes))


def fine_miss_curve_chunked(
    iter_chunks,
    line_bytes: int = 64,
    points_per_octave: int = 2,
    min_size: int = 16 * 1024,
    max_size: int = 32 * 1024 * 1024,
) -> Dict[int, float]:
    """Miss rate on a fine logarithmic grid of cache sizes.

    ``iter_chunks`` is a zero-argument callable returning an iterator of
    (addr, ...) column chunks.  One reuse-distance pass serves every
    size (stack inclusion), so the fine grid costs no more than the
    paper's eight points.
    """
    from repro.analytics.chunked import reuse_histogram_chunked

    hist, cold = reuse_histogram_chunked(iter_chunks, line_bytes)
    grid = fine_size_grid(points_per_octave, min_size, max_size)
    return curve_from_histogram(hist, cold, tuple(grid), line_bytes)


def detect_working_sets(
    curve: Dict[int, float],
    min_drop_fraction: float = 0.2,
    max_sets: int = 3,
) -> List[WorkingSet]:
    """Knees of a miss-rate curve.

    A knee is a size where the miss rate falls by at least
    ``min_drop_fraction`` of the total curve range within one grid step.
    Returns up to ``max_sets`` working sets, largest drop first, then
    re-sorted by size.
    """
    sizes = sorted(curve)
    if len(sizes) < 2:
        return []
    rates = np.array([curve[s] for s in sizes])
    total_range = rates.max() - rates.min()
    if total_range <= 0:
        return []
    drops = rates[:-1] - rates[1:]
    knees = [
        WorkingSet(sizes[i + 1], float(rates[i]), float(rates[i + 1]))
        for i in range(len(drops))
        if drops[i] >= min_drop_fraction * total_range
    ]
    knees.sort(key=lambda wsp: -wsp.drop)
    knees = knees[:max_sets]
    knees.sort(key=lambda wsp: wsp.size_bytes)
    # Merge knees on adjacent grid points (one physical working set can
    # straddle a grid boundary).
    merged: List[WorkingSet] = []
    for ws in knees:
        if merged and ws.size_bytes <= merged[-1].size_bytes * 2:
            prev = merged[-1]
            merged[-1] = WorkingSet(
                prev.size_bytes,
                max(prev.miss_rate_before, ws.miss_rate_before),
                min(prev.miss_rate_after, ws.miss_rate_after),
            )
        else:
            merged.append(ws)
    return merged
