"""Exact set-associative shared-cache simulation.

The paper's working-set/sharing methodology (after Bienia et al. [4])
uses an 8-core processor with a single shared cache, 4-way associative
with 64-byte lines, swept from 128 kB to 16 MB.  :class:`SharedCache`
simulates one such cache (Figure 10's 4 MB) over the merged
multithreaded trace, one chunk per :meth:`SharedCache.run`; the
reuse-distance profile (:mod:`repro.cpusim.reuse`) provides the full
sweep, validated against this exact simulator in tests.

Every run goes through the per-set stack-distance kernel of
:mod:`repro.analytics.cache`, which carries the per-set LRU state from
one run to the next; :func:`lru_walk_scalar` is its per-access oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.analytics.cache import SetLRU

#: The paper's cache-size sweep (bytes).
PAPER_CACHE_SIZES = tuple(128 * 1024 * (2 ** i) for i in range(8))


@dataclasses.dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SharedCache:
    """Shared set-associative LRU cache over byte addresses."""

    def __init__(self, size_bytes: int, assoc: int = 4, line_bytes: int = 64):
        if size_bytes < assoc * line_bytes:
            raise ValueError("cache smaller than one set")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = size_bytes // (assoc * line_bytes)
        self.lru = SetLRU(self.n_sets, assoc)
        self.stats = CacheStats()

    def run(
        self, addrs: np.ndarray, record_hits: bool = True
    ) -> Optional[np.ndarray]:
        """Run a byte-address trace; returns the per-access hit mask
        (``None`` with ``record_hits=False``, for stats-only callers)."""
        lines = (addrs // self.line_bytes).astype(np.int64)
        hits = self.lru.access(lines, lines % self.n_sets)
        self.stats.accesses += int(lines.size)
        self.stats.misses += int(lines.size - np.count_nonzero(hits))
        return hits if record_hits else None


def lru_walk_scalar(
    lines: np.ndarray,
    sets: np.ndarray,
    assoc: int,
    state: Optional[Dict[int, List[int]]] = None,
) -> np.ndarray:
    """Per-access set-associative LRU walk: the oracle of the kernel.

    ``state`` maps a set to its resident lines, LRU first (the layout of
    :meth:`repro.analytics.cache.SetLRU.resident`); the walk continues
    from it and leaves the final state in it.  Returns the hit mask.
    """
    state = {} if state is None else state
    hits = np.empty(lines.size, dtype=bool)
    for i, (line, s) in enumerate(zip(lines.tolist(), sets.tolist())):
        ways = state.setdefault(s, [])
        hits[i] = line in ways
        if hits[i]:
            ways.remove(line)
        elif len(ways) == assoc:
            del ways[0]
        ways.append(line)
    return hits
