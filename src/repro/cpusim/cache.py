"""Exact set-associative shared-cache simulation.

The paper's working-set/sharing methodology (after Bienia et al. [4])
uses an 8-core processor with a single shared cache, 4-way associative
with 64-byte lines, swept from 128 kB to 16 MB.  :class:`SharedCache`
simulates one such cache (Figure 10's 4 MB) over the merged
multithreaded trace, one chunk per :meth:`SharedCache.run`; the
reuse-distance profile (:mod:`repro.cpusim.reuse`) provides the full
sweep, validated against this exact simulator in tests.

A run of at least 4096 accesses that spreads over enough sets goes to
the vectorized way-matrix engine (:mod:`repro.analytics.cache`), warm
state included; the per-access scalar path below remains the oracle (its
per-set LRU is an ``OrderedDict``, so hit promotion and eviction are
O(1) rather than the O(assoc) ``list.remove``/``pop(0)`` dance).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

#: The paper's cache-size sweep (bytes).
PAPER_CACHE_SIZES = tuple(128 * 1024 * (2 ** i) for i in range(8))


@dataclasses.dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0
    cold_misses: int = 0
    evictions: int = 0

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
        # set index -> OrderedDict of resident lines, LRU first.
        self._sets: Dict[int, "OrderedDict[int, None]"] = {}
        self._seen: set = set()
        self.stats = CacheStats()

    def access_line(self, line: int) -> bool:
        """Access one line address; returns True on hit."""
        st = self.stats
        st.accesses += 1
        set_idx = line % self.n_sets
        ways = self._sets.get(set_idx)
        if ways is None:
            ways = OrderedDict()
            self._sets[set_idx] = ways
        if line in ways:
            ways.move_to_end(line)
            return True
        st.misses += 1
        if line not in self._seen:
            st.cold_misses += 1
            self._seen.add(line)
        ways[line] = None
        if len(ways) > self.assoc:
            ways.popitem(last=False)
            st.evictions += 1
        return False

    def run(
        self, addrs: np.ndarray, record_hits: bool = True
    ) -> Optional[np.ndarray]:
        """Run a byte-address trace; returns the per-access hit mask.

        With ``record_hits=False`` the mask is neither built nor
        returned — the fast path for stats-only callers.
        """
        if self._batchable(addrs.size):
            result = self._run_batch(addrs, record_hits)
            if result is not None:
                hits, ran_batch = result
                return hits
        lines = (addrs // self.line_bytes).tolist()
        access = self.access_line
        if not record_hits:
            for line in lines:
                access(line)
            return None
        out = np.empty(len(lines), dtype=bool)
        for i, line in enumerate(lines):
            out[i] = access(line)
        return out

    # ------------------------------------------------------------------
    # Vectorized whole-trace path
    # ------------------------------------------------------------------
    def _batchable(self, n: int) -> bool:
        """Batch for long runs — warm state imports into the way matrix."""
        return n >= 4096

    def _run_batch(self, addrs, record_hits):
        from repro.analytics.cache import (
            EMPTY_LINE,
            batch_worthwhile,
            partition_by_set,
            simulate_lru_sets,
        )

        lines = (addrs // self.line_bytes).astype(np.int64)
        part = partition_by_set(lines % self.n_sets)
        if not batch_worthwhile(lines.size, part.counts):
            return None
        init_ways = init_lengths = None
        if self._sets:
            G = part.n_groups
            init_ways = np.full((G, self.assoc), EMPTY_LINE, dtype=np.int64)
            init_lengths = np.zeros(G, dtype=np.int64)
            for g, sid in enumerate(part.set_ids.tolist()):
                ways = self._sets.get(sid)
                if ways:
                    resident = list(ways)  # LRU first
                    init_lengths[g] = len(resident)
                    init_ways[g, : len(resident)] = resident[::-1]
        res = simulate_lru_sets(
            lines[part.order],
            part.starts,
            part.counts,
            self.assoc,
            need_hits=record_hits,
            init_ways=init_ways,
            init_lengths=init_lengths,
        )
        st = self.stats
        st.accesses += int(lines.size)
        misses = int(res.miss_per_group.sum())
        st.misses += misses
        uniq = np.unique(lines)
        if self._seen:
            new_lines = [l for l in uniq.tolist() if l not in self._seen]
            st.cold_misses += len(new_lines)
            self._seen.update(new_lines)
        else:
            st.cold_misses += int(uniq.size)
            self._seen.update(uniq.tolist())
        # Every miss installs a line; occupancy growth accounts for the
        # installs that displaced nothing — the rest evicted.
        init_occupancy = 0 if init_lengths is None else int(init_lengths.sum())
        st.evictions += misses - (int(res.lengths.sum()) - init_occupancy)
        for g in range(part.n_groups):
            length = int(res.lengths[g])
            if length:
                # Way rows are MRU-first; the scalar dict is LRU-first.
                self._sets[int(part.set_ids[g])] = OrderedDict(
                    (int(line), None)
                    for line in res.ways[g, :length][::-1]
                )
        if record_hits:
            hits = np.empty(lines.size, dtype=bool)
            hits[part.order] = res.hits_sorted
            return hits, True
        return None, True

    def resident_lines(self) -> set:
        """Lines currently resident (for sharing-in-cache analyses)."""
        resident = set()
        for ways in self._sets.values():
            resident.update(ways)
        return resident
