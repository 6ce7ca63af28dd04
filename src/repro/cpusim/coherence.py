"""Private-cache coherence simulation (extension beyond the paper).

The paper's methodology (after Bienia et al.) uses a single cache shared
by all 8 cores, which makes sharing visible as hit-rate effects but
hides *coherence traffic*.  This module simulates per-core private
caches with a write-invalidate MSI-style protocol over the same merged
trace, reporting invalidations, coherence misses, and the split of
misses into the classic cold / capacity-conflict / coherence classes —
the measurements a private-cache CMP study would add.

Protocol (line granularity):
- A read installs the line Shared in the reader's cache.
- A write installs/promotes the line Modified in the writer's cache and
  invalidates every other copy.
- A miss on a line whose last eviction in this cache was caused by an
  invalidation counts as a *coherence miss*.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set, Tuple

import numpy as np


@dataclasses.dataclass
class CoherenceStats:
    """Aggregate results of a private-cache coherence run."""

    n_cores: int
    accesses: int
    misses: int
    cold_misses: int
    coherence_misses: int
    invalidations: int
    writebacks: int
    #: Invalidations where the victim had touched the written word
    #: (true communication) vs. only other words of the line (false
    #: sharing — pure line-granularity collateral).
    true_sharing_invalidations: int = 0
    false_sharing_invalidations: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def coherence_miss_fraction(self) -> float:
        return self.coherence_misses / self.misses if self.misses else 0.0

    @property
    def invalidations_per_kiloref(self) -> float:
        if not self.accesses:
            return 0.0
        return 1000.0 * self.invalidations / self.accesses

    @property
    def capacity_misses(self) -> int:
        return self.misses - self.cold_misses - self.coherence_misses

    @property
    def false_sharing_fraction(self) -> float:
        """Fraction of invalidations that are pure false sharing."""
        if not self.invalidations:
            return 0.0
        return self.false_sharing_invalidations / self.invalidations


class _PrivateCache:
    """Set-associative LRU with per-line MSI state (M or S).

    Each resident entry is ``[line, modified, touched_words]`` where
    ``touched_words`` records the word offsets this core accessed during
    the current residency — the information needed to classify an
    incoming invalidation as true or false sharing.
    """

    __slots__ = ("n_sets", "assoc", "sets", "invalidated")

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int):
        self.n_sets = max(1, size_bytes // (assoc * line_bytes))
        self.assoc = assoc
        # set -> list of [line, modified, touched_words] with MRU last.
        self.sets: Dict[int, List[list]] = {}
        # Lines whose most recent departure was an invalidation.
        self.invalidated: Set[int] = set()

    def lookup(self, line: int):
        ways = self.sets.get(line % self.n_sets)
        if not ways:
            return None
        for entry in ways:
            if entry[0] == line:
                return entry
        return None

    def touch(self, entry: list, line: int) -> None:
        ways = self.sets[line % self.n_sets]
        ways.remove(entry)
        ways.append(entry)

    def install(self, line: int, modified: bool, word: int) -> Tuple[bool, bool]:
        """Returns (evicted_dirty, was_invalidation_miss)."""
        was_inval = line in self.invalidated
        self.invalidated.discard(line)
        ways = self.sets.setdefault(line % self.n_sets, [])
        ways.append([line, modified, {word}])
        evicted_dirty = False
        if len(ways) > self.assoc:
            victim = ways.pop(0)
            evicted_dirty = victim[1]
        return evicted_dirty, was_inval

    def invalidate(self, line: int, word: int) -> Tuple[bool, bool]:
        """Remove the line if present.

        Returns ``(was_present, was_true_sharing)`` — true sharing if
        this core had touched the written word during its residency.
        """
        ways = self.sets.get(line % self.n_sets)
        if not ways:
            return False, False
        for entry in ways:
            if entry[0] == line:
                ways.remove(entry)
                self.invalidated.add(line)
                return True, word in entry[2]
        return False, False


def simulate_coherent_caches_chunked(
    iter_chunks,
    cache_bytes_per_core: int = 512 * 1024,
    assoc: int = 4,
    line_bytes: int = 64,
    n_cores: int = 8,
) -> CoherenceStats:
    """Run a merged multithreaded trace through private coherent caches.

    ``iter_chunks`` is a zero-argument callable returning an iterator of
    (addr, tid, is_write) column chunks (e.g.
    ``machine.iter_trace_chunks``).  The vectorized engine of
    :mod:`repro.analytics.coherence` carries its machine state between
    chunks; :func:`simulate_coherent_caches_scalar` is the oracle.
    """
    from repro.analytics.coherence import simulate_coherent_caches_batch

    if line_bytes > 512:
        # Touched-word masks do not cover such lines: scalar oracle.
        cols = [np.concatenate(c) for c in zip(*iter_chunks())] or [
            np.empty(0, dtype=np.int64)
        ] * 3
        return simulate_coherent_caches_scalar(
            cols[0], cols[1], cols[2], cache_bytes_per_core, assoc,
            line_bytes, n_cores,
        )
    totals = CoherenceStats(n_cores, 0, 0, 0, 0, 0, 0)
    state = None
    for addrs, tids, writes in iter_chunks():
        stats, state = simulate_coherent_caches_batch(
            addrs, tids, writes, cache_bytes_per_core, assoc, line_bytes,
            n_cores, state,
        )
        for f in dataclasses.fields(CoherenceStats)[1:]:  # all but n_cores
            total = getattr(totals, f.name) + getattr(stats, f.name)
            setattr(totals, f.name, total)
    return totals


def simulate_coherent_caches_scalar(
    addrs: np.ndarray,
    tids: np.ndarray,
    writes: np.ndarray,
    cache_bytes_per_core: int = 512 * 1024,
    assoc: int = 4,
    line_bytes: int = 64,
    n_cores: int = 8,
) -> CoherenceStats:
    """Per-access reference simulation — the oracle for the batch engine."""
    caches = [_PrivateCache(cache_bytes_per_core, assoc, line_bytes)
              for _ in range(n_cores)]
    seen_lines: Set[int] = set()
    misses = cold = coh = invals = wbs = 0
    true_sh = false_sh = 0
    lines = (addrs // line_bytes).tolist()
    words = ((addrs % line_bytes) // 8).tolist()
    tid_list = tids.tolist()
    wr_list = writes.tolist()
    for line, word, tid, wr in zip(lines, words, tid_list, wr_list):
        core = tid % n_cores
        me = caches[core]
        entry = me.lookup(line)
        if wr:
            # Invalidate all other copies on any write, classifying each
            # by whether the victim had touched the written word.
            for other_core, other in enumerate(caches):
                if other_core == core:
                    continue
                present, was_true = other.invalidate(line, word)
                if present:
                    invals += 1
                    if was_true:
                        true_sh += 1
                    else:
                        false_sh += 1
            if entry is not None:
                entry[1] = True
                entry[2].add(word)
                me.touch(entry, line)
            else:
                misses += 1
                if line not in seen_lines:
                    cold += 1
                evd, was_inval = me.install(line, True, word)
                wbs += evd
                coh += was_inval
        else:
            if entry is not None:
                entry[2].add(word)
                me.touch(entry, line)
            else:
                misses += 1
                if line not in seen_lines:
                    cold += 1
                evd, was_inval = me.install(line, False, word)
                wbs += evd
                coh += was_inval
        seen_lines.add(line)
    return CoherenceStats(
        n_cores=n_cores,
        accesses=len(lines),
        misses=misses,
        cold_misses=cold,
        coherence_misses=coh,
        invalidations=invals,
        writebacks=wbs,
        true_sharing_invalidations=true_sh,
        false_sharing_invalidations=false_sh,
    )
