"""Batch set-associative LRU simulation.

Accesses to different cache sets never interact, so an exact
set-associative LRU simulation decomposes freely: stable-sort the trace
by set index (preserving time order within each set) and advance *every
set simultaneously*, one access per vectorized round, through a way
matrix ``W[set, way]`` holding resident line addresses in MRU-first
order.  Each round is a handful of whole-array numpy operations (match,
argmax, gather-shift), so the per-access Python interpreter cost of the
scalar simulator disappears; the number of Python-level iterations drops
from ``n`` accesses to ``max_set_length`` rounds.

Sets are processed in descending sequence-length order so the active
sets of round ``r`` are always a prefix — plain slices, no masks.

Everything here is bit-identical to the scalar simulators; the scalar
code remains in :mod:`repro.cpusim.cache` / :mod:`repro.gpusim.memory`
as the oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro import telemetry

#: Way-matrix slot holding no line.  Real line addresses are
#: non-negative, so -1 can never produce a false hit.
EMPTY_LINE = np.int64(-1)


@dataclasses.dataclass
class SetPartition:
    """A trace stable-sorted into contiguous per-set groups."""

    order: np.ndarray     # original index of each sorted position
    starts: np.ndarray    # group start offset in the sorted layout
    counts: np.ndarray    # group length
    set_ids: np.ndarray   # set index of each group

    @property
    def n_groups(self) -> int:
        return int(self.starts.size)


def partition_by_set(set_idx: np.ndarray) -> SetPartition:
    """Group access indices by set, preserving time order within sets."""
    order = np.argsort(set_idx, kind="stable")
    ss = set_idx[order]
    if ss.size == 0:
        e = np.empty(0, dtype=np.int64)
        return SetPartition(order, e, e.copy(), e.copy())
    set_ids, starts = np.unique(ss, return_index=True)
    counts = np.diff(np.append(starts, ss.size))
    return SetPartition(order, starts, counts, set_ids)


def batch_worthwhile(n_accesses: int, counts: np.ndarray) -> bool:
    """Heuristic: rounds (= longest set sequence) must amortize.

    The vectorized engine costs ~one numpy round per access *rank*
    within a set; a trace concentrated on few sets degenerates to
    per-access rounds and the scalar loop wins.
    """
    if n_accesses < 4096 or counts.size == 0:
        return False
    return int(counts.max()) * 16 <= n_accesses


@dataclasses.dataclass
class LRUSetsResult:
    """Outcome of a way-matrix run, aligned to the partition's groups."""

    miss_per_group: np.ndarray
    ways: np.ndarray        # (G, assoc) line addresses, MRU first
    lengths: np.ndarray     # valid ways per group
    hits_sorted: Optional[np.ndarray]  # per-access hits, sorted layout


def simulate_lru_sets(
    sorted_lines: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    assoc: int,
    need_hits: bool = False,
    init_ways: Optional[np.ndarray] = None,
    init_lengths: Optional[np.ndarray] = None,
) -> LRUSetsResult:
    """Advance every set one access per round through a way matrix.

    ``sorted_lines`` is the trace in grouped (sorted-by-set) layout;
    ``starts``/``counts`` delimit the groups.  Exactly reproduces a
    per-set LRU list with MRU appended last and eviction from the front.

    ``init_ways``/``init_lengths`` (aligned to the groups, MRU-first)
    seed a *warm* cache: the simulation continues from that state
    exactly as the scalar simulator would.
    """
    G = starts.size
    if init_ways is not None:
        W = np.array(init_ways, dtype=np.int64, copy=True)
        lengths = np.array(init_lengths, dtype=np.int64, copy=True)
    else:
        W = np.full((G, assoc), EMPTY_LINE, dtype=np.int64)
        lengths = np.zeros(G, dtype=np.int64)
    miss_pg = np.zeros(G, dtype=np.int64)
    hits_sorted = (
        np.empty(sorted_lines.size, dtype=bool) if need_hits else None
    )
    if G == 0:
        return LRUSetsResult(miss_pg, W, lengths, hits_sorted)
    desc = np.argsort(-counts, kind="stable")
    # The round loop runs in length-descending layout (unpermuted on
    # return); bring any warm initial state into that layout too.
    W = W[desc]
    lengths = lengths[desc]
    dstarts = starts[desc]
    neg_counts = -counts[desc]
    maxlen = int(counts[desc[0]])
    cols = np.arange(assoc)
    for r in range(maxlen):
        k = int(np.searchsorted(neg_counts, -(r + 1), side="right"))
        idx = dstarts[:k] + r
        x = sorted_lines[idx]
        Wk = W[:k]
        match = Wk == x[:, None]
        hit = match.any(axis=1)
        pos = match.argmax(axis=1)
        # Columns 1..limit take their left neighbour (shift toward LRU);
        # on a hit the shift stops at the hit position, on a miss it
        # covers the whole occupied range (dropping the LRU when full).
        limit = np.where(hit, pos, np.minimum(lengths[:k], assoc - 1))
        src = cols - (cols <= limit[:, None])
        src[:, 0] = 0
        Wn = np.take_along_axis(Wk, src, axis=1)
        Wn[:, 0] = x
        W[:k] = Wn
        lengths[:k] = np.minimum(lengths[:k] + ~hit, assoc)
        miss_pg[:k] += ~hit
        if need_hits:
            hits_sorted[idx] = hit
    # Undo the length-descending permutation.
    miss_out = np.empty_like(miss_pg)
    miss_out[desc] = miss_pg
    W_out = np.empty_like(W)
    W_out[desc] = W
    len_out = np.empty_like(lengths)
    len_out[desc] = lengths
    if telemetry.active():
        n_miss = int(miss_pg.sum())
        # A miss inserts one line; whatever did not fit in the final
        # occupancy over the initial one was evicted.
        init_len = (
            np.zeros(G, dtype=np.int64) if init_lengths is None
            else np.asarray(init_lengths, dtype=np.int64)
        )
        telemetry.count("analytics.lru.accesses", int(sorted_lines.size))
        telemetry.count("analytics.lru.misses", n_miss)
        telemetry.count("analytics.lru.hits",
                        int(sorted_lines.size) - n_miss)
        telemetry.count(
            "analytics.lru.evictions",
            int((init_len + miss_out - len_out).sum()),
        )
    return LRUSetsResult(miss_out, W_out, len_out, hits_sorted)
