"""Batch private-cache MSI coherence simulation.

Every interaction in the write-invalidate protocol of
:mod:`repro.cpusim.coherence` — lookup, LRU touch, install/evict,
cross-core invalidation, cold classification — is line-granular, and a
line maps to exactly one set in every core's (identically shaped)
private cache.  Accesses to different sets therefore never interact,
and the simulation vectorizes over sets: the trace is stable-sorted by
set, and every set advances one access per round, the per-core way
matrices ``W[core, set, way]`` (MRU first) advanced by gather-shifts.
Sets run in descending access-count order, so the active sets of round
``r`` are always a prefix; state import and export index through
``part.set_ids[desc]``.

Alongside the line addresses, two payload matrices ride through the
same shifts: the MSI dirty bit and the touched-word bitmask that
classifies invalidations into true vs. false sharing.  The
"last departure was an invalidation" set becomes a dense
``(core, line)`` boolean table.

Invalidations *remove* entries, so the protocol is no stack algorithm
(the LRU kernel of :mod:`repro.analytics.cache` cannot answer it), and
they leave stale line addresses beyond a set's valid length — every
match is therefore masked by way index < length.

Results are bit-identical to the scalar simulator, which remains the
test oracle.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.analytics.cache import EMPTY_LINE
from repro.analytics.chunked import _member
from repro.cpusim.coherence import CoherenceStats


@dataclasses.dataclass
class SetPartition:
    """A trace stable-sorted into contiguous per-set groups."""

    order: np.ndarray     # original index of each sorted position
    starts: np.ndarray    # group start offset in the sorted layout
    counts: np.ndarray    # group length
    set_ids: np.ndarray   # set index of each group


def partition_by_set(set_idx: np.ndarray) -> SetPartition:
    """Group access indices by set, preserving time order within sets."""
    order = np.argsort(set_idx, kind="stable")
    ss = set_idx[order]
    set_ids, starts = np.unique(ss, return_index=True)
    counts = np.diff(np.append(starts, ss.size))
    return SetPartition(order, starts, counts, set_ids)


@dataclasses.dataclass
class CoherenceBatchState:
    """Carried machine state between chunked coherence runs.

    Way matrices are dense over all ``n_sets`` (a chunk imports and
    exports only the sets it touches); the invalidated and seen line
    sets are sorted line-address arrays, since their domain — distinct
    lines — is unbounded by cache geometry.
    """

    n_sets: int
    W: np.ndarray    # (C, n_sets, A) resident lines, MRU first
    MOD: np.ndarray  # (C, n_sets, A) dirty bits
    TW: np.ndarray   # (C, n_sets, A) touched-word masks
    LEN: np.ndarray  # (C, n_sets) valid ways
    inv_lines: List[np.ndarray]  # per-core sorted lines last evicted by inval
    seen_lines: np.ndarray       # sorted lines ever accessed

    @classmethod
    def fresh(cls, n_cores: int, n_sets: int, assoc: int) -> "CoherenceBatchState":
        C, A = n_cores, assoc
        return cls(
            n_sets=n_sets,
            W=np.full((C, n_sets, A), EMPTY_LINE, dtype=np.int64),
            MOD=np.zeros((C, n_sets, A), dtype=bool),
            TW=np.zeros((C, n_sets, A), dtype=np.uint64),
            LEN=np.zeros((C, n_sets), dtype=np.int64),
            inv_lines=[np.empty(0, dtype=np.int64) for _ in range(C)],
            seen_lines=np.empty(0, dtype=np.int64),
        )


def simulate_coherent_caches_batch(
    addrs: np.ndarray,
    tids: np.ndarray,
    writes: np.ndarray,
    cache_bytes_per_core: int = 512 * 1024,
    assoc: int = 4,
    line_bytes: int = 64,
    n_cores: int = 8,
    state: Optional[CoherenceBatchState] = None,
) -> Tuple[CoherenceStats, CoherenceBatchState]:
    """Vectorized-across-sets run of the private-cache MSI protocol.

    Continues from carried machine ``state`` (fresh caches when
    ``None``) and returns ``(stats, state)``.  A chunked trace processed
    one chunk at a time produces counters bit-identical to the scalar
    oracle over the whole trace — every protocol interaction is
    line-granular and a line maps to one set in all cores' identically
    shaped caches, so per-set subsequences with carried way/INV/seen
    state compose exactly.
    """
    if line_bytes > 512:
        raise ValueError("touched-word masks cover lines of <= 512 bytes")
    n = int(addrs.size)
    n_sets = max(1, cache_bytes_per_core // (assoc * line_bytes))
    if state is None:
        state = CoherenceBatchState.fresh(n_cores, n_sets, assoc)
    elif state.n_sets != n_sets:
        raise ValueError("carried state has mismatched set count")
    if n == 0:
        return CoherenceStats(n_cores, 0, 0, 0, 0, 0, 0), state
    lines = (addrs // line_bytes).astype(np.int64)
    part = partition_by_set(lines % n_sets)

    order = part.order
    sorted_lines = lines[order]
    uniq_lines, lid_all = np.unique(sorted_lines, return_inverse=True)
    words = ((addrs % line_bytes) // 8).astype(np.uint64)
    sorted_wbit = np.uint64(1) << words[order]
    sorted_core = (tids[order].astype(np.int64)) % n_cores
    sorted_wr = writes[order].astype(bool)

    desc = np.argsort(-part.counts, kind="stable")
    dstarts = part.starts[desc]
    neg_counts = -part.counts[desc]
    maxlen = int(part.counts[desc[0]])

    C, A = n_cores, assoc
    # Way-matrix row j holds the desc[j]-th group throughout the round
    # loop, so state import/export must follow the same permutation.
    sid = part.set_ids[desc]
    W = state.W[:, sid, :].copy()
    MOD = state.MOD[:, sid, :].copy()
    TW = state.TW[:, sid, :].copy()
    LEN = state.LEN[:, sid].copy()
    INV = np.stack(
        [_member(state.inv_lines[c], uniq_lines) for c in range(C)]
    )
    seen = _member(state.seen_lines, uniq_lines)

    misses = cold = coh = invals = wbs = 0
    true_sh = false_sh = 0
    cols = np.arange(A)
    zero64 = np.uint64(0)

    for r in range(maxlen):
        k = int(np.searchsorted(neg_counts, -(r + 1), side="right"))
        idx = dstarts[:k] + r
        x = sorted_lines[idx]
        lid = lid_all[idx]
        wbit = sorted_wbit[idx]
        core = sorted_core[idx]
        wr = sorted_wr[idx]
        rows = np.arange(k)

        # --- cross-core invalidations (before the writer's own update,
        # matching the scalar order; they never touch the writer's cache)
        if wr.any():
            for o in range(C):
                im = wr & (core != o)
                if not im.any():
                    continue
                ro = rows[im]
                xo = x[im]
                Wo = W[o, ro]
                Lo = LEN[o, ro]
                mm = (Wo == xo[:, None]) & (cols[None, :] < Lo[:, None])
                present = mm.any(axis=1)
                if not present.any():
                    continue
                pos = mm.argmax(axis=1)
                mo = np.arange(ro.size)
                touched = TW[o, ro][mo, pos]
                hit_word = present & ((touched & wbit[im]) != zero64)
                invals += int(present.sum())
                true_sh += int(hit_word.sum())
                false_sh += int((present & ~hit_word).sum())
                INV[o, lid[im][present]] = True
                # Shift the removed entry out: columns at/after the hit
                # position take their right neighbour.
                src = np.minimum(cols + (cols >= pos[:, None]), A - 1)
                Wn = np.take_along_axis(Wo, src, axis=1)
                Mn = np.take_along_axis(MOD[o, ro], src, axis=1)
                Tn = np.take_along_axis(TW[o, ro], src, axis=1)
                keep = ~present[:, None]
                W[o, ro] = np.where(keep, Wo, Wn)
                MOD[o, ro] = np.where(keep, MOD[o, ro], Mn)
                TW[o, ro] = np.where(keep, TW[o, ro], Tn)
                LEN[o, ro] = Lo - present

        # --- own-cache access
        Wk = W[core, rows]
        Mk = MOD[core, rows]
        Tk = TW[core, rows]
        Lk = LEN[core, rows]
        match = (Wk == x[:, None]) & (cols[None, :] < Lk[:, None])
        hit = match.any(axis=1)
        pos = match.argmax(axis=1)
        miss = ~hit

        n_miss = int(miss.sum())
        if n_miss:
            misses += n_miss
            cold += int((miss & ~seen[lid]).sum())
            was_inval = miss & INV[core, lid]
            coh += int(was_inval.sum())
            INV[core[miss], lid[miss]] = False
            evict = miss & (Lk >= A)
            if evict.any():
                wbs += int(Mk[evict, A - 1].sum())
        seen[lid] = True

        old_mod = Mk[rows, pos]
        old_tw = Tk[rows, pos]
        limit = np.where(hit, pos, np.minimum(Lk, A - 1))
        src = cols - (cols <= limit[:, None])
        src[:, 0] = 0
        Wn = np.take_along_axis(Wk, src, axis=1)
        Mn = np.take_along_axis(Mk, src, axis=1)
        Tn = np.take_along_axis(Tk, src, axis=1)
        Wn[:, 0] = x
        Mn[:, 0] = np.where(hit, old_mod | wr, wr)
        Tn[:, 0] = np.where(hit, old_tw | wbit, wbit)
        W[core, rows] = Wn
        MOD[core, rows] = Mn
        TW[core, rows] = Tn
        LEN[core, rows] = np.minimum(Lk + miss, A)

    stats = CoherenceStats(
        n_cores=n_cores,
        accesses=n,
        misses=misses,
        cold_misses=cold,
        coherence_misses=coh,
        invalidations=invals,
        writebacks=wbs,
        true_sharing_invalidations=true_sh,
        false_sharing_invalidations=false_sh,
    )
    state.W[:, sid, :] = W
    state.MOD[:, sid, :] = MOD
    state.TW[:, sid, :] = TW
    state.LEN[:, sid] = LEN
    for c in range(C):
        # Lines of this chunk overwrite their carried INV status; lines
        # untouched by the chunk keep theirs.
        kept = state.inv_lines[c][~_member(uniq_lines, state.inv_lines[c])]
        state.inv_lines[c] = np.sort(
            np.concatenate((kept, uniq_lines[INV[c]]))
        )
    state.seen_lines = np.union1d(state.seen_lines, uniq_lines)
    return stats, state
