"""Batch private-cache MSI coherence simulation.

A private cache changes only through its own core's accesses and
through other cores' writes to lines it holds, and a line maps to one
set in every core's (identically shaped) cache.  The write-invalidate
protocol of :mod:`repro.cpusim.coherence` therefore splits into
independent (core, set) LRU caches, *groups*, each seeing two kinds of
event:

- an *access* by the group's core moves or installs its line at MRU
  with its dirty bit and touched-word mask; a miss on a full group
  evicts the LRU way, a writeback if it is dirty;
- an *invalidation* by another core's write removes the line if the
  group holds it, true sharing if the victim touched the written word.

A write is an invalidation event only of the cores that touch its line
in the chunk or hold it in their carried ways: no other core can hold
it.  One sort of ``group * n + index`` keys lays every group's events
out in time order (an access's own event and its invalidation events
never share a group, so the keys are unique), and each round advances
every group with events left by one, all under one shift rule.  Groups
run in descending event count, so the active ones are a prefix.

A coherence miss is a miss on a (line, core) whose last departure was
an invalidation; the cold misses of a chunk are its lines never seen
before, since a line's first access anywhere misses.  Invalidations
remove entries, so the protocol is no stack algorithm (the kernel of
:mod:`repro.analytics.cache` cannot answer it).  Results are
bit-identical to the scalar simulator, which remains the test oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.analytics.cache import EMPTY_LINE
from repro.analytics.chunked import _member
from repro.cpusim.coherence import CoherenceStats


@dataclasses.dataclass
class CoherenceBatchState:
    """Carried machine state between chunked coherence runs.

    Row ``core * n_sets + set`` of each matrix is one (core, set)
    group, MRU first; ``EMPTY_LINE`` (never dirty) pads the LRU end of
    a group holding fewer than ``assoc`` lines.  The invalidated
    (line, core) pairs and the seen lines are sorted arrays, since
    their domain, distinct lines, is unbounded by cache geometry.
    """

    n_sets: int
    W: np.ndarray    # (C·n_sets, A) resident lines, MRU first
    MOD: np.ndarray  # (C·n_sets, A) dirty bits
    TW: np.ndarray   # (C·n_sets, A) touched-word masks
    inv_keys: np.ndarray    # sorted line·C + core, last left by invalidation
    seen_lines: np.ndarray  # sorted lines ever accessed

    @classmethod
    def fresh(cls, n_cores: int, n_sets: int, assoc: int) -> "CoherenceBatchState":
        G = n_cores * n_sets
        return cls(
            n_sets=n_sets,
            W=np.full((G, assoc), EMPTY_LINE, dtype=np.int64),
            MOD=np.zeros((G, assoc), dtype=bool),
            TW=np.zeros((G, assoc), dtype=np.uint64),
            inv_keys=np.empty(0, dtype=np.int64),
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
    """Vectorized-across-groups run of the private-cache MSI protocol.

    Continues from carried machine ``state`` (fresh caches when
    ``None``) and returns ``(stats, state)``; a trace processed one
    chunk at a time yields counters bit-identical to the scalar oracle
    over the whole trace.
    """
    if line_bytes > 512:
        raise ValueError("touched-word masks cover lines of <= 512 bytes")
    n = int(addrs.size)
    C, A = n_cores, assoc
    n_sets = max(1, cache_bytes_per_core // (assoc * line_bytes))
    if state is None:
        state = CoherenceBatchState.fresh(C, n_sets, A)
    elif state.n_sets != n_sets or state.W.shape != (C * n_sets, A):
        raise ValueError("carried state has mismatched cache geometry")
    if n == 0:
        return CoherenceStats(C, 0, 0, 0, 0, 0, 0), state
    lines = (addrs // line_bytes).astype(np.int64, copy=False)
    word = ((addrs % line_bytes) // 8).astype(np.uint8)
    core = tids % C
    writes = writes.astype(bool, copy=False)
    uniq, lid = np.unique(lines, return_inverse=True)
    lid = lid.astype(np.int32)
    U = uniq.size

    # Possible holders of each line: the cores touching it in the chunk
    # and those holding it in their carried ways.
    holder = np.zeros((U, C), dtype=bool)
    holder[lid, core] = True
    held = state.W != EMPTY_LINE
    h_line = state.W[held]
    ok = _member(uniq, h_line)
    holder[np.searchsorted(uniq, h_line[ok]),
           np.nonzero(held)[0][ok] // n_sets] = True

    # Events keyed group * n + index: each access in its own core's
    # group, each write in every other possible holder's.
    wi = np.flatnonzero(writes)
    others = holder[lid[wi]]
    others[np.arange(wi.size), core[wi]] = False
    wj, oc = np.nonzero(others)
    # Free what the rounds do not read before the sort's peak.
    del holder, others
    inv_i = wi[wj]
    sets = lines % n_sets
    keys = np.concatenate((
        (core.astype(np.int64) * n_sets + sets) * n + np.arange(n),
        (oc * n_sets + sets[inv_i]) * n + inv_i,
    ))
    del sets, inv_i, wi, wj, oc
    keys.sort()
    bounds = np.searchsorted(keys, np.arange(C * n_sets + 1) * n)
    ev = (keys % n).astype(np.int32)
    del keys
    counts = np.diff(bounds)
    active = np.flatnonzero(counts)
    desc = active[np.argsort(-counts[active], kind="stable")]
    dstart = bounds[desc]
    dcore = desc // n_sets
    n_active = np.searchsorted(
        -counts[desc], -np.arange(1, counts.max() + 1), side="right"
    )

    # Invalidated flags of this chunk's (line, core) pairs, index
    # lid·C + core, seeded from the carried keys.
    inval = np.zeros(U * C, dtype=bool)
    k_line = state.inv_keys // C
    ok = _member(uniq, k_line)
    inval[np.searchsorted(uniq, k_line[ok]) * C + state.inv_keys[ok] % C] = True

    W, MOD, TW = state.W, state.MOD, state.TW
    cols = np.arange(A)
    row = np.arange(desc.size) * A
    grid = row[:, None] + cols
    one = np.uint64(1)
    misses = coh = invals = wbs = true_sh = 0
    for r, k in enumerate(n_active.tolist()):
        g = desc[:k]
        i = ev[dstart[:k] + r]
        c = dcore[:k]
        x = lines[i]
        wbit = one << word[i]
        own = core[i] == c
        flag = lid[i] * C + c

        Wg, Mg, Tg = W[g], MOD[g], TW[g]
        match = Wg == x[:, None]
        found = match.any(axis=1)
        pos = match.argmax(axis=1)
        old_m = Mg.ravel()[row[:k] + pos] & found
        old_t = Tg.ravel()[row[:k] + pos]
        miss = own & ~found
        gone = found & ~own
        was = inval[flag]

        misses += int(np.count_nonzero(miss))
        coh += int(np.count_nonzero(was & miss))
        wbs += int(np.count_nonzero(miss & Mg[:, -1]))
        invals += int(np.count_nonzero(gone))
        true_sh += int(np.count_nonzero(gone & ((old_t & wbit) != 0)))
        inval[flag] = (was & ~miss) | gone

        # One shift rule over flat way indices: an access moves the ways
        # before its hit (every way on a miss, dropping the LRU one) one
        # towards LRU and takes the MRU way; a removal moves the ways
        # after it one towards MRU and empties the LRU way.
        hi = np.where(found, pos, A - 1)
        src = (grid[:k]
               - ((cols <= hi[:, None]) & own[:, None])
               + ((cols >= pos[:, None]) & gone[:, None]))
        Wn = Wg.take(src, mode="clip")
        Mn = Mg.take(src, mode="clip")
        Tn = Tg.take(src, mode="clip")
        Wn[:, 0] = np.where(own, x, Wn[:, 0])
        Mn[:, 0] = np.where(own, old_m | writes[i], Mn[:, 0])
        Tn[:, 0] = np.where(own, np.where(found, old_t, 0) | wbit, Tn[:, 0])
        Wn[:, -1] = np.where(gone, EMPTY_LINE, Wn[:, -1])
        Mn[:, -1] &= ~gone
        W[g], MOD[g], TW[g] = Wn, Mn, Tn

    new = ~_member(state.seen_lines, uniq)
    stats = CoherenceStats(
        n_cores=C,
        accesses=n,
        misses=misses,
        cold_misses=int(np.count_nonzero(new)),
        coherence_misses=coh,
        invalidations=invals,
        writebacks=wbs,
        true_sharing_invalidations=true_sh,
        false_sharing_invalidations=invals - true_sh,
    )
    # This chunk's lines overwrite their carried flags; other lines
    # keep theirs.
    f = np.flatnonzero(inval)
    kept = state.inv_keys[~_member(uniq, k_line)]
    state.inv_keys = np.sort(np.concatenate((kept, uniq[f // C] * C + f % C)))
    state.seen_lines = np.sort(np.concatenate((state.seen_lines, uniq[new])))
    return stats, state
