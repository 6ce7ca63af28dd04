"""Batch residency-windowed sharing.

The per-access walk of :func:`repro.cpusim.sharing.sharing_at_size_scalar`
runs here on the way-matrix engine of :mod:`repro.analytics.cache`, with
a parallel matrix of per-residency sharer *bitmasks* (one bit per thread
id) carried through the same gather-shift as the line addresses.  The
cache state carries between chunks in a :class:`SharingSizeState`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.analytics.cache import EMPTY_LINE, partition_by_set

#: Sharer masks are uint64 bitfields — one bit per thread id.
MAX_BATCH_TIDS = 64


def _popcount(a: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(a)
    v = a.astype(np.uint64).copy()
    out = np.zeros(a.shape, dtype=np.int64)
    while np.any(v):
        out += (v & 1).astype(np.int64)
        v >>= np.uint64(1)
    return out


@dataclasses.dataclass
class SharingSizeState:
    """Carried cache state for chunked residency-windowed sharing."""

    n_sets: int
    W: np.ndarray        # (n_sets, assoc) resident lines, MRU first
    M: np.ndarray        # (n_sets, assoc) sharer bitmasks
    lengths: np.ndarray  # (n_sets,) valid ways

    @classmethod
    def fresh(cls, n_sets: int, assoc: int) -> "SharingSizeState":
        return cls(
            n_sets=n_sets,
            W=np.full((n_sets, assoc), EMPTY_LINE, dtype=np.int64),
            M=np.zeros((n_sets, assoc), dtype=np.uint64),
            lengths=np.zeros(n_sets, dtype=np.int64),
        )

    def close_lifetimes(self) -> Tuple[int, int]:
        """End-of-trace closeout: (lifetimes, shared_lifetimes) of the
        still-resident lines."""
        resident = (
            np.arange(self.W.shape[1])[None, :] < self.lengths[:, None]
        )
        return (
            int(self.lengths.sum()),
            int((_popcount(self.M[resident]) > 1).sum()),
        )


def sharing_at_size_batch(
    lines: np.ndarray,
    tids: np.ndarray,
    n_sets: int,
    assoc: int,
    state: Optional[SharingSizeState] = None,
) -> Optional[Tuple[int, int, int, SharingSizeState]]:
    """Residency-windowed sharing through per-set LRU with sharer masks.

    Continues from ``state`` (a fresh cache when ``None``) and returns
    ``(shared_accesses, lifetimes, shared_lifetimes, state)`` exactly
    matching the scalar walk over the same accesses, or ``None`` when a
    thread id does not fit the sharer mask (the caller falls back).
    Still-resident lifetimes are NOT closed out — the caller calls
    :meth:`SharingSizeState.close_lifetimes` after the last chunk.
    """
    if state is None:
        state = SharingSizeState.fresh(n_sets, assoc)
    elif state.n_sets != n_sets:
        raise ValueError("carried state has mismatched set count")
    n = lines.size
    if n == 0:
        return 0, 0, 0, state
    if int(tids.max()) >= MAX_BATCH_TIDS:
        return None
    part = partition_by_set(lines % n_sets)
    sorted_lines = lines[part.order]
    sorted_bits = np.uint64(1) << tids[part.order].astype(np.uint64)
    desc = np.argsort(-part.counts, kind="stable")
    dstarts = part.starts[desc]
    neg_counts = -part.counts[desc]
    maxlen = int(part.counts[desc[0]])
    # Way-matrix row j holds the desc[j]-th group throughout the round
    # loop, so state import/export must follow the same permutation.
    sid = part.set_ids[desc]
    W = state.W[sid].copy()
    M = state.M[sid].copy()   # sharer masks per way
    lengths = state.lengths[sid].copy()
    cols = np.arange(assoc)
    shared_accesses = 0
    lifetimes = 0
    shared_lifetimes = 0
    for r in range(maxlen):
        k = int(np.searchsorted(neg_counts, -(r + 1), side="right"))
        idx = dstarts[:k] + r
        x = sorted_lines[idx]
        bit = sorted_bits[idx]
        Wk = W[:k]
        Mk = M[:k]
        match = Wk == x[:, None]
        hit = match.any(axis=1)
        pos = match.argmax(axis=1)
        rows = np.arange(k)
        seen = Mk[rows, pos]
        # Scalar rule: a hit counts as shared when this thread is new to
        # the residency, or more than one thread already touched it.
        shared_now = hit & (((seen & bit) == 0) | (_popcount(seen) > 1))
        shared_accesses += int(shared_now.sum())
        full = lengths[:k] >= assoc
        evict = ~hit & full
        if evict.any():
            victims = Mk[evict, assoc - 1]
            lifetimes += int(evict.sum())
            shared_lifetimes += int((_popcount(victims) > 1).sum())
        limit = np.where(hit, pos, np.minimum(lengths[:k], assoc - 1))
        src = cols - (cols <= limit[:, None])
        src[:, 0] = 0
        Wn = np.take_along_axis(Wk, src, axis=1)
        Mn = np.take_along_axis(Mk, src, axis=1)
        Wn[:, 0] = x
        Mn[:, 0] = np.where(hit, seen | bit, bit)
        W[:k] = Wn
        M[:k] = Mn
        lengths[:k] = np.minimum(lengths[:k] + ~hit, assoc)
    state.W[sid] = W
    state.M[sid] = M
    state.lengths[sid] = lengths
    return shared_accesses, lifetimes, shared_lifetimes, state
