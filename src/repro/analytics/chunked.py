"""Streaming (chunk-at-a-time) analytics over columnar trace stores.

With the chunked trace pipeline (:mod:`repro.common.chunkstore`) the
access stream arrives as fixed-size column chunks that may live on disk,
so each analysis is a decomposition into *per-chunk work plus carried
state* that reproduces its per-access scalar oracle bit-for-bit:

- :class:`StreamingReuse` — LRU stack distances.  The dominance-count
  identity ``d[i] = #{j < i : p[j] <= p[i]} - p[i] - 1`` splits cleanly:
  earlier chunks contribute through a sorted array of their previous-
  occurrence values (one ``searchsorted``), the current chunk through
  the usual merge-counting on rank-compressed values.  State is O(n)
  int64 (8 bytes per access) plus the per-line last-use table.

- :class:`StreamingSharing` — Bienia-style sharing statistics.  Carries
  the distinct (line, thread) pair set, the written-line set, and a
  per-line last-writer table; a second pass over the (re-iterable)
  chunks counts accesses to shared lines once the shared set is known.

Both are checked against the scalar oracles at several chunk sizes by
``tests/test_chunked_equivalence.py``.  This module imports nothing from
:mod:`repro.cpusim` at load time: that package re-exports its entry
points.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

import numpy as np

from repro.analytics.reuse import (
    count_earlier_leq,
    sorted_previous_occurrence,
)

#: Thread ids are packed into the low bits of the (line, tid) pair key.
_TID_BITS = 6
_MAX_TIDS = 1 << _TID_BITS

ChunkIter = Callable[[], Iterator[Tuple[np.ndarray, ...]]]


def _member(sorted_ref: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in a sorted reference array."""
    if sorted_ref.size == 0 or values.size == 0:
        return np.zeros(values.size, dtype=bool)
    idx = np.minimum(
        np.searchsorted(sorted_ref, values), sorted_ref.size - 1
    )
    return sorted_ref[idx] == values


class StreamingReuse:
    """Chunk-at-a-time LRU stack-distance histogram.

    Feed chunks with :meth:`update`; :meth:`result` returns
    ``(hist, cold)`` bit-identical to the scalar oracle
    :func:`repro.cpusim.reuse.reuse_distance_histogram_scalar` over the
    concatenated stream.
    """

    def __init__(self, line_bytes: int = 64):
        self.line_bytes = line_bytes
        self._n = 0
        self._cold = 0
        self._hist = np.zeros(1, dtype=np.int64)
        # Per-line last global occurrence (sorted by line).
        self._h_lines = np.empty(0, dtype=np.int64)
        self._h_last = np.empty(0, dtype=np.int64)
        # Sorted previous-occurrence values of every processed access
        # (including the -1 of cold accesses, which count as dominated).
        self._h_prev = np.empty(0, dtype=np.int64)

    def update(self, addrs: np.ndarray) -> None:
        if addrs.size == 0:
            return
        lines = (addrs // self.line_bytes).astype(np.int64)
        off = self._n
        m = lines.size

        # Previous occurrence in *global* indices: in-chunk predecessor
        # where one exists, else the carried per-line last use.
        prev_local, order, sl = sorted_previous_occurrence(lines)
        prev = np.where(prev_local >= 0, prev_local + off, np.int64(-1))
        first = prev_local < 0
        if self._h_lines.size:
            fl = lines[first]
            idx = np.minimum(
                np.searchsorted(self._h_lines, fl), self._h_lines.size - 1
            )
            found = self._h_lines[idx] == fl
            pf = np.full(fl.size, -1, dtype=np.int64)
            pf[found] = self._h_last[idx[found]]
            prev[first] = pf

        # d[i] = #{j < i : p[j] <= p[i]} - p[i] - 1, with the count split
        # into history (every prior access precedes the chunk) and
        # within-chunk dominance on rank-compressed values.  Without
        # history, prev is chunk-local and already lies in [-1, m).
        if off:
            hist_cnt = np.searchsorted(self._h_prev, prev, side="right")
            _, ranks = np.unique(prev, return_inverse=True)
            within = count_earlier_leq(ranks.astype(np.int64))
        else:
            hist_cnt = 0
            within = count_earlier_leq(prev)
        warm = prev >= 0
        self._cold += int(m - warm.sum())
        d = (hist_cnt + within - prev - 1)[warm]
        if d.size:
            h = np.bincount(d).astype(np.int64)
            if h.size > self._hist.size:
                h[: self._hist.size] += self._hist
                self._hist = h
            else:
                self._hist[: h.size] += h

        # Carry: merge prev values and per-line last uses (the lines'
        # stable sort is the one previous-occurrence already did).
        self._h_prev = np.sort(np.concatenate((self._h_prev, prev)))
        end = np.concatenate((sl[1:] != sl[:-1], [True]))
        cl = sl[end]
        clast = off + order[end]
        if self._h_lines.size:
            stale = _member(cl, self._h_lines)
            ml = np.concatenate((self._h_lines[~stale], cl))
            mlast = np.concatenate((self._h_last[~stale], clast))
            o2 = np.argsort(ml, kind="stable")
            self._h_lines = ml[o2]
            self._h_last = mlast[o2]
        else:
            self._h_lines = cl
            self._h_last = clast
        self._n = off + m

    def result(self) -> Tuple[np.ndarray, int]:
        """``(distances_hist, cold_misses)`` of everything seen so far."""
        return self._hist, self._cold


def reuse_histogram_chunked(
    iter_chunks: ChunkIter, line_bytes: int = 64
) -> Tuple[np.ndarray, int]:
    """Stack-distance histogram of a chunked trace (addresses = column 0)."""
    acc = StreamingReuse(line_bytes)
    for chunk in iter_chunks():
        acc.update(chunk[0])
    return acc.result()


class StreamingSharing:
    """Chunk-at-a-time whole-run sharing statistics.

    Feed chunks with :meth:`update`, then call :meth:`result` with the
    re-iterable chunk source — the shared-line set is only known after
    the first pass, so accesses to shared lines are counted in a second
    streaming pass.
    """

    def __init__(self, line_bytes: int = 64):
        self.line_bytes = line_bytes
        self._total = 0
        self._consumer_reads = 0
        self._pairs = np.empty(0, dtype=np.int64)     # (line << 6) | tid
        self._written = np.empty(0, dtype=np.int64)   # sorted unique lines
        self._lw_lines = np.empty(0, dtype=np.int64)  # last-writer table
        self._lw_tids = np.empty(0, dtype=np.int64)

    def update(
        self, addrs: np.ndarray, tids: np.ndarray, writes: np.ndarray
    ) -> None:
        if addrs.size == 0:
            return
        lines = (addrs // self.line_bytes).astype(np.int64)
        t = tids.astype(np.int64)
        if int(t.max()) >= _MAX_TIDS:
            raise ValueError(
                f"streaming sharing supports < {_MAX_TIDS} thread ids"
            )
        w = np.asarray(writes, dtype=bool)
        self._total += int(addrs.size)
        self._pairs = np.union1d(self._pairs, (lines << _TID_BITS) | t)
        if w.any():
            self._written = np.union1d(self._written, lines[w])
        self._consumer_reads += self._consumer_reads_chunk(lines, t, w)
        self._update_last_writer(lines, t, w)

    def _consumer_reads_chunk(
        self, lines: np.ndarray, tids: np.ndarray, writes: np.ndarray
    ) -> int:
        """Reads of a line most recently written by another thread.

        One stable sort groups each line's accesses in time order and a
        segmented running maximum carries the position of the latest
        in-chunk write down each group; reads preceding any in-chunk
        write consult the carried last-writer table.  The scalar oracle
        is :func:`repro.cpusim.sharing._count_consumer_reads`.
        """
        n = lines.size
        order = np.argsort(lines, kind="stable")
        sl = lines[order]
        sw = writes[order]
        st = tids[order]
        pos = np.arange(n, dtype=np.int64)
        new_group = np.concatenate(([True], sl[1:] != sl[:-1]))
        group_start = np.maximum.accumulate(np.where(new_group, pos, 0))
        last_write = np.maximum.accumulate(np.where(sw, pos, -1))
        lwb = np.concatenate(([-1], last_write[:-1]))
        valid = lwb >= group_start
        in_chunk = ~sw & valid
        count = 0
        if in_chunk.any():
            writer = st[lwb[in_chunk]]
            count += int((writer != st[in_chunk]).sum())
        outside = ~sw & ~valid
        if outside.any() and self._lw_lines.size:
            ol = sl[outside]
            idx = np.minimum(
                np.searchsorted(self._lw_lines, ol), self._lw_lines.size - 1
            )
            found = self._lw_lines[idx] == ol
            writer = self._lw_tids[idx[found]]
            count += int((writer != st[outside][found]).sum())
        return count

    def _update_last_writer(
        self, lines: np.ndarray, tids: np.ndarray, writes: np.ndarray
    ) -> None:
        if not writes.any():
            return
        wl = lines[writes]
        wt = tids[writes]
        order = np.argsort(wl, kind="stable")
        swl = wl[order]
        end = np.concatenate((swl[1:] != swl[:-1], [True]))
        new_lines = swl[end]
        new_tids = wt[order][end]
        if self._lw_lines.size:
            stale = _member(new_lines, self._lw_lines)
            ml = np.concatenate((self._lw_lines[~stale], new_lines))
            mt = np.concatenate((self._lw_tids[~stale], new_tids))
            o2 = np.argsort(ml, kind="stable")
            self._lw_lines = ml[o2]
            self._lw_tids = mt[o2]
        else:
            self._lw_lines = new_lines
            self._lw_tids = new_tids

    def result(self, iter_chunks: ChunkIter) -> SharingStats:
        """Finish with a second pass for shared-line access counts."""
        from repro.cpusim.sharing import SharingStats

        if self._total == 0:
            return SharingStats(0, 0, 0, 0, 0, 0, 0.0)
        pair_lines = self._pairs >> _TID_BITS
        uniq_lines, sharer_counts = np.unique(pair_lines, return_counts=True)
        shared = uniq_lines[sharer_counts > 1]
        shared_accesses = 0
        for chunk in iter_chunks():
            lines = (chunk[0] // self.line_bytes).astype(np.int64)
            shared_accesses += int(_member(shared, lines).sum())
        write_shared = int(_member(shared, self._written).sum())
        return SharingStats(
            total_lines=int(uniq_lines.size),
            shared_lines=int(shared.size),
            total_accesses=self._total,
            shared_accesses=shared_accesses,
            write_shared_lines=write_shared,
            consumer_reads=self._consumer_reads,
            mean_sharers=float(sharer_counts.mean()),
        )


def analyze_sharing_chunked(
    iter_chunks: ChunkIter, line_bytes: int = 64
) -> SharingStats:
    """Whole-run sharing statistics of a chunked (addr, tid, write) trace."""
    acc = StreamingSharing(line_bytes)
    for addrs, tids, writes in iter_chunks():
        acc.update(addrs, tids, writes)
    return acc.result(iter_chunks)
