"""Sharing-behaviour analysis.

Following Bienia et al. [4] (whose methodology the paper adopts), a line
is *shared* if more than one thread accesses it during the run.
:class:`SharingStats` reports the fraction of touched lines that are
shared, the fraction of accesses that go to shared lines, write-sharing,
and a producer-consumer communication measure (reads of a line last
written by a different thread); the streaming analyzer that fills it is
:class:`repro.analytics.chunked.StreamingSharing`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np


@dataclasses.dataclass
class SharingStats:
    total_lines: int
    shared_lines: int
    total_accesses: int
    shared_accesses: int
    write_shared_lines: int
    consumer_reads: int
    mean_sharers: float

    @property
    def frac_lines_shared(self) -> float:
        return self.shared_lines / self.total_lines if self.total_lines else 0.0

    @property
    def shared_access_ratio(self) -> float:
        """Accesses to shared lines per memory reference."""
        if not self.total_accesses:
            return 0.0
        return self.shared_accesses / self.total_accesses

    @property
    def frac_lines_write_shared(self) -> float:
        """Lines written by one thread and accessed by another."""
        return (
            self.write_shared_lines / self.total_lines if self.total_lines else 0.0
        )

    @property
    def consumer_read_ratio(self) -> float:
        """Reads of another thread's data per memory reference."""
        if not self.total_accesses:
            return 0.0
        return self.consumer_reads / self.total_accesses

    def features(self) -> Dict[str, float]:
        return {
            "frac_lines_shared": self.frac_lines_shared,
            "shared_access_ratio": self.shared_access_ratio,
            "frac_lines_write_shared": self.frac_lines_write_shared,
            "consumer_read_ratio": self.consumer_read_ratio,
            "mean_sharers": self.mean_sharers,
        }


def _count_consumer_reads(
    lines: np.ndarray, tids: np.ndarray, writes: np.ndarray
) -> int:
    """Reads whose line's most recent writer is a different thread.

    Scalar oracle for the consumer-read count of
    :class:`repro.analytics.chunked.StreamingSharing`.
    """
    last_writer: Dict[int, int] = {}
    count = 0
    seq_l = lines.tolist()
    seq_t = tids.tolist()
    seq_w = writes.tolist()
    for line, tid, w in zip(seq_l, seq_t, seq_w):
        if w:
            last_writer[line] = tid
        else:
            lw = last_writer.get(line)
            if lw is not None and lw != tid:
                count += 1
    return count


@dataclasses.dataclass
class SizeSharing:
    """Sharing observed *within cache residency* at one cache size.

    Bienia et al. classify the lines held in a cache of each size as
    shared or private and count accesses to shared lines — so sharing is
    a function of cache size: a small cache evicts a line before the
    second thread arrives, hiding the sharing; a large cache exposes it.
    """

    size_bytes: int
    total_accesses: int
    shared_accesses: int       # hit on a line another thread also touched
    lifetimes: int             # line install..evict intervals observed
    shared_lifetimes: int      # lifetimes during which >1 thread touched

    @property
    def shared_access_ratio(self) -> float:
        if not self.total_accesses:
            return 0.0
        return self.shared_accesses / self.total_accesses

    @property
    def frac_lifetimes_shared(self) -> float:
        if not self.lifetimes:
            return 0.0
        return self.shared_lifetimes / self.lifetimes


def sharing_at_size_chunked(
    iter_chunks,
    size_bytes: int,
    assoc: int = 4,
    line_bytes: int = 64,
) -> SizeSharing:
    """Residency-windowed sharing through a set-associative LRU cache.

    An access is *shared* when its line is resident and some other
    thread has touched it since the line was installed.  A lifetime
    (install → evict, or install → end of trace) is shared when more
    than one thread touched the line during it.

    ``iter_chunks`` is a zero-argument callable returning an iterator of
    (addr, tid, ...) column chunks.  Each chunk runs once through the
    LRU kernel of :mod:`repro.analytics.cache`; sharing follows from its
    hit mask by residency segments, a segment being one (set, line)'s
    accesses from a miss up to its next miss.  Lifetimes equal misses,
    and a lifetime counts as shared once a second thread touches it, so
    none is left open at the end of the trace.  Per resident line only
    the segment's first thread and whether it is shared yet carry
    between chunks.  :func:`sharing_at_size_scalar` is the oracle.
    """
    from repro.analytics.cache import SetLRU

    n_sets = max(1, (size_bytes // line_bytes) // assoc)
    cache = SetLRU(n_sets, assoc)
    first_tid = np.zeros((n_sets, assoc), dtype=np.int64)
    shared_yet = np.zeros((n_sets, assoc), dtype=bool)
    total = shared = lifetimes = shared_lt = 0
    for chunk in iter_chunks():
        lines = (chunk[0] // line_bytes).astype(np.int64)
        p = cache.run(lines, lines % n_sets)
        if p is None:
            continue
        total += int(lines.size)
        lifetimes += int(lines.size - np.count_nonzero(p.hits))
        carried_shared = shared_yet[p.carried]
        korder = p.key_order()
        merged = p.order[korder]  # merged-stream index, by (set, line)
        tid = np.concatenate((first_tid[p.carried], chunk[1]))[merged]
        hit = p.hit_g[korder]
        # By (set, line) in time order, every miss (a first touch
        # included) starts a segment, and so does each carried line.
        pos = np.arange(hit.size)
        start = np.maximum.accumulate(np.where(hit, 0, pos))
        first = tid[start]
        other = (tid != first) | np.concatenate(
            (carried_shared, np.zeros(lines.size, dtype=bool))
        )[merged]
        now = np.maximum.accumulate(np.where(other, pos, -1)) >= start
        seg_end = np.append(~hit[1:], True)
        shared += int(np.count_nonzero(hit & now))
        shared_lt += int(np.count_nonzero(now & seg_end)
                         - np.count_nonzero(carried_shared))
        at = np.empty_like(korder)
        at[korder] = pos
        first_tid[p.kept] = first[at[p.kept_at]]
        shared_yet[p.kept] = now[at[p.kept_at]]
    return SizeSharing(
        size_bytes=size_bytes,
        total_accesses=total,
        shared_accesses=shared,
        lifetimes=lifetimes,
        shared_lifetimes=shared_lt,
    )


def sharing_at_size_scalar(
    addrs: np.ndarray,
    tids: np.ndarray,
    size_bytes: int,
    assoc: int = 4,
    line_bytes: int = 64,
) -> SizeSharing:
    """Per-access reference walk — the oracle for the batch engine."""
    n_sets = max(1, (size_bytes // line_bytes) // assoc)
    sets: Dict[int, list] = {}          # set -> [line, ...] MRU last
    sharers: Dict[int, set] = {}        # resident line -> tids this lifetime
    shared_accesses = 0
    lifetimes = 0
    shared_lifetimes = 0
    lines = (addrs // line_bytes).tolist()
    tid_list = tids.tolist()
    for line, tid in zip(lines, tid_list):
        s = line % n_sets
        ways = sets.setdefault(s, [])
        if line in ways:
            ways.remove(line)
            ways.append(line)
            seen = sharers[line]
            if (tid not in seen and seen) or len(seen) > 1:
                shared_accesses += 1
            seen.add(tid)
        else:
            ways.append(line)
            sharers[line] = {tid}
            if len(ways) > assoc:
                victim = ways.pop(0)
                lifetimes += 1
                if len(sharers.pop(victim)) > 1:
                    shared_lifetimes += 1
    # Close out still-resident lifetimes.
    for seen in sharers.values():
        lifetimes += 1
        if len(seen) > 1:
            shared_lifetimes += 1
    return SizeSharing(
        size_bytes=size_bytes,
        total_accesses=len(lines),
        shared_accesses=shared_accesses,
        lifetimes=lifetimes,
        shared_lifetimes=shared_lifetimes,
    )
