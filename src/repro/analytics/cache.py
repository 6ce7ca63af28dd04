"""One set-associative LRU kernel: per-set stack distances.

Accesses to different cache sets never interact, and within one set LRU
is a stack algorithm (Mattson's inclusion property): an access hits an
``A``-way set if and only if fewer than ``A`` distinct lines of its set
were touched since its previous access to the same line.  One call of
:meth:`SetLRU.run` is therefore the stack-distance computation of
:mod:`repro.analytics.reuse`, run per set:

1. the call's accesses are stable-sorted by set, each touched set's
   resident lines (LRU first) prepended as if accessed just before;
2. previous occurrences are keyed by (set, line), so a line last seen
   in another set group (another SM's L1) is a first touch here;
3. ``d = #{j < i : p[j] <= p[i]} - p[i] - 1`` (``count_earlier_leq``);
   an access hits iff it has a previous occurrence and ``d < A``;
4. each touched set keeps its last ``A`` distinct lines as its state.

The cost is O(n log² n) element work whatever the skew across sets.
Figure 10's shared cache, the residency-windowed sharing analysis, the
GPU's texture/constant caches and its L1/L2 ladder all run on it; the
per-access oracle is :func:`repro.cpusim.cache.lru_walk_scalar`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.analytics.reuse import count_earlier_leq, sorted_previous_occurrence

#: State slot holding no line.  Real line addresses are non-negative.
EMPTY_LINE = np.int64(-1)


class LRUPass(NamedTuple):
    """One kernel call, in the layouts a caller's payload can follow.

    The *merged* stream is the carried lines followed by the call's
    accesses; the *grouped* layout is that stream stable-sorted by set.
    A *run* is a maximal block of equal (set, line) in the grouped
    layout: only its head can miss, the rest re-touch the set's MRU.
    """

    hits: np.ndarray     # per access, in call order
    order: np.ndarray    # merged-stream index of each grouped position
    hit_g: np.ndarray    # hit mask, grouped layout (False on carried lines)
    runs: np.ndarray     # grouped position of each run head
    korder: np.ndarray   # runs by (set, line), time order within
    carried: Tuple[np.ndarray, np.ndarray]  # state slot of each carried line
    kept: Tuple[np.ndarray, np.ndarray]     # state slot of each final resident
    kept_at: np.ndarray  # grouped position of each final resident's last use

    def key_order(self) -> np.ndarray:
        """Grouped positions by (set, line), time order within."""
        n = self.order.size
        lens = np.diff(np.append(self.runs, n))[self.korder]
        skip = self.runs[self.korder] - (np.cumsum(lens) - lens)
        return np.repeat(skip, lens) + np.arange(n)


class SetLRU:
    """Per-set LRU state of a cache, or of several as set groups."""

    def __init__(self, n_sets: int, assoc: int):
        self.assoc = assoc
        # Resident lines per set, LRU first, MRU in the last column;
        # EMPTY_LINE pads the front of a set holding fewer lines.
        self.ways = np.full((n_sets, assoc), EMPTY_LINE, dtype=np.int64)
        # The narrowest unsigned type holding a set index: numpy's
        # stable sort is a radix sort up to 16 bits.
        self._set_dtype = np.min_scalar_type(max(0, n_sets - 1))

    def access(self, lines: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Access ``lines`` (in ``sets``) in order; returns the hit mask."""
        p = self.run(lines, sets)
        return p.hits if p is not None else np.zeros(0, dtype=bool)

    def resident(self) -> Dict[int, List[int]]:
        """Resident lines of every occupied set, LRU first."""
        rows, cols = np.nonzero(self.ways != EMPTY_LINE)
        out: Dict[int, List[int]] = {}
        for s, line in zip(rows.tolist(), self.ways[rows, cols].tolist()):
            out.setdefault(s, []).append(line)
        return out

    def run(self, lines: np.ndarray, sets: np.ndarray) -> Optional[LRUPass]:
        """One kernel call; updates the state.  ``None`` for no accesses."""
        n = lines.size
        if n == 0:
            return None
        A = self.assoc
        touched = np.zeros(self.ways.shape[0], dtype=bool)
        touched[sets] = True
        touched = np.flatnonzero(touched)
        carried = self.ways[touched]
        prow, pcol = np.nonzero(carried != EMPTY_LINE)
        slots = (touched[prow], pcol)
        m_sets = np.concatenate((slots[0], sets)).astype(self._set_dtype)
        # Stable: each set's carried lines (LRU first) precede its
        # accesses, which stay in time order.
        order = np.argsort(m_sets, kind="stable")
        g_sets = m_sets[order]
        g_lines = np.concatenate((carried[prow, pcol], lines))[order]
        N = order.size
        # Dropping a run's repeats changes no other access's distance,
        # so distances are counted over run heads only.
        head = np.ones(N, dtype=bool)
        head[1:] = (g_lines[1:] != g_lines[:-1]) | (g_sets[1:] != g_sets[:-1])
        runs = np.flatnonzero(head)
        r_sets = g_sets[runs]
        r_lines = g_lines[runs]
        prev, korder, _ = sorted_previous_occurrence(r_lines, r_sets)
        hit_g = ~head
        hit_g[runs] = (prev >= 0) & (count_earlier_leq(prev) - prev - 1 < A)
        inv = np.empty_like(order)
        inv[order] = np.arange(N)
        hits = hit_g[inv[prow.size:]]

        # A (set, line)'s last run is nobody's previous occurrence; in
        # the grouped layout the last runs go set by set, LRU first.
        reused = np.zeros(runs.size, dtype=bool)
        reused[prev[prev >= 0]] = True
        last = np.flatnonzero(~reused)
        ls = r_sets[last]
        from_mru = (np.searchsorted(ls, ls, side="right") - 1
                    - np.arange(last.size))
        keep = from_mru < A
        last = last[keep]
        kept = (ls[keep], A - 1 - from_mru[keep])
        self.ways[touched] = EMPTY_LINE
        self.ways[kept] = r_lines[last]
        run_end = np.append(runs[1:], N) - 1

        if telemetry.active():
            n_hit = int(np.count_nonzero(hits))
            telemetry.count("analytics.lru.accesses", n)
            telemetry.count("analytics.lru.hits", n_hit)
            telemetry.count("analytics.lru.misses", n - n_hit)
        return LRUPass(hits, order, hit_g, runs, korder, slots, kept,
                       run_end[last])
