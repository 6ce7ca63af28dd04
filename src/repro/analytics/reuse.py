"""Vectorized LRU stack-distance computation.

The scalar algorithm (:mod:`repro.cpusim.reuse`) walks the trace once,
paying a Python-level Fenwick update/query per access.  Here the same
quantity — for each access, the number of distinct lines touched since
the previous access to the same line — is computed offline in a handful
of whole-array numpy passes:

1. ``previous_occurrence``: one stable argsort groups equal lines while
   preserving time order, so each access's previous-use index ``p[i]``
   falls out of a shifted comparison.

2. The distance identity.  Every position ``j <= p[i]`` trivially
   satisfies ``p[j] < j <= p[i]``, so::

       d[i] = #{ j in (p[i], i) : p[j] <= p[i] }          (first uses)
            = #{ j < i : p[j] <= p[i] } - (p[i] + 1)

   which reduces the problem to *offline dominance counting*: for each
   element of ``p``, how many earlier elements are <= it.

3. ``count_earlier_leq``: level-wise merge counting.  Value and
   position are packed into one int64 key; at each level, blocks of
   ``2w`` (each half already sorted) are merged by a run-aware stable
   sort, and a per-row cumulative sum of "came from the left half"
   yields, for every right-half element, the number of left-half
   elements <= it.  O(n log^2 n) element work, all inside numpy.

:class:`repro.analytics.chunked.StreamingReuse` applies both passes
chunk by chunk, carrying earlier chunks' previous-occurrence values;
cold (first-touch) accesses are reported separately, exactly as in the
scalar implementation.
"""

from __future__ import annotations

import numpy as np

#: Packed (value, position) keys use 32 bits for each half; inputs at or
#: beyond this length are rejected (they would not fit in memory anyway).
_MAX_BATCH = 1 << 30

_POS_MASK = np.int64((1 << 32) - 1)


def previous_occurrence(keys: np.ndarray) -> np.ndarray:
    """Index of the previous occurrence of each element (-1 if first).

    One stable argsort; equal keys stay in time order, so the previous
    occurrence of ``keys[i]`` is simply its predecessor within the run
    of equal sorted keys.
    """
    return sorted_previous_occurrence(keys)[0]


def sorted_previous_occurrence(keys: np.ndarray, groups=None) -> tuple:
    """:func:`previous_occurrence` plus the stable sort it is built on.

    Returns ``(prev, order, sorted_keys)`` with ``order`` the stable
    argsort of ``keys``, for callers that need the sort as well.  With
    ``groups`` (non-decreasing along ``keys``) occurrences are keyed by
    (group, key): equal keys in two groups never see each other.
    """
    n = keys.size
    prev = np.full(n, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    if n > 1:
        same = sk[1:] == sk[:-1]
        if groups is not None:
            # Equal keys sort in position order, so group by group.
            sg = groups[order]
            same &= sg[1:] == sg[:-1]
        prev_sorted = np.full(n, -1, dtype=np.int64)
        prev_sorted[1:][same] = order[:-1][same]
        prev[order] = prev_sorted
    return prev, order, sk


def count_earlier_leq(values: np.ndarray) -> np.ndarray:
    """For each i, the number of j < i with ``values[j] <= values[i]``.

    Offline dominance counting by level-wise merging (see module
    docstring).  ``values`` must lie in ``[-1, n]``.
    """
    n = values.size
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    if n >= _MAX_BATCH:
        raise ValueError(f"trace too long for packed counting ({n})")
    m = 1 << (n - 1).bit_length()
    packed = np.empty(m, dtype=np.int64)
    # Shift values to [0, n+1] and reserve n+2 for the padding sentinel,
    # which sorts after every real value and is never a query target
    # (counts accumulated for padding slots are sliced away at the end).
    packed[:n] = (values.astype(np.int64) + 1) << 32
    packed[n:] = np.int64(n + 2) << 32
    packed += np.arange(m, dtype=np.int64)
    counts = np.zeros(m, dtype=np.int64)

    # Level 0: blocks of two need no sort — min/max orders each pair,
    # and the left element (strictly smaller packed key when values tie,
    # thanks to the position bits) contributes iff it is the pair min.
    ev, od = packed[0::2], packed[1::2]
    lo = np.minimum(ev, od)
    hi = np.maximum(ev, od)
    counts[(od & _POS_MASK)[lo == ev]] += 1
    packed[0::2] = lo
    packed[1::2] = hi

    w = 2
    while w < m:
        # Each row of the reshape is two sorted runs; a run-aware stable
        # sort merges them in linear time.
        sp = np.sort(packed.reshape(-1, 2 * w), axis=1, kind="stable")
        gpos = sp & _POS_MASK
        # An element belongs to the left half of its block iff bit
        # log2(w) of its original position is clear.
        right = (gpos & w).astype(bool).reshape(-1, 2 * w)
        cum = np.cumsum(~right, axis=1, dtype=np.int32)
        rf = right.reshape(-1)
        counts[gpos.reshape(-1)[rf]] += cum.reshape(-1)[rf]
        packed = sp.reshape(-1)
        w *= 2
    return counts[:n]
