"""Batch/vectorized trace analytics.

The per-access analysis loops in :mod:`repro.cpusim` and
:mod:`repro.gpusim` are exact but pure Python; every paper figure is
bottlenecked on them.  This package provides the streaming engines that
production runs instead, *bit-identical* to those loops:

- :mod:`repro.analytics.reuse` — LRU stack distances via the offline
  previous-occurrence + sort-based counting algorithm (no per-access
  Fenwick loop).
- :mod:`repro.analytics.cache` — the one set-associative LRU kernel:
  per-set stack distances over the set-sorted stream (an access hits an
  ``A``-way set iff its per-set distance is below ``A``), for every LRU
  cache of both simulators and the residency-windowed sharing analysis.
- :mod:`repro.analytics.coherence` — private-cache MSI simulation
  vectorized across sets through a way matrix (all protocol
  interactions are line-local, hence set-local; invalidations make it
  no stack algorithm).
- :mod:`repro.analytics.chunked` — chunk-at-a-time stack distances and
  whole-run sharing statistics over columnar trace stores.

Every engine consumes a trace one chunk at a time and carries its state
between chunks; a single-chunk stream is the whole-trace case.  The
scalar implementations remain in their original modules as the test
oracles; ``tests/test_analytics_equivalence.py`` and
``tests/test_chunked_equivalence.py`` assert bit-for-bit agreement on
random and adversarial traces at several chunk sizes.
"""

from repro.analytics.cache import SetLRU
from repro.analytics.chunked import (
    StreamingReuse,
    StreamingSharing,
    analyze_sharing_chunked,
    reuse_histogram_chunked,
)
from repro.analytics.coherence import (
    CoherenceBatchState,
    simulate_coherent_caches_batch,
)
from repro.analytics.reuse import count_earlier_leq, previous_occurrence

__all__ = [
    "previous_occurrence",
    "count_earlier_leq",
    "StreamingReuse",
    "reuse_histogram_chunked",
    "StreamingSharing",
    "analyze_sharing_chunked",
    "SetLRU",
    "CoherenceBatchState",
    "simulate_coherent_caches_batch",
]
