"""Batch/vectorized trace analytics.

The per-access analysis loops in :mod:`repro.cpusim` and
:mod:`repro.gpusim` are exact but pure Python; every paper figure is
bottlenecked on them.  This package provides the streaming engines that
production runs instead, *bit-identical* to those loops:

- :mod:`repro.analytics.reuse` — LRU stack distances via the offline
  previous-occurrence + sort-based counting algorithm (no per-access
  Fenwick loop).
- :mod:`repro.analytics.cache` — set-associative LRU simulation that
  stable-sorts accesses by set index and advances every set one access
  per vectorized round through a way matrix.
- :mod:`repro.analytics.sharing` — residency-windowed sharing on the
  way-matrix engine, with per-way sharer bitmasks.
- :mod:`repro.analytics.coherence` — private-cache MSI simulation
  vectorized across sets (all protocol interactions are line-local,
  hence set-local).
- :mod:`repro.analytics.chunked` — chunk-at-a-time stack distances and
  whole-run sharing statistics over columnar trace stores.

Every engine consumes a trace one chunk at a time and carries its state
between chunks; a single-chunk stream is the whole-trace case.  The
scalar implementations remain in their original modules as the test
oracles; ``tests/test_analytics_equivalence.py`` and
``tests/test_chunked_equivalence.py`` assert bit-for-bit agreement on
random and adversarial traces at several chunk sizes.
"""

from repro.analytics.cache import batch_worthwhile, simulate_lru_sets
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
from repro.analytics.sharing import SharingSizeState, sharing_at_size_batch

__all__ = [
    "previous_occurrence",
    "count_earlier_leq",
    "StreamingReuse",
    "reuse_histogram_chunked",
    "StreamingSharing",
    "analyze_sharing_chunked",
    "simulate_lru_sets",
    "batch_worthwhile",
    "SharingSizeState",
    "sharing_at_size_batch",
    "CoherenceBatchState",
    "simulate_coherent_caches_batch",
]
