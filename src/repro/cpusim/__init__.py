"""Pin-like CPU instrumentation substrate.

Multithreaded (OpenMP-style) workloads run against a :class:`Machine`:
each logical thread's instrumented loads/stores append exact address
batches, which the machine interleaves round-robin in fixed quanta to
approximate concurrent execution on the paper's 8-core shared-cache
machine.  Analyses over the merged trace reproduce the paper's CPU-side
metrics: instruction mix, working sets (miss rate over cache sizes),
sharing behaviour, and instruction/data footprints.
"""

from repro.analytics.chunked import (
    analyze_sharing_chunked,
    reuse_histogram_chunked,
)
from repro.cpusim.cache import SharedCache
from repro.cpusim.codefootprint import CodeFootprintTracer
from repro.cpusim.coherence import (
    CoherenceStats,
    simulate_coherent_caches_chunked,
)
from repro.cpusim.machine import HostArray, Machine, ThreadCtx
from repro.cpusim.metrics import CPUMetrics, characterize_trace
from repro.cpusim.reuse import miss_rate_curve_chunked
from repro.cpusim.sharing import SharingStats, sharing_at_size_chunked
from repro.cpusim.workingset import (
    detect_working_sets,
    fine_miss_curve_chunked,
)

__all__ = [
    "Machine",
    "ThreadCtx",
    "HostArray",
    "SharedCache",
    "CoherenceStats",
    "simulate_coherent_caches_chunked",
    "miss_rate_curve_chunked",
    "reuse_histogram_chunked",
    "SharingStats",
    "analyze_sharing_chunked",
    "sharing_at_size_chunked",
    "detect_working_sets",
    "fine_miss_curve_chunked",
    "CPUMetrics",
    "characterize_trace",
    "CodeFootprintTracer",
]
