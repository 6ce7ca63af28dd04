"""Assembled CPU-side characterization of one workload run.

``characterize_trace`` bundles every trace-derived CPU metric —
instruction mix, the miss-rate curve over the paper's eight cache sizes,
the exact 4 MB miss rate (Figure 10), sharing statistics, data/code
footprints, and the extension metrics (the fine miss-rate grid behind
working-set detection, sharing within cache residency at
:data:`SHARING_SIZES`, private-cache coherence) — into one
:class:`CPUMetrics` record.  Like the paper (after Bienia et al.), every
metric comes from one execution's trace; the record is the persisted CPU
artifact, so experiments only ever read it.  The PCA feature vectors of
:mod:`repro.core.features` use the paper's metrics only.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.cpusim.cache import PAPER_CACHE_SIZES
from repro.cpusim.coherence import CoherenceStats
from repro.cpusim.machine import Machine
from repro.cpusim.sharing import SharingStats, SizeSharing

#: Figure 10's cache configuration.
FIG10_CACHE_BYTES = 4 * 1024 * 1024

#: Cache sizes of the residency-windowed sharing measurement.
SHARING_SIZES = (256 * 1024, 4 * 1024 * 1024, 16 * 1024 * 1024)


@dataclasses.dataclass
class CPUMetrics:
    """Characterization record of one workload run."""

    name: str
    inst_mix: Dict[str, float]
    total_insts: int
    mem_refs: int
    miss_curve: Dict[int, float]
    miss_rate_4mb: float
    sharing: SharingStats
    data_footprint_4kb: int
    code_footprint_64b: int
    fine_miss_curve: Dict[int, float]
    sharing_by_size: Dict[int, SizeSharing]
    coherence: CoherenceStats

    def working_set_features(self) -> Dict[str, float]:
        return {f"miss@{size//1024}kB": rate for size, rate in self.miss_curve.items()}

    def mix_features(self) -> Dict[str, float]:
        return dict(self.inst_mix)

    def sharing_features(self) -> Dict[str, float]:
        return self.sharing.features()

    def all_features(self) -> Dict[str, float]:
        out = {}
        out.update(self.mix_features())
        out.update(self.working_set_features())
        out.update(self.sharing_features())
        return out


def characterize_trace(
    machine: Machine,
    name: str = "",
    code_footprint_64b: int = 0,
) -> CPUMetrics:
    """Compute all CPU metrics from a machine's accumulated trace.

    Streams the trace chunk by chunk — every analysis (reuse curve, the
    exact 4 MB cache, sharing, sharing at each size, coherence) carries
    its state between chunks — so a spilled out-of-core trace is
    characterized without re-materializing it; results are bit-identical
    to the dense whole-trace path.  Both miss-rate curves come from the
    one stack-distance histogram.
    """
    from repro.analytics.chunked import StreamingReuse, StreamingSharing
    from repro.cpusim.cache import SharedCache
    from repro.cpusim.coherence import simulate_coherent_caches_chunked
    from repro.cpusim.reuse import curve_from_histogram
    from repro.cpusim.sharing import sharing_at_size_chunked
    from repro.cpusim.workingset import fine_size_grid

    line = machine.line_size
    reuse = StreamingReuse(line)
    sharing = StreamingSharing(line)
    cache4 = SharedCache(FIG10_CACHE_BYTES, assoc=4, line_bytes=line)
    for addrs, tids, writes in machine.iter_trace_chunks():
        reuse.update(addrs)
        sharing.update(addrs, tids, writes)
        cache4.run(addrs, record_hits=False)
    hist, cold = reuse.result()
    return CPUMetrics(
        name=name,
        inst_mix=machine.counts.mix(),
        total_insts=machine.counts.total,
        mem_refs=machine.counts.mem,
        miss_curve=curve_from_histogram(hist, cold, PAPER_CACHE_SIZES, line),
        miss_rate_4mb=cache4.stats.miss_rate,
        sharing=sharing.result(machine.iter_trace_chunks),
        data_footprint_4kb=machine.data_footprint_pages(),
        code_footprint_64b=code_footprint_64b,
        fine_miss_curve=curve_from_histogram(
            hist, cold, fine_size_grid(), line
        ),
        sharing_by_size={
            size: sharing_at_size_chunked(
                machine.iter_trace_chunks, size, line_bytes=line
            )
            for size in SHARING_SIZES
        },
        coherence=simulate_coherent_caches_chunked(
            machine.iter_trace_chunks, line_bytes=line
        ),
    )
