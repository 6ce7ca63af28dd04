"""Analytic bottleneck timing model.

Prices a :class:`~repro.gpusim.trace.KernelTrace` under a
:class:`~repro.gpusim.config.GPUConfig`.  Per launch, the cycle count is

    overhead + max(issue-bound, bandwidth-bound, latency-bound)

- **issue-bound**: total issue slots (``warp_size / simd_width`` per warp
  instruction, plus shared-memory bank-conflict replays and constant-
  cache serializations) divided over the SMs that actually receive CTAs.
- **bandwidth-bound**: busiest memory channel's service time; off-chip
  transactions are address-interleaved over channels, optionally filtered
  through Fermi's per-SM L1 and unified L2 first.
- **latency-bound**: total exposed memory latency divided by the
  resident-warp concurrency the occupancy calculation allows.

This is the Hong & Kim-style analytic family the paper cites ([14]); it
reproduces the qualitative contrasts the characterization reports (which
workloads scale with SM count, which saturate channels, which are
latency-exposed at low occupancy) from a single functional trace.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.gpusim.config import GPUConfig
from repro.gpusim.isa import TRANSACTION_BYTES, Category
from repro.gpusim.memory import CacheModel
from repro.gpusim.trace import KernelTrace, LaunchTrace

#: Memory-level-parallelism factor: outstanding requests a warp overlaps.
_MLP = 4.0

#: Resident warps per SM needed to keep the issue stage fully fed
#: (hides ALU dependency latency); below this, issue efficiency drops
#: as sqrt(warps / threshold).
_FULL_ISSUE_WARPS = 20.0


@dataclasses.dataclass
class LaunchTiming:
    kernel_name: str
    cycles: float
    issue_cycles: float
    bandwidth_cycles: float
    latency_cycles: float
    ctas_per_sm: int
    resident_warps: int
    dram_bytes: int
    bound: str
    #: Cycles excluding the launch overhead; ``cycles`` is always the
    #: float sum ``launch_overhead_cycles + body_cycles``.  Stored (not
    #: recomputed by subtraction) so the profiler's stall attribution
    #: can sum bit-exactly to it.
    body_cycles: float = 0.0
    #: Gap between the binding component and the runner-up; small
    #: margins mean the ``bound`` label is fragile.
    bound_margin: float = 0.0


def classify_bound(
    issue_cycles: float, bandwidth_cycles: float, latency_cycles: float
) -> Tuple[str, float, float]:
    """Classify a launch's bottleneck; returns (bound, body, margin).

    ``body`` is the max of the three components.  On *exact* ties the
    precedence is deterministic and documented: **issue > latency >
    bandwidth**.  Rationale: an issue tie means the SMs' front end is
    already saturated, so adding bandwidth or hiding latency cannot
    help; a latency/bandwidth tie is attributed to latency because the
    busiest-channel service time is a lower bound that concurrency
    cannot shrink, whereas exposed latency responds to occupancy — the
    more actionable diagnosis.  ``margin`` is ``body`` minus the
    second-largest component (0.0 on a tie).
    """
    body = max(issue_cycles, bandwidth_cycles, latency_cycles)
    for bound, component in (
        ("issue", issue_cycles),
        ("latency", latency_cycles),
        ("bandwidth", bandwidth_cycles),
    ):
        if component == body:
            break
    ranked = sorted((issue_cycles, bandwidth_cycles, latency_cycles),
                    reverse=True)
    return bound, body, ranked[0] - ranked[1]


@dataclasses.dataclass(frozen=True)
class CacheLadder:
    """What :meth:`TimingModel._filter_through_caches` measured.

    The transaction stream enters at the top (``total`` accesses) and
    drains through whichever levels the configuration enables; whatever
    misses everywhere goes to DRAM.  The surviving transactions are kept
    only as aggregates — a count and per-channel totals — so pricing a
    spilled out-of-core launch never materializes its address stream.
    ``avg_latency`` is the access-weighted mean latency of the ladder.
    """

    dram_transactions: int
    avg_latency: float
    channel_counts: np.ndarray
    total: int = 0
    l1_accesses: int = 0
    l1_hits: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0


@dataclasses.dataclass(frozen=True)
class PriceDetail:
    """Intermediate quantities of one launch pricing.

    Everything :meth:`TimingModel.time_launch` computes on the way to a
    :class:`LaunchTiming` that the per-launch profiler
    (:mod:`repro.gpusim.profiler`) needs but the timing result does not
    carry: the occupancy solution, the cache-filter ladder, and the
    per-channel DRAM transaction counts.
    """

    occupancy: Dict[str, int]
    effective_sms: int
    actual_ctas: int
    actual_warps: int
    waves: int
    issue_slots: float
    issue_stall: float
    ladder: CacheLadder
    channel_counts: np.ndarray


@dataclasses.dataclass
class TimingResult:
    """Timing of a full application run under one configuration."""

    config: GPUConfig
    launches: List[LaunchTiming]
    cycles: float
    thread_insts: int
    dram_bytes: int

    @property
    def ipc(self) -> float:
        return self.thread_insts / self.cycles if self.cycles else 0.0

    @property
    def time_s(self) -> float:
        return self.cycles / (self.config.core_clock_ghz * 1e9)

    @property
    def bandwidth_gbs(self) -> float:
        t = self.time_s
        return self.dram_bytes / t / 1e9 if t else 0.0

    @property
    def bw_utilization(self) -> float:
        peak = self.config.peak_bandwidth_gbs
        return self.bandwidth_gbs / peak if peak else 0.0

    def bound_mix(self) -> Dict[str, float]:
        """Fraction of cycles attributed to each bottleneck class."""
        total = sum(l.cycles for l in self.launches) or 1.0
        out = {"issue": 0.0, "bandwidth": 0.0, "latency": 0.0}
        for l in self.launches:
            out[l.bound] += l.cycles / total
        return out


class TimingModel:
    """Prices kernel traces under a configuration."""

    def __init__(self, config: GPUConfig):
        self.config = config

    # ------------------------------------------------------------------
    def occupancy(self, launch: LaunchTrace) -> Dict[str, int]:
        """Resident CTAs/warps per SM under all four occupancy limiters."""
        cfg = self.config
        threads = launch.threads_per_block
        warps_per_cta = math.ceil(threads / cfg.warp_size)
        by_threads = max(1, cfg.max_threads_per_sm // threads)
        shared = launch.shared_bytes_per_block
        by_shared = (
            max(1, cfg.shared_mem_per_sm // shared) if shared > 0 else cfg.max_ctas_per_sm
        )
        regs = launch.regs_per_thread * threads
        by_regs = max(1, cfg.regs_per_sm // regs) if regs > 0 else cfg.max_ctas_per_sm
        ctas_per_sm = min(cfg.max_ctas_per_sm, by_threads, by_shared, by_regs)
        # Shared usage beyond capacity still runs one CTA (hardware would
        # refuse the launch; we degrade gracefully and flag it).
        if shared > cfg.shared_mem_per_sm:
            ctas_per_sm = 1
        return {
            "ctas_per_sm": ctas_per_sm,
            "warps_per_cta": warps_per_cta,
            "resident_warps": ctas_per_sm * warps_per_cta,
            "by_threads": by_threads,
            "by_shared": by_shared,
            "by_regs": by_regs,
        }

    # ------------------------------------------------------------------
    def _channel_counts(self, addrs: np.ndarray) -> np.ndarray:
        """Per-channel DRAM transaction counts (address-interleaved)."""
        cfg = self.config
        if addrs.size == 0:
            return np.zeros(cfg.n_mem_channels, dtype=np.int64)
        channels = (addrs >> 8) % cfg.n_mem_channels
        return np.bincount(
            channels.astype(np.int64), minlength=cfg.n_mem_channels
        )

    def _busy_from_counts(self, counts: np.ndarray) -> float:
        """Busiest channel's service time, in core cycles."""
        cfg = self.config
        cycles_per_tx = (
            TRANSACTION_BYTES
            / (cfg.bus_width_bytes * 2)
            * (cfg.core_clock_ghz / cfg.mem_clock_ghz)
        )
        return float(counts.max() * cycles_per_tx)

    def _filter_through_caches(
        self, launch: LaunchTrace, effective_sms: int
    ) -> CacheLadder:
        """Run transactions through L1/L2; returns the :class:`CacheLadder`.

        L1s are per-SM (CTAs map to SMs round-robin); the L2 is unified.
        Without caches, all transactions go to DRAM at full latency.
        """
        cfg = self.config
        total = launch.n_transactions
        n_ch = cfg.n_mem_channels
        zeros = np.zeros(n_ch, dtype=np.int64)
        if total == 0:
            return CacheLadder(0, float(cfg.mem_latency_cycles), zeros)
        if not cfg.has_l1 and not cfg.has_l2:
            counts = zeros
            for addrs, _, _ in launch.iter_transaction_chunks():
                counts = counts + self._channel_counts(addrs)
            return CacheLadder(
                int(total), float(cfg.mem_latency_cycles), counts,
                total=int(total),
            )

        n_sms = max(1, effective_sms)
        # The per-SM L1s are one model whose set groups are the SMs, so
        # each chunk makes one L1 call; every SM's L1 still sees its own
        # stream in time order.
        l1 = (
            CacheModel(cfg.l1_size, cfg.l1_assoc, TRANSACTION_BYTES,
                       n_caches=n_sms)
            if cfg.has_l1
            else None
        )
        l2 = (
            CacheModel(cfg.l2_size, cfg.l2_assoc, TRANSACTION_BYTES,
                       hash_sets=True)
            if cfg.has_l2
            else None
        )
        n_blocks = max(1, launch.n_blocks)
        chunk = max(1, math.ceil(n_blocks / n_sms))
        l1_hits = l2_hits = l2_accesses = dram_tx = 0
        counts = zeros
        # The caches carry their state across chunks, so streaming the
        # launch chunk by chunk is bit-identical to one dense pass.
        for addrs, blocks, _ in launch.iter_transaction_chunks():
            survivors = addrs
            if l1 is not None:
                if cfg.cta_scheduler == "chunked":
                    sms = np.minimum(blocks // chunk, n_sms - 1)
                else:
                    sms = blocks % n_sms
                hit_mask = l1.access(addrs, sms)
                l1_hits += int(np.count_nonzero(hit_mask))
                survivors = addrs[~hit_mask]
            dram = survivors
            if l2 is not None:
                l2_accesses += int(survivors.size)
                hit2 = l2.access(survivors)
                l2_hits += int(np.count_nonzero(hit2))
                dram = survivors[~hit2]
            dram_tx += int(dram.size)
            if dram.size:
                counts = counts + self._channel_counts(dram)
        lat = (
            l1_hits * cfg.l1_latency_cycles
            + l2_hits * cfg.l2_latency_cycles
            + dram_tx * cfg.mem_latency_cycles
        ) / total
        return CacheLadder(
            dram_tx,
            float(lat),
            counts,
            total=int(total),
            l1_accesses=int(total) if cfg.has_l1 else 0,
            l2_accesses=l2_accesses,
            l1_hits=l1_hits,
            l2_hits=l2_hits,
        )

    # ------------------------------------------------------------------
    def _price(self, launch: LaunchTrace) -> Tuple[LaunchTiming, PriceDetail]:
        """Price one launch, keeping the intermediates for the profiler."""
        cfg = self.config
        occ = self.occupancy(launch)
        n_blocks = max(1, launch.n_blocks)
        effective_sms = min(cfg.n_sms, n_blocks)

        # Actual residency: capacity-limited CTAs, but a small grid may
        # not fill even that (e.g. LUD's diagonal kernel, NW's early
        # wavefronts).
        waves = math.ceil(n_blocks / effective_sms)
        actual_ctas = max(1, min(occ["ctas_per_sm"], waves))
        actual_warps = actual_ctas * occ["warps_per_cta"]

        # Issue-bound component.  Below _FULL_ISSUE_WARPS resident warps
        # the scheduler cannot cover ALU dependency latency, so issue
        # efficiency degrades (this is what makes shared-memory-hungry
        # kernels prefer Fermi's shared-bias split: the 16 kB
        # configuration halves their resident CTAs).
        slots_per_inst = cfg.warp_size / cfg.simd_width
        issue_slots = launch.issued_warp_insts * slots_per_inst
        if cfg.model_bank_conflicts:
            issue_slots += launch.shared_replays * slots_per_inst
        issue_slots += launch.const_serializations
        issue_stall = max(1.0, math.sqrt(_FULL_ISSUE_WARPS / actual_warps))
        issue_cycles = issue_slots / effective_sms * issue_stall

        # Bandwidth-bound component (through caches when configured).
        ladder = self._filter_through_caches(launch, effective_sms)
        channel_counts = ladder.channel_counts
        bandwidth_cycles = self._busy_from_counts(channel_counts)

        # Latency-bound component: per-SM transaction latency divided by
        # warp concurrency and per-warp MLP.
        tx_per_sm = launch.n_transactions / effective_sms
        concurrency = actual_warps
        latency_cycles = tx_per_sm * ladder.avg_latency / (concurrency * _MLP)

        bound, body, margin = classify_bound(
            issue_cycles, bandwidth_cycles, latency_cycles
        )
        cycles = cfg.launch_overhead_cycles + body
        timing = LaunchTiming(
            kernel_name=launch.kernel_name,
            cycles=cycles,
            issue_cycles=issue_cycles,
            bandwidth_cycles=bandwidth_cycles,
            latency_cycles=latency_cycles,
            ctas_per_sm=occ["ctas_per_sm"],
            resident_warps=actual_warps,
            dram_bytes=ladder.dram_transactions * TRANSACTION_BYTES,
            bound=bound,
            body_cycles=body,
            bound_margin=margin,
        )
        detail = PriceDetail(
            occupancy=occ,
            effective_sms=effective_sms,
            actual_ctas=actual_ctas,
            actual_warps=actual_warps,
            waves=waves,
            issue_slots=issue_slots,
            issue_stall=issue_stall,
            ladder=ladder,
            channel_counts=channel_counts,
        )
        return timing, detail

    def time_launch(self, launch: LaunchTrace) -> LaunchTiming:
        timing, _ = self._price(launch)
        return timing

    def time(self, trace: KernelTrace) -> TimingResult:
        with telemetry.span("timing", app=trace.app_name,
                            launches=trace.n_launches):
            launches = [self.time_launch(lt) for lt in trace.launches]
        return TimingResult(
            config=self.config,
            launches=launches,
            cycles=sum(l.cycles for l in launches),
            thread_insts=trace.thread_insts,
            dram_bytes=sum(l.dram_bytes for l in launches),
        )

    def profile(self, trace: KernelTrace) -> "AppProfile":
        """Price every launch *and* collect its hardware-style counters.

        Returns a :class:`repro.gpusim.profiler.AppProfile`; the timing
        numbers inside are bit-identical to :meth:`time` (both paths go
        through :meth:`_price`).
        """
        from repro.gpusim.profiler import profile_trace

        return profile_trace(trace, self)

    # ------------------------------------------------------------------
    # Concurrent kernel execution (paper future work, Section VII)
    # ------------------------------------------------------------------
    def time_concurrent(self, traces: List[KernelTrace]) -> "ConcurrentTiming":
        """Co-schedule several applications on one GPU.

        The paper lists "simultaneous kernel execution" as a planned
        Rodinia feature.  Model: co-running kernels share the machine's
        two throughput resources — issue slots and memory channels — so
        the co-run's duration is the larger of the *summed* issue demand
        and the *summed* channel demand (plus each app's exposed-latency
        floor).  Complementary pairs (one issue-bound + one
        bandwidth-bound) overlap their demands and finish faster than
        running back-to-back.
        """
        if not traces:
            raise ValueError("need at least one trace")
        singles = [self.time(tr) for tr in traces]
        serial_cycles = sum(t.cycles for t in singles)
        total_issue = sum(
            l.issue_cycles for t in singles for l in t.launches
        )
        total_bw = sum(
            l.bandwidth_cycles for t in singles for l in t.launches
        )
        latency_floor = max(
            (l.latency_cycles for t in singles for l in t.launches),
            default=0.0,
        )
        overhead = sum(
            self.config.launch_overhead_cycles * len(t.launches)
            for t in singles
        ) / max(1, len(singles))  # launches overlap across streams
        concurrent_cycles = overhead + max(total_issue, total_bw, latency_floor)
        # Co-running can never beat the slowest member running alone.
        concurrent_cycles = max(
            concurrent_cycles, max(t.cycles for t in singles) * 0.999
        )
        return ConcurrentTiming(
            config=self.config,
            singles=singles,
            serial_cycles=float(serial_cycles),
            concurrent_cycles=float(concurrent_cycles),
        )


@dataclasses.dataclass
class ConcurrentTiming:
    """Serial vs co-scheduled execution of multiple applications."""

    config: GPUConfig
    singles: List[TimingResult]
    serial_cycles: float
    concurrent_cycles: float

    @property
    def speedup(self) -> float:
        """Throughput gain of co-scheduling over back-to-back runs."""
        if self.concurrent_cycles <= 0:
            return 1.0
        return self.serial_cycles / self.concurrent_cycles
