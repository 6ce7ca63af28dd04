"""Hardware-style performance-counter profiler for the simulated GPU.

The timing model (:mod:`repro.gpusim.timing`) computes a rich
issue/bandwidth/latency decomposition, cache-filter ladder, and
bank-conflict accounting for every launch — and then reports only the
final cycle count.  This module keeps the intermediates, the way Nsight
Compute keeps SM counters next to kernel durations:

- :class:`CounterSet` — one launch's counters: issued warp instructions,
  SIMD issue slots, shared-memory replays, constant serializations, the
  L1/L2/tex/const hit ladder, DRAM transactions and bytes per channel,
  coalescing efficiency, residency (warps/CTAs/waves), and a
  **stall-attribution** split of the launch's body cycles into
  issue/bandwidth/latency components that sums *bit-exactly* to
  ``LaunchTiming.body_cycles``.
- :class:`KernelRollup` / :class:`AppProfile` — per-kernel and per-app
  aggregation with hot-kernel tables, stall mixes, and a roofline
  classification (arithmetic intensity against the machine balance).
- :func:`profile_trace` — produce an :class:`AppProfile` from a
  functional trace; timing numbers are bit-identical to
  ``TimingModel.time`` because both share ``TimingModel._price``.

Counters derive deterministically from ``(trace, config)``, so the
block-batched engine and its per-block oracle — whose traces are
bit-identical — yield identical CounterSets, and the fidelity drift gate
can pin them with the same tolerance machinery as figure data
(``gpuprof/`` family in :mod:`repro.fidelity.drift`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro import telemetry
from repro.common.tables import Table
from repro.gpusim.config import GPUConfig
from repro.gpusim.isa import TRANSACTION_BYTES
from repro.gpusim.trace import KernelTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpusim.timing import TimingModel

#: Canonical component order.  Every exactness guarantee in this module
#: is stated over the left-to-right float sum in THIS order; reordering
#: changes rounding and breaks the bit-exact invariant.
STALL_COMPONENTS = ("issue", "bandwidth", "latency")


def cycles_per_transaction(config: GPUConfig) -> float:
    """Core cycles one DRAM transaction occupies its channel.

    Matches ``TimingModel._busy_from_counts`` term-for-term: a channel
    moves ``bus_width_bytes * 2`` bytes per memory clock (DDR), scaled
    into the core clock domain.
    """
    return (
        TRANSACTION_BYTES
        / (config.bus_width_bytes * 2)
        * (config.core_clock_ghz / config.mem_clock_ghz)
    )


def machine_balance(config: GPUConfig) -> float:
    """Roofline ridge point, in thread instructions per DRAM byte.

    Peak issue throughput is ``n_sms * simd_width`` thread instructions
    per core cycle; peak memory throughput is ``peak_bandwidth_gbs``
    converted to bytes per core cycle.  Kernels whose arithmetic
    intensity exceeds this balance cannot be limited by DRAM bandwidth.
    """
    peak_ipc = config.n_sms * config.simd_width
    bytes_per_cycle = config.peak_bandwidth_gbs / config.core_clock_ghz
    return peak_ipc / bytes_per_cycle if bytes_per_cycle else float("inf")


def attribute_stalls(
    issue_cycles: float,
    bandwidth_cycles: float,
    latency_cycles: float,
    body_cycles: float,
    bound: str,
) -> Dict[str, float]:
    """Split a launch's body cycles across the three stall components.

    Each component receives a share proportional to its standalone
    demand, so the report reads "of the launch's N cycles, X were
    issue, Y bandwidth, Z latency".  The split is *exact by
    construction*: ``out["issue"] + out["bandwidth"] + out["latency"]``
    (left-to-right, in :data:`STALL_COMPONENTS` order) equals
    ``body_cycles`` bit-for-bit.  Proportional shares are rounded
    floats, so a residual-correction loop folds any rounding remainder
    into the binding component; in the (never observed) event that four
    corrections do not converge, the whole body is attributed to
    ``bound`` — a sum of ``body + 0.0 + 0.0`` is always exact.
    """
    out = {c: 0.0 for c in STALL_COMPONENTS}
    if body_cycles == 0.0:
        return out
    demand = issue_cycles + bandwidth_cycles + latency_cycles
    if demand > 0.0:
        out["issue"] = body_cycles * (issue_cycles / demand)
        out["bandwidth"] = body_cycles * (bandwidth_cycles / demand)
        out["latency"] = body_cycles * (latency_cycles / demand)
        for _ in range(4):
            resid = body_cycles - (
                out["issue"] + out["bandwidth"] + out["latency"]
            )
            if resid == 0.0:
                return out
            out[bound] += resid
    out = {c: 0.0 for c in STALL_COMPONENTS}
    out[bound] = body_cycles
    return out


@dataclasses.dataclass(frozen=True)
class CounterSet:
    """One launch's hardware-style counters (see module docstring).

    ``stalls`` maps :data:`STALL_COMPONENTS` to cycles and sums
    bit-exactly to ``body_cycles``; ``cycles`` is always
    ``launch_overhead + body_cycles`` in the model's own float order.
    """

    kernel_name: str
    launch_index: int
    # --- shape / residency ------------------------------------------
    n_blocks: int
    threads_per_block: int
    resident_ctas: int
    resident_warps: int
    waves: int
    effective_sms: int
    # --- issue ladder -----------------------------------------------
    thread_insts: int
    issued_warp_insts: int
    simd_slots: float
    shared_replays: int
    const_serializations: int
    # --- memory ladder ----------------------------------------------
    tex_accesses: int
    tex_hits: int
    const_accesses: int
    const_hits: int
    l1_accesses: int
    l1_hits: int
    l2_accesses: int
    l2_hits: int
    global_warp_insts: int
    mem_transactions: int
    dram_transactions: int
    dram_bytes: int
    channel_transactions: Tuple[int, ...]
    # --- timing ------------------------------------------------------
    cycles: float
    body_cycles: float
    issue_cycles: float
    bandwidth_cycles: float
    latency_cycles: float
    stalls: Dict[str, float]
    bound: str
    bound_margin: float
    # --- roofline ----------------------------------------------------
    arithmetic_intensity: float
    roofline: str

    # ------------------------------------------------------------------
    @property
    def coalescing_efficiency(self) -> float:
        """Off-chip warp accesses per generated transaction (≤ 1.0).

        1.0 means every global/local warp access coalesced into a
        single transaction; scattered access patterns push it toward
        ``1 / warp_size``.  Launches with no off-chip traffic score 1.0.
        """
        if self.mem_transactions == 0:
            return 1.0
        return min(1.0, self.global_warp_insts / self.mem_transactions)

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def tex_hit_rate(self) -> float:
        return self.tex_hits / self.tex_accesses if self.tex_accesses else 0.0

    @property
    def const_hit_rate(self) -> float:
        return (
            self.const_hits / self.const_accesses if self.const_accesses else 0.0
        )

    @property
    def max_channel_transactions(self) -> int:
        return max(self.channel_transactions, default=0)

    def stall_mix(self) -> Dict[str, float]:
        """Stall cycles as fractions of body cycles (0.0 when empty)."""
        if self.body_cycles == 0.0:
            return {c: 0.0 for c in STALL_COMPONENTS}
        return {c: self.stalls[c] / self.body_cycles for c in STALL_COMPONENTS}

    def as_dict(self) -> Dict[str, object]:
        """Flat, deterministic view — the unit of drift-gating and of
        the batch-vs-oracle identity test."""
        d = dataclasses.asdict(self)
        d["channel_transactions"] = list(self.channel_transactions)
        d["coalescing_efficiency"] = self.coalescing_efficiency
        d["l1_hit_rate"] = self.l1_hit_rate
        d["l2_hit_rate"] = self.l2_hit_rate
        d["tex_hit_rate"] = self.tex_hit_rate
        d["const_hit_rate"] = self.const_hit_rate
        return d


@dataclasses.dataclass
class KernelRollup:
    """All launches of one kernel, aggregated."""

    kernel_name: str
    launches: int = 0
    cycles: float = 0.0
    body_cycles: float = 0.0
    stalls: Dict[str, float] = dataclasses.field(
        default_factory=lambda: {c: 0.0 for c in STALL_COMPONENTS}
    )
    thread_insts: int = 0
    issued_warp_insts: int = 0
    dram_transactions: int = 0
    dram_bytes: int = 0
    bound_cycles: Dict[str, float] = dataclasses.field(
        default_factory=lambda: {c: 0.0 for c in STALL_COMPONENTS}
    )

    def add(self, cs: CounterSet) -> None:
        self.launches += 1
        self.cycles += cs.cycles
        self.body_cycles += cs.body_cycles
        for c in STALL_COMPONENTS:
            self.stalls[c] += cs.stalls[c]
        self.thread_insts += cs.thread_insts
        self.issued_warp_insts += cs.issued_warp_insts
        self.dram_transactions += cs.dram_transactions
        self.dram_bytes += cs.dram_bytes
        self.bound_cycles[cs.bound] += cs.cycles

    @property
    def bound(self) -> str:
        """Cycle-weighted dominant bottleneck (STALL_COMPONENTS order
        breaks ties, consistent with ``classify_bound`` precedence)."""
        best = max(self.bound_cycles.values())
        for c in ("issue", "latency", "bandwidth"):
            if self.bound_cycles[c] == best:
                return c
        return "issue"  # pragma: no cover - unreachable

    @property
    def arithmetic_intensity(self) -> float:
        return self.thread_insts / max(self.dram_bytes, 1)

    def stall_mix(self) -> Dict[str, float]:
        if self.body_cycles == 0.0:
            return {c: 0.0 for c in STALL_COMPONENTS}
        return {c: self.stalls[c] / self.body_cycles for c in STALL_COMPONENTS}


@dataclasses.dataclass
class AppProfile:
    """Profile of one application run under one configuration."""

    app_name: str
    config: GPUConfig
    counters: List[CounterSet]

    @property
    def total_cycles(self) -> float:
        return sum(cs.cycles for cs in self.counters)

    @property
    def thread_insts(self) -> int:
        return sum(cs.thread_insts for cs in self.counters)

    @property
    def dram_bytes(self) -> int:
        return sum(cs.dram_bytes for cs in self.counters)

    def kernels(self) -> Dict[str, KernelRollup]:
        """Per-kernel rollups, in first-launch order."""
        out: Dict[str, KernelRollup] = {}
        for cs in self.counters:
            roll = out.get(cs.kernel_name)
            if roll is None:
                roll = out[cs.kernel_name] = KernelRollup(cs.kernel_name)
            roll.add(cs)
        return out

    def hot_kernels(self, n: int = 3) -> List[KernelRollup]:
        """The ``n`` kernels with the most cycles, hottest first.

        Ties broken by first-launch order, so the ranking is stable.
        """
        rolls = list(self.kernels().values())
        rolls.sort(key=lambda r: -r.cycles)
        return rolls[:n]

    def stall_mix(self) -> Dict[str, float]:
        """App-wide stall fractions over summed body cycles."""
        total = sum(cs.body_cycles for cs in self.counters)
        if total == 0.0:
            return {c: 0.0 for c in STALL_COMPONENTS}
        return {
            c: sum(cs.stalls[c] for cs in self.counters) / total
            for c in STALL_COMPONENTS
        }

    def roofline(self) -> str:
        """App-level roofline class from aggregate arithmetic intensity."""
        ai = self.thread_insts / max(self.dram_bytes, 1)
        return "compute" if ai >= machine_balance(self.config) else "bandwidth"

    # ------------------------------------------------------------------
    def kernel_table(self) -> Table:
        """Per-kernel stall attribution + roofline (the --gpu-profile
        report body)."""
        t = Table(
            f"{self.app_name}: per-kernel stall attribution "
            f"({self.config.name})",
            [
                "kernel", "launches", "cycles", "cyc%",
                "issue%", "bw%", "lat%", "bound", "margin%",
                "AI", "roofline",
            ],
        )
        total = self.total_cycles or 1.0
        balance = machine_balance(self.config)
        margins: Dict[str, float] = {}
        bodies: Dict[str, float] = {}
        for cs in self.counters:
            margins[cs.kernel_name] = margins.get(cs.kernel_name, 0.0) + (
                cs.bound_margin
            )
            bodies[cs.kernel_name] = bodies.get(cs.kernel_name, 0.0) + (
                cs.body_cycles
            )
        for roll in self.hot_kernels(n=len(self.kernels())):
            mix = roll.stall_mix()
            margin_pct = (
                100.0 * margins[roll.kernel_name] / bodies[roll.kernel_name]
                if bodies[roll.kernel_name]
                else 0.0
            )
            t.add_row([
                roll.kernel_name,
                roll.launches,
                roll.cycles,
                100.0 * roll.cycles / total,
                100.0 * mix["issue"],
                100.0 * mix["bandwidth"],
                100.0 * mix["latency"],
                roll.bound,
                margin_pct,
                roll.arithmetic_intensity,
                "compute" if roll.arithmetic_intensity >= balance else "bandwidth",
            ])
        return t

    def counter_table(self) -> Table:
        """Per-kernel counter ladder (the raw-counter half of the
        report)."""
        t = Table(
            f"{self.app_name}: counter sets ({self.config.name})",
            [
                "kernel", "warp_insts", "simd_slots", "replays",
                "const_ser", "l1_hit%", "l2_hit%", "coalesce",
                "dram_tx", "dram_MB", "warps", "waves",
            ],
        )
        agg: Dict[str, Dict[str, float]] = {}
        order: List[str] = []
        for cs in self.counters:
            a = agg.get(cs.kernel_name)
            if a is None:
                a = agg[cs.kernel_name] = {
                    "warp_insts": 0, "simd_slots": 0.0, "replays": 0,
                    "const_ser": 0, "l1_a": 0, "l1_h": 0, "l2_a": 0,
                    "l2_h": 0, "gwi": 0, "mem_tx": 0, "dram_tx": 0,
                    "dram_b": 0, "warps": 0, "waves": 0, "n": 0,
                }
                order.append(cs.kernel_name)
            a["warp_insts"] += cs.issued_warp_insts
            a["simd_slots"] += cs.simd_slots
            a["replays"] += cs.shared_replays
            a["const_ser"] += cs.const_serializations
            a["l1_a"] += cs.l1_accesses
            a["l1_h"] += cs.l1_hits
            a["l2_a"] += cs.l2_accesses
            a["l2_h"] += cs.l2_hits
            a["gwi"] += cs.global_warp_insts
            a["mem_tx"] += cs.mem_transactions
            a["dram_tx"] += cs.dram_transactions
            a["dram_b"] += cs.dram_bytes
            a["warps"] = max(a["warps"], cs.resident_warps)
            a["waves"] += cs.waves
            a["n"] += 1
        for name in order:
            a = agg[name]
            coalesce = (
                min(1.0, a["gwi"] / a["mem_tx"]) if a["mem_tx"] else 1.0
            )
            t.add_row([
                name,
                int(a["warp_insts"]),
                a["simd_slots"],
                int(a["replays"]),
                int(a["const_ser"]),
                100.0 * a["l1_h"] / a["l1_a"] if a["l1_a"] else 0.0,
                100.0 * a["l2_h"] / a["l2_a"] if a["l2_a"] else 0.0,
                coalesce,
                int(a["dram_tx"]),
                a["dram_b"] / 1e6,
                int(a["warps"]),
                int(a["waves"]),
            ])
        return t

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Flat drift-gateable metrics, keyed ``gpuprof/<app>/...``.

        Per-kernel rollup counters plus app totals; every value is a
        finite float so the registry's strict JSON round-trips.
        """
        out: Dict[str, float] = {}
        app = self.app_name
        for name, roll in self.kernels().items():
            base = f"gpuprof/{app}/{name}"
            mix = roll.stall_mix()
            out[f"{base}/cycles"] = float(roll.cycles)
            out[f"{base}/body_cycles"] = float(roll.body_cycles)
            out[f"{base}/stall_issue"] = float(roll.stalls["issue"])
            out[f"{base}/stall_bandwidth"] = float(roll.stalls["bandwidth"])
            out[f"{base}/stall_latency"] = float(roll.stalls["latency"])
            out[f"{base}/issue_frac"] = float(mix["issue"])
            out[f"{base}/issued_warp_insts"] = float(roll.issued_warp_insts)
            out[f"{base}/dram_transactions"] = float(roll.dram_transactions)
            out[f"{base}/dram_bytes"] = float(roll.dram_bytes)
            out[f"{base}/arithmetic_intensity"] = float(
                roll.arithmetic_intensity
            )
        out[f"gpuprof/{app}/total/cycles"] = float(self.total_cycles)
        out[f"gpuprof/{app}/total/thread_insts"] = float(self.thread_insts)
        out[f"gpuprof/{app}/total/dram_bytes"] = float(self.dram_bytes)
        out[f"gpuprof/{app}/total/launches"] = float(len(self.counters))
        return out


# ----------------------------------------------------------------------
def profile_trace(trace: KernelTrace, model: "TimingModel") -> AppProfile:
    """Profile every launch of ``trace`` under ``model``'s config.

    Pure function of ``(trace, model.config)``: identical traces (the
    batch engine and its oracle guarantee this) give identical profiles.
    """
    cfg = model.config
    balance = machine_balance(cfg)
    counters: List[CounterSet] = []
    with telemetry.span(
        "gpu_profile", app=trace.app_name, launches=trace.n_launches
    ):
        for i, launch in enumerate(trace.launches):
            timing, detail = model._price(launch)
            stalls = attribute_stalls(
                timing.issue_cycles,
                timing.bandwidth_cycles,
                timing.latency_cycles,
                timing.body_cycles,
                timing.bound,
            )
            ladder = detail.ladder
            ai = launch.thread_insts / max(timing.dram_bytes, 1)
            counters.append(CounterSet(
                kernel_name=launch.kernel_name,
                launch_index=i,
                n_blocks=launch.n_blocks,
                threads_per_block=launch.threads_per_block,
                resident_ctas=detail.actual_ctas,
                resident_warps=detail.actual_warps,
                waves=detail.waves,
                effective_sms=detail.effective_sms,
                thread_insts=launch.thread_insts,
                issued_warp_insts=launch.issued_warp_insts,
                simd_slots=detail.issue_slots,
                shared_replays=launch.shared_replays,
                const_serializations=launch.const_serializations,
                tex_accesses=launch.tex_accesses,
                tex_hits=launch.tex_hits,
                const_accesses=launch.const_accesses,
                const_hits=launch.const_hits,
                l1_accesses=ladder.l1_accesses,
                l1_hits=ladder.l1_hits,
                l2_accesses=ladder.l2_accesses,
                l2_hits=ladder.l2_hits,
                global_warp_insts=launch.global_warp_insts,
                mem_transactions=launch.n_transactions,
                dram_transactions=ladder.dram_transactions,
                dram_bytes=timing.dram_bytes,
                channel_transactions=tuple(
                    int(c) for c in detail.channel_counts
                ),
                cycles=timing.cycles,
                body_cycles=timing.body_cycles,
                issue_cycles=timing.issue_cycles,
                bandwidth_cycles=timing.bandwidth_cycles,
                latency_cycles=timing.latency_cycles,
                stalls=stalls,
                bound=timing.bound,
                bound_margin=timing.bound_margin,
                arithmetic_intensity=ai,
                roofline="compute" if ai >= balance else "bandwidth",
            ))
        telemetry.count("gpusim.profile.launches", len(counters))
    return AppProfile(app_name=trace.app_name, config=cfg, counters=counters)


# ----------------------------------------------------------------------
def suite_table(profiles: Sequence[AppProfile]) -> Table:
    """One row per app: hottest kernel, stall mix, roofline class."""
    t = Table(
        "GPU profile: per-app hot kernels and stall mix",
        [
            "app", "launches", "cycles", "hot_kernel", "hot%",
            "issue%", "bw%", "lat%", "roofline",
        ],
    )
    for p in profiles:
        hot = p.hot_kernels(1)
        hot_name = hot[0].kernel_name if hot else "-"
        hot_pct = (
            100.0 * hot[0].cycles / p.total_cycles
            if hot and p.total_cycles
            else 0.0
        )
        mix = p.stall_mix()
        t.add_row([
            p.app_name,
            len(p.counters),
            p.total_cycles,
            hot_name,
            hot_pct,
            100.0 * mix["issue"],
            100.0 * mix["bandwidth"],
            100.0 * mix["latency"],
            p.roofline(),
        ])
    return t


def suite_metrics(profiles: Sequence[AppProfile]) -> Dict[str, float]:
    """Merged drift-gateable metrics of several app profiles."""
    out: Dict[str, float] = {}
    for p in profiles:
        out.update(p.metrics())
    return out
