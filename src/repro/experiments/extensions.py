"""Extension experiments: the paper's Section VII future-work items.

- ``ext_divergence`` — branch-divergence sensitivity of the Rodinia GPU
  workloads ("more detailed characterizations ... such as branch
  divergence sensitivity").
- ``ext_concurrent`` — simultaneous kernel execution: which workload
  pairs co-schedule profitably ("adding new features to the suite,
  including ... simultaneous kernel execution").
- ``ext_coverage`` — quantitative application-space coverage and
  redundancy of the two suites ("performing an application-space
  coverage study of existing multithreaded workloads").
- ``ext_crossarch`` — correlating program characteristics across the
  CPU and the GPU ("correlating program characteristics across the CPU
  and the GPU").
- ``ext_coherence`` — private-cache coherence traffic, extending the
  shared-cache methodology of Section IV-B.
"""

from __future__ import annotations

import itertools
from typing import Dict

import numpy as np

from repro.common.config import SimScale
from repro.common.tables import Table
from repro.core import PCA
from repro.core.coverage import (
    coverage_report,
    greedy_representative_subset,
    marginal_coverage,
)
from repro.core.features import (
    cpu_metrics_for,
    feature_matrix,
    gpu_trace_for,
    suite_workloads,
)
from repro.experiments import ExperimentResult
from repro.experiments.gpu_common import gpu_workload_names, short_name, traces
from repro.gpusim import GPUConfig, TimingModel
from repro.gpusim.divergence import analyze_divergence, simd_width_sensitivity
from repro.gpusim.sharing import analyze_gpu_sharing
from repro.workloads import base as wl


# ----------------------------------------------------------------------
# Divergence sensitivity
# ----------------------------------------------------------------------
def run_ext_divergence(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    trace_map = traces(scale)
    table = Table(
        "Extension: branch-divergence characterization",
        ["Workload", "SIMD efficiency", "Branch %", "Warps underfilled",
         "Perfect-reconvergence speedup bound", "Tx per mem warp-inst"],
    )
    data = {}
    for name in gpu_workload_names():
        stats = analyze_divergence(trace_map[name])
        table.add_row([
            short_name(name), stats.simd_efficiency, stats.branch_fraction,
            stats.frac_warps_underfilled, stats.divergence_speedup_bound,
            stats.memory_divergence,
        ])
        data[name] = stats.as_dict()

    widths = Table(
        "IPC across SIMD widths (divergent workloads pay less for width)",
        ["Workload", "SIMD 8", "SIMD 16", "SIMD 32"],
    )
    for name in ("bfs", "mummer", "nw", "hotspot", "kmeans"):
        res = simd_width_sensitivity(trace_map[name])
        widths.add_row([short_name(name)] + [res[w].ipc for w in (8, 16, 32)])
        data[name]["ipc_by_width"] = {w: res[w].ipc for w in (8, 16, 32)}
    return ExperimentResult("ext_divergence", [table, widths], data)


# ----------------------------------------------------------------------
# Simultaneous kernel execution
# ----------------------------------------------------------------------
_PAIR_CANDIDATES = [
    ("bfs", "hotspot"),        # bandwidth-bound + issue-bound
    ("mummer", "kmeans"),      # divergent/memory + compute
    ("bfs", "mummer"),         # both bandwidth-bound (should not help)
    ("hotspot", "kmeans"),     # both issue-bound (should not help)
    ("cfd", "leukocyte"),      # bandwidth + tex-cached compute
]


def run_ext_concurrent(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    trace_map = traces(scale)
    model = TimingModel(GPUConfig.sim_default())
    table = Table(
        "Extension: simultaneous kernel execution (co-run vs back-to-back)",
        ["Pair", "Serial cycles", "Concurrent cycles", "Co-run speedup"],
    )
    data = {}
    for a, b in _PAIR_CANDIDATES:
        co = model.time_concurrent([trace_map[a], trace_map[b]])
        table.add_row([
            f"{short_name(a)}+{short_name(b)}",
            co.serial_cycles, co.concurrent_cycles, co.speedup,
        ])
        data[(a, b)] = co.speedup
    return ExperimentResult("ext_concurrent", [table], data)


# ----------------------------------------------------------------------
# GPU inter-block data sharing
# ----------------------------------------------------------------------
def run_ext_gpusharing(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    """Future work: "data sharing among threads" on the GPU side."""
    trace_map = traces(scale)
    table = Table(
        "Extension: inter-thread-block data sharing (off-chip lines)",
        ["Workload", "Lines shared by >1 block", "Traffic to shared lines",
         "Mean blocks/line", "Max blocks/line"],
    )
    data = {}
    for name in gpu_workload_names():
        stats = analyze_gpu_sharing(trace_map[name])
        table.add_row([
            short_name(name), stats.frac_lines_shared,
            stats.shared_traffic_ratio, stats.mean_blocks_per_line,
            stats.max_blocks_per_line,
        ])
        data[name] = stats.as_dict()
    return ExperimentResult("ext_gpusharing", [table], data)


# ----------------------------------------------------------------------
# Hardware thread-block scheduling
# ----------------------------------------------------------------------
def run_ext_scheduler(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    """Future work: "the impact of hardware thread scheduling mechanisms".

    Compares round-robin vs chunked CTA-to-SM assignment on the cached
    Fermi configuration: chunked placement keeps spatially adjacent
    blocks (which share halo/frontier lines) on the same SM's L1.
    """
    trace_map = traces(scale)
    base = GPUConfig.gtx480_l1_bias()
    nol2 = base.replace(l2_size=0, name="gtx480-l1-only")
    models = {
        "rr": TimingModel(base.replace(cta_scheduler="round_robin")),
        "ch": TimingModel(base.replace(cta_scheduler="chunked")),
        "rr_nol2": TimingModel(nol2.replace(cta_scheduler="round_robin")),
        "ch_nol2": TimingModel(nol2.replace(cta_scheduler="chunked")),
    }
    table = Table(
        "Extension: CTA scheduler policy on Fermi (chunked speedup over "
        "round-robin; with and without the unified L2)",
        ["Workload", "Speedup (L1+L2)", "Speedup (L1 only)",
         "DRAM saved by chunking (L1 only)"],
    )
    data = {}
    for name in gpu_workload_names():
        t = {k: m.time(trace_map[name]) for k, m in models.items()}
        sp_l2 = t["rr"].cycles / t["ch"].cycles if t["ch"].cycles else 1.0
        sp_nol2 = (t["rr_nol2"].cycles / t["ch_nol2"].cycles
                   if t["ch_nol2"].cycles else 1.0)
        saved = t["rr_nol2"].dram_bytes - t["ch_nol2"].dram_bytes
        table.add_row([short_name(name), sp_l2, sp_nol2, saved])
        data[name] = {
            "speedup_with_l2": sp_l2,
            "speedup_no_l2": sp_nol2,
            "dram_saved_no_l2": int(saved),
        }
    # Headline: the unified L2 makes CTA placement nearly irrelevant;
    # without it, locality-sensitive workloads prefer chunked placement.
    data["max_speedup_with_l2"] = max(
        v["speedup_with_l2"] for k, v in data.items() if isinstance(v, dict)
    )
    data["max_speedup_no_l2"] = max(
        v["speedup_no_l2"] for k, v in data.items() if isinstance(v, dict)
    )
    return ExperimentResult("ext_scheduler", [table], data)


# ----------------------------------------------------------------------
# Application-space coverage
# ----------------------------------------------------------------------
def run_ext_coverage(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    names = suite_workloads()
    x, _ = feature_matrix(names, subset="all", scale=scale)
    pca = PCA().fit(x)
    k = max(2, pca.n_components_for_variance(0.90))
    coords = pca.transform(x)[:, :k]
    suites = {n: wl.get(n).meta.suite for n in names}
    idx_r = [i for i, n in enumerate(names) if suites[n] == "rodinia"]
    idx_p = [i for i, n in enumerate(names) if suites[n] == "parsec"]

    rep_all = coverage_report(coords, names)
    rep_r = coverage_report(coords[idx_r], [names[i] for i in idx_r])
    rep_p = coverage_report(coords[idx_p], [names[i] for i in idx_p])
    gain_r = marginal_coverage(coords[idx_p], coords[idx_r])
    gain_p = marginal_coverage(coords[idx_r], coords[idx_p])
    subset = greedy_representative_subset(coords, names, 0.9)

    table = Table(
        "Extension: application-space coverage and redundancy",
        ["Suite", "Volume", "Mean NN distance", "Min NN distance",
         "Redundant pairs"],
    )
    for label, rep in (("Rodinia", rep_r), ("Parsec", rep_p),
                       ("Joint", rep_all)):
        table.add_row([label, rep.volume, rep.mean_nn_distance,
                       rep.min_nn_distance, len(rep.redundant_pairs)])

    gains = Table(
        "Marginal coverage (volume growth from adding one suite to the other)",
        ["Addition", "Volume growth"],
    )
    gains.add_row(["Rodinia added to Parsec", gain_r])
    gains.add_row(["Parsec added to Rodinia", gain_p])

    rep_table = Table(
        f"Greedy representative subset covering 90% of joint volume "
        f"({len(subset)} of {len(names)} workloads)",
        ["Workloads"],
    )
    rep_table.add_row([", ".join(subset)])

    data = {
        "rodinia": rep_r.as_dict(),
        "parsec": rep_p.as_dict(),
        "joint": rep_all.as_dict(),
        "gain_rodinia_over_parsec": gain_r,
        "gain_parsec_over_rodinia": gain_p,
        "representative_subset": subset,
        "redundant_pairs": rep_all.redundant_pairs,
    }
    return ExperimentResult("ext_coverage", [table, gains, rep_table], data)


# ----------------------------------------------------------------------
# CPU <-> GPU cross-architecture correlation
# ----------------------------------------------------------------------
def _rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (no scipy dependency at runtime)."""
    ra = np.argsort(np.argsort(a)).astype(np.float64)
    rb = np.argsort(np.argsort(b)).astype(np.float64)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    return float((ra * rb).sum() / denom) if denom else 0.0


def run_ext_crossarch(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    names = gpu_workload_names()
    trace_map = traces(scale)
    model = TimingModel(GPUConfig.sim_default())

    rows = []
    for name in names:
        tr = trace_map[name]
        met = cpu_metrics_for(name, scale)
        timing = model.time(tr)
        rows.append({
            "name": name,
            "gpu_mem_intensity": tr.mem_mix()["global"],
            "gpu_simd_eff": tr.thread_insts / (tr.issued_warp_insts * 32),
            "gpu_bw_util": timing.bw_utilization,
            "cpu_mem_fraction": met.inst_mix["load"] + met.inst_mix["store"],
            "cpu_branch_fraction": met.inst_mix["branch"],
            "cpu_miss_4mb": met.miss_rate_4mb,
        })

    pairs = [
        ("cpu_mem_fraction", "gpu_mem_intensity",
         "memory-instruction intensity"),
        ("cpu_branch_fraction", "gpu_simd_eff",
         "CPU branchiness vs GPU SIMD efficiency"),
        ("cpu_miss_4mb", "gpu_bw_util",
         "CPU miss rate vs GPU bandwidth pressure"),
    ]
    table = Table(
        "Extension: CPU vs GPU characteristic correlation "
        "(Spearman rank, 12 Rodinia workloads)",
        ["Characteristic pair", "Rank correlation"],
    )
    data: Dict[str, float] = {}
    for cpu_key, gpu_key, label in pairs:
        rho = _rank_correlation(
            np.array([r[cpu_key] for r in rows]),
            np.array([r[gpu_key] for r in rows]),
        )
        table.add_row([label, rho])
        data[f"{cpu_key}~{gpu_key}"] = rho

    detail = Table(
        "Per-workload cross-architecture profile",
        ["Workload", "CPU mem %", "GPU global mem-mix", "CPU branch %",
         "GPU SIMD eff", "CPU miss@4MB", "GPU BW util"],
    )
    for r in rows:
        detail.add_row([
            short_name(r["name"]), r["cpu_mem_fraction"],
            r["gpu_mem_intensity"], r["cpu_branch_fraction"],
            r["gpu_simd_eff"], r["cpu_miss_4mb"], r["gpu_bw_util"],
        ])
    data["rows"] = rows
    return ExperimentResult("ext_crossarch", [table, detail], data)


# ----------------------------------------------------------------------
# Coherence (private caches)
# ----------------------------------------------------------------------
def run_ext_coherence(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    names = suite_workloads()
    table = Table(
        "Extension: private 512 kB caches with write-invalidate coherence",
        ["Workload", "Miss rate", "Coherence-miss fraction",
         "Invalidations / kiloref", "False-sharing fraction",
         "Shared-cache miss rate (Fig. 10)"],
    )
    data = {}
    for name in names:
        met = cpu_metrics_for(name, scale)
        stats = met.coherence
        shared_rate = met.miss_rate_4mb
        table.add_row([
            name, stats.miss_rate, stats.coherence_miss_fraction,
            stats.invalidations_per_kiloref, stats.false_sharing_fraction,
            shared_rate,
        ])
        data[name] = {
            "miss_rate": stats.miss_rate,
            "coherence_fraction": stats.coherence_miss_fraction,
            "invals_per_kiloref": stats.invalidations_per_kiloref,
            "false_sharing_fraction": stats.false_sharing_fraction,
        }
    ordered = sorted(data, key=lambda n: -data[n]["invals_per_kiloref"])
    data["most_coherence_bound"] = ordered[:5]
    return ExperimentResult("ext_coherence", [table], data)
