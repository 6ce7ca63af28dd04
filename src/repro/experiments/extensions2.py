"""Second batch of extension experiments.

- ``ext_workingsets`` — Bienia-style working-set (WS1/WS2) knee
  detection from each workload's miss-rate curve: the quantitative
  version of Figure 8's "how much cache does it want".
- ``ext_sharing_size`` — sharing as a function of cache size
  (the paper measures sharing at eight cache sizes; the main pipeline
  reports whole-run sharing — this experiment removes that
  simplification by measuring sharing within cache residency).
- ``ext_prediction`` — similarity-based cross-architecture performance
  prediction (refs [15][16]): leave-one-out k-NN prediction of GPU IPC
  from (a) CPU characteristics alone, (b) structural GPU
  characteristics, (c) both — quantifying which metrics the paper's
  sought "cross-architecture correlation" actually needs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.common.config import SimScale
from repro.common.tables import Table
from repro.core.features import cpu_metrics_for, feature_matrix, suite_workloads
from repro.core.prediction import leave_one_out
from repro.cpusim.metrics import SHARING_SIZES
from repro.cpusim.workingset import detect_working_sets
from repro.experiments import ExperimentResult
from repro.experiments.gpu_common import (
    gpu_workload_names,
    short_name,
    time_all,
    traces,
)
from repro.gpusim import GPUConfig


# ----------------------------------------------------------------------
# Working-set knees
# ----------------------------------------------------------------------
def run_ext_workingsets(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    names = suite_workloads()
    table = Table(
        "Extension: detected working sets (miss-rate knees, Bienia-style)",
        ["Workload", "WS1", "WS2", "Miss rate before/after WS1"],
    )
    data: Dict[str, List] = {}
    for name in names:
        sets = detect_working_sets(
            cpu_metrics_for(name, scale).fine_miss_curve
        )
        def fmt(i):
            if i >= len(sets):
                return "-"
            return f"{sets[i].size_bytes // 1024} kB"
        before_after = (
            f"{sets[0].miss_rate_before:.3f} -> {sets[0].miss_rate_after:.3f}"
            if sets else "-"
        )
        table.add_row([name, fmt(0), fmt(1), before_after])
        data[name] = [
            {"size": ws.size_bytes, "drop": ws.drop} for ws in sets
        ]
    return ExperimentResult("ext_workingsets", [table], data)


# ----------------------------------------------------------------------
# Sharing vs cache size
# ----------------------------------------------------------------------
def run_ext_sharing_size(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    # A representative subset, chosen to span the sharing spectrum.
    names = ["canneal", "dedup", "facesim", "fluidanimate", "bfs",
             "hotspot", "streamcluster", "blackscholes"]
    table = Table(
        "Extension: shared-access ratio within cache residency, by size",
        ["Workload"] + [f"{s // 1024} kB" for s in SHARING_SIZES]
        + ["Whole-run (Fig. 9 pipeline)"],
    )
    data = {}
    for name in names:
        met = cpu_metrics_for(name, scale)
        ratios = {
            size: met.sharing_by_size[size].shared_access_ratio
            for size in SHARING_SIZES
        }
        whole = met.sharing.shared_access_ratio
        table.add_row([name] + [ratios[s] for s in SHARING_SIZES] + [whole])
        data[name] = {"by_size": ratios, "whole_run": whole}
    return ExperimentResult("ext_sharing_size", [table], data)


# ----------------------------------------------------------------------
# Porting Parsec to the GPU (Section V-B)
# ----------------------------------------------------------------------
def run_ext_parsec_ports(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    """Section V-B asks whether Parsec maps to heterogeneous platforms.

    Two experimental ports answer with data: Blackscholes (the easy
    case — embarrassingly parallel, no synchronization) and Raytrace
    (the hard case — per-ray BVH walks with private traversal stacks).
    Both are verified against their CPU references, then characterized
    exactly as the Rodinia workloads are in Figures 1-3.
    """
    from repro.gpusim import GPU, TimingModel
    from repro.gpusim.divergence import analyze_divergence
    from repro.workloads.parsec import blackscholes as bs_mod
    from repro.workloads.parsec import raytrace as rt_mod

    model = TimingModel(GPUConfig.sim_default())
    model8 = TimingModel(GPUConfig.sim_8sm())
    ports = [
        ("blackscholes(P)", bs_mod.gpu_port_run, bs_mod.check_gpu_port),
        ("raytrace(P)", rt_mod.gpu_port_run, rt_mod.check_gpu_port),
    ]
    table = Table(
        "Extension: experimental Parsec GPU ports, characterized like Fig. 1-3",
        ["Workload", "IPC (28 SM)", "Scaling 8->28", "SIMD efficiency",
         "Warps <=16 active", "Dominant memory space"],
    )
    data = {}
    rows = {}
    for label, run_fn, check_fn in ports:
        gpu = GPU(app_name=label)
        result = run_fn(gpu, scale)
        check_fn(result, scale)
        trace = gpu.trace
        t28 = model.time(trace)
        t8 = model8.time(trace)
        div = analyze_divergence(trace)
        mix = trace.mem_mix()
        buckets = trace.occupancy_buckets()
        dominant = max(mix, key=mix.get)
        table.add_row([
            label, t28.ipc, t28.ipc / max(t8.ipc, 1e-9),
            div.simd_efficiency, buckets["1-8"] + buckets["9-16"], dominant,
        ])
        rows[label] = {
            "ipc28": t28.ipc,
            "scaling": t28.ipc / max(t8.ipc, 1e-9),
            "simd_eff": div.simd_efficiency,
            "low_occ": buckets["1-8"] + buckets["9-16"],
        }
    # Rodinia context: where do the ports land relative to the suite?
    t28_rodinia = time_all(traces(scale), GPUConfig.sim_default())
    rodinia_ipcs = sorted(t28_rodinia[n].ipc for n in gpu_workload_names())
    data.update(rows)
    data["rodinia_median_ipc"] = float(rodinia_ipcs[len(rodinia_ipcs) // 2])
    note = Table(
        "Context",
        ["Metric", "Value"],
    )
    note.add_row(["Rodinia median IPC (28 SM)", data["rodinia_median_ipc"]])
    note.add_row(["Easy port (blackscholes) vs median",
                  rows["blackscholes(P)"]["ipc28"] / data["rodinia_median_ipc"]])
    note.add_row(["Hard port (raytrace) vs median",
                  rows["raytrace(P)"]["ipc28"] / data["rodinia_median_ipc"]])
    return ExperimentResult("ext_parsec_ports", [table, note], data)


# ----------------------------------------------------------------------
# Cross-architecture performance prediction
# ----------------------------------------------------------------------
def _gpu_structural_features(scale: SimScale) -> np.ndarray:
    """Timing-independent structural features of the GPU traces."""
    rows = []
    for name in gpu_workload_names():
        t = traces(scale)[name]
        mix = t.mem_mix()
        buckets = t.occupancy_buckets()
        rows.append([
            t.thread_insts / max(t.issued_warp_insts * 32, 1),
            mix["global"],
            mix["shared"],
            mix["tex"] + mix["const"],
            buckets["1-8"] + buckets["9-16"],
            np.log10(max(t.n_launches, 1)),
            np.log10(max(t.thread_insts, 1))
            - np.log10(max(t.n_transactions, 1)),
        ])
    return np.array(rows)


def run_ext_prediction(scale: SimScale = SimScale.SMALL) -> ExperimentResult:
    names = gpu_workload_names()
    x_cpu, _ = feature_matrix(names, subset="all", scale=scale)
    x_gpu = _gpu_structural_features(scale)
    t28 = time_all(traces(scale), GPUConfig.sim_default())
    y = np.array([t28[n].ipc for n in names])

    variants = {
        "CPU features only": x_cpu,
        "GPU structural features": x_gpu,
        "Combined": np.hstack([x_cpu, x_gpu]),
    }
    summary = Table(
        "Extension: leave-one-out prediction of GPU IPC (k-NN, k=3)",
        ["Feature set", "Rank correlation", "Mean |log2 error|"],
    )
    data = {}
    best = None
    for label, x in variants.items():
        res = leave_one_out(x, y, names, k=3)
        summary.add_row([label, res.rank_correlation, res.mean_abs_log_error])
        data[label] = {
            "rho": res.rank_correlation,
            "log2err": res.mean_abs_log_error,
        }
        best = res if label == "Combined" else best

    detail = Table(
        "Per-workload prediction (combined feature set)",
        ["Workload", "Actual IPC", "Predicted IPC", "Factor"],
    )
    for name, a, p, f in zip(names, best.actual, best.predicted,
                             best.errors_factor()):
        detail.add_row([short_name(name), a, p, f])
    data["per_workload"] = {
        n: {"actual": float(a), "predicted": float(p)}
        for n, a, p in zip(names, best.actual, best.predicted)
    }
    return ExperimentResult("ext_prediction", [summary, detail], data)
