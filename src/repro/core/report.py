"""Full characterization report generation.

Assembles everything the library measures into one Markdown document —
a per-workload "card" (the GPU profile of Section III plus the CPU
profile of Section IV) and suite-level summaries — the artifact an
architect would circulate after running the characterization.

    from repro.core.report import build_report
    text = build_report(scale=SimScale.SMALL)
    Path("report.md").write_text(text)

or ``python -m repro.experiments.runner run report``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.config import SimScale
from repro.core import PCA, Dendrogram, linkage
from repro.core.features import (
    cpu_metrics_for,
    display_label,
    feature_matrix,
    gpu_trace_for,
    suite_workloads,
)
from repro.gpusim import GPUConfig, TimingModel, analyze_divergence
from repro.gpusim.sharing import analyze_gpu_sharing
from repro.workloads import base as wl


def _pct(x: float) -> str:
    return f"{x:.1%}"


def render_drift(report, limit: int = 20) -> str:
    """Render a :class:`repro.fidelity.DriftReport` for humans.

    One verdict line, the worst offenders (every failure always shown,
    then the entries nearest their budget up to ``limit`` rows), and a
    note for any experiment the baseline could not cover.  Used by
    ``runner --baseline ...``; kept here so the report layer owns all
    presentation of fidelity results.
    """
    lines = [report.summary_line(), ""]
    failed = {e.metric for e in report.failures}
    entries = report.failures + [
        e for e in report.worst(limit) if e.metric not in failed
    ]
    entries = entries[:max(limit, len(report.failures))]
    lines.append(report.to_table(entries).render())
    if report.skipped:
        lines.append("")
        lines.append(
            "(no baseline coverage for: " + ", ".join(report.skipped) + ")"
        )
    return "\n".join(lines)


def render_response(response) -> str:
    """Render an :class:`repro.api.ExperimentResponse` for humans.

    The service and the registry exchange responses as canonical JSON;
    this is the presentation of that same encoding — used by the
    service client CLI paths so a response fetched over HTTP prints
    exactly like a locally-run experiment, plus a provenance footer.
    """
    lines = []
    if response.ok:
        if response.rendered:
            lines.append(response.rendered)
    else:
        lines.append(f"ERROR: {response.error}")
    footer = (
        f"[{response.experiment}@{response.scale.value} "
        f"status={response.status} key={response.request_key}"
    )
    if response.run_id:
        footer += f" run={response.run_id}"
    footer += f" cold_duration={response.duration_s:.3f}s]"
    lines.append(footer)
    return "\n\n".join(lines)


def _gpu_section(name: str, scale: SimScale) -> List[str]:
    trace = gpu_trace_for(name, scale)
    model28 = TimingModel(GPUConfig.sim_default())
    prof = model28.profile(trace)
    t28 = model28.time(trace)
    t8 = TimingModel(GPUConfig.sim_8sm()).time(trace)
    div = analyze_divergence(trace)
    share = analyze_gpu_sharing(trace)
    mix = trace.mem_mix()
    bound = max(t28.bound_mix(), key=t28.bound_mix().get)
    lines = [
        "**GPU (CUDA-style) profile**",
        "",
        f"- IPC: {t8.ipc:.0f} @ 8 SMs, {t28.ipc:.0f} @ 28 SMs "
        f"(scaling {t28.ipc / max(t8.ipc, 1e-9):.2f}x); bound: {bound}",
        f"- Kernel launches: {trace.n_launches}; "
        f"DRAM traffic: {t28.dram_bytes / 1e6:.2f} MB "
        f"(bandwidth utilization {_pct(t28.bw_utilization)})",
        "- Memory mix: "
        + ", ".join(f"{k} {_pct(v)}" for k, v in mix.items() if v > 0.001),
        f"- SIMD efficiency: {_pct(div.simd_efficiency)} "
        f"(mean {div.mean_active:.1f} active lanes/warp; "
        f"perfect-reconvergence bound {div.divergence_speedup_bound:.2f}x)",
        f"- Inter-block sharing: {_pct(share.frac_lines_shared)} of lines, "
        f"{_pct(share.shared_traffic_ratio)} of traffic",
    ]
    hot = prof.hot_kernels(1)
    if hot and prof.total_cycles:
        roll = hot[0]
        stall = roll.stall_mix()
        lines.append(
            f"- Hot kernel: `{roll.kernel_name}` "
            f"({_pct(roll.cycles / prof.total_cycles)} of cycles; "
            f"stalls {_pct(stall['issue'])} issue / "
            f"{_pct(stall['bandwidth'])} bandwidth / "
            f"{_pct(stall['latency'])} latency; "
            f"roofline {prof.roofline()}-bound)"
        )
    lines.append("")
    return lines


def _cpu_section(name: str, scale: SimScale) -> List[str]:
    met = cpu_metrics_for(name, scale)
    mix = met.inst_mix
    return [
        "**CPU (OpenMP-style) profile**",
        "",
        "- Instruction mix: "
        + ", ".join(f"{k} {_pct(v)}" for k, v in mix.items()),
        f"- Miss rate @ 4 MB shared cache: {_pct(met.miss_rate_4mb)} "
        f"({met.mem_refs:,} memory references)",
        f"- Sharing: {_pct(met.sharing.frac_lines_shared)} of lines, "
        f"{_pct(met.sharing.shared_access_ratio)} of accesses; "
        f"communication {_pct(met.sharing.consumer_read_ratio)}",
        f"- Footprints: {met.data_footprint_4kb} data pages, "
        f"{met.code_footprint_64b} code blocks",
        "",
    ]


def run_report(scale: SimScale = SimScale.SMALL) -> "ExperimentResult":
    """The report as an experiment driver (id ``report``).

    Lets the runner and the typed entry point
    (:func:`repro.experiments.run_experiment`) treat the full Markdown
    characterization exactly like any table/figure driver: the document
    body travels in ``text``, so ``render()`` is the report.
    """
    from repro.experiments import ExperimentResult

    text = build_report(scale)
    return ExperimentResult(
        "report", [], {"markdown": text},
        title="Workload characterization report", text=text,
    )


def build_report(
    scale: SimScale = SimScale.SMALL,
    names: Optional[Sequence[str]] = None,
) -> str:
    """Render the complete characterization as Markdown."""
    names = list(names) if names is not None else suite_workloads()
    out: List[str] = [
        "# Workload characterization report",
        "",
        f"Scale: `{scale.value}`.  Reproduction of Che et al., IISWC 2010;",
        "see EXPERIMENTS.md for paper-vs-measured comparisons.",
        "",
        "## Suite similarity",
        "",
    ]
    x, feats = feature_matrix(names, subset="all", scale=scale)
    pca = PCA().fit(x)
    k = pca.n_components_for_variance(0.90)
    coords = pca.transform(x)[:, :k]
    z = linkage(coords, method="average")
    out.append(f"{len(feats)} characteristics -> {k} principal components "
               f"({_pct(pca.explained_variance_ratio_[:k].sum())} of variance).")
    out.append("")
    out.append("```")
    out.append(Dendrogram(z, [display_label(n) for n in names]).render(48))
    out.append("```")
    out.append("")
    out.append("## Per-workload cards")
    out.append("")
    for name in names:
        defn = wl.get(name)
        meta = defn.meta
        out.append(f"### {display_label(name)}")
        out.append("")
        out.append(f"*{meta.dwarf} — {meta.domain}.* {meta.description}.  "
                   f"Paper size: {meta.paper_size}.")
        out.append("")
        if defn.has_gpu:
            out.extend(_gpu_section(name, scale))
        out.extend(_cpu_section(name, scale))
    return "\n".join(out)
