"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation toggles one modeling decision and checks the direction of
its effect, quantifying how much the reproduction's conclusions depend
on it.
"""

import numpy as np
import pytest

from repro.common.config import SimScale
from repro.core import fcluster, linkage
from repro.core.features import feature_matrix, gpu_trace_for, suite_workloads
from repro.cpusim import Machine, analyze_sharing_chunked
from repro.gpusim import GPUConfig, TimingModel
from repro.gpusim.memory import coalesce


def test_bank_conflict_modeling_matters_for_nw(benchmark, scale):
    """Paper (III-E): NW's diagonal strips cause copious bank conflicts."""
    trace = gpu_trace_for("nw", scale)

    def run():
        on = TimingModel(GPUConfig.sim_default()).time(trace)
        off = TimingModel(
            GPUConfig.sim_default().replace(model_bank_conflicts=False)
        ).time(trace)
        return on.cycles, off.cycles

    on_cycles, off_cycles = benchmark(run)
    assert on_cycles >= off_cycles


def test_coalescing_granularity(benchmark, scale):
    """32/64/128-byte transaction segments vs. CFD's gather traffic."""
    trace = gpu_trace_for("cfd", scale)
    addrs = np.concatenate([lt.transactions()[0] for lt in trace.launches])

    def run():
        return {seg: coalesce(addrs, segment=seg).size for seg in (32, 64, 128)}

    sizes = benchmark(run)
    assert sizes[32] >= sizes[64] >= sizes[128]


def test_interleave_quantum_sensitivity(benchmark, scale):
    """Sharing metrics should be robust to the trace-merge quantum."""
    from repro.workloads.rodinia import hotspot

    def sharing_at(quantum):
        m = Machine(quantum=quantum)
        hotspot.cpu_run(m, SimScale.TINY)
        return analyze_sharing_chunked(m.iter_trace_chunks).frac_lines_shared

    def run():
        return sharing_at(16), sharing_at(256)

    fine, coarse = benchmark(run)
    # Whole-run line sharing is interleave-invariant by construction.
    assert fine == pytest.approx(coarse)


def test_linkage_method_stability(benchmark, scale):
    """Fig. 6's headline (suites overlap) should not hinge on linkage."""
    names = suite_workloads()
    x, _ = feature_matrix(names, subset="all", scale=scale)

    def run():
        out = {}
        for method in ("single", "complete", "average", "ward"):
            labels = fcluster(linkage(x, method), 8)
            out[method] = labels
        return out

    labelings = benchmark(run)
    from repro.workloads import base as wl
    for method, labels in labelings.items():
        suites = {}
        for name, c in zip(names, labels):
            suites.setdefault(int(c), set()).add(wl.get(name).meta.suite)
        assert any(len(s) == 2 for s in suites.values()), method


def test_foldover_pb_agrees_on_top_factor(benchmark, scale):
    """Enhanced (foldover) PB should rank the same dominant factors."""
    from repro.core.plackett_burman import pb_design, rank_factors
    from repro.experiments.pb_sensitivity import FACTORS, _config_for

    trace = gpu_trace_for("srad", scale)
    factor_names = [f[0] for f in FACTORS]

    def effects_for(design):
        y = np.empty(design.shape[0])
        for r in range(design.shape[0]):
            y[r] = TimingModel(_config_for(design[r])).time(trace).cycles
        return [f for f, _, _ in rank_factors(design, np.log(y), factor_names)]

    def run():
        plain = effects_for(pb_design(len(FACTORS)))
        folded = effects_for(pb_design(len(FACTORS), foldover=True))
        return plain, folded

    plain, folded = benchmark(run)
    assert set(plain[:3]) & set(folded[:3])
