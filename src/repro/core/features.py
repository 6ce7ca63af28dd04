"""Workload characterization drivers and feature-vector assembly.

This is the glue between the substrates and the analysis: it runs
workloads on the instrumented CPU machine (with the code-footprint
tracer) or the GPU simulator, memoizes the expensive results per
process, and assembles the characteristic matrices the paper feeds into
PCA: instruction mix (Fig. 7), working sets (Fig. 8), sharing (Fig. 9),
or all of them together (Fig. 6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.common.config import SimScale
from repro.core.artifacts import get_artifact_cache
from repro.cpusim import CodeFootprintTracer, CPUMetrics, Machine, characterize_trace
from repro.gpusim import GPU, GPUConfig, KernelTrace
from repro.workloads import base as wl

_cpu_cache: Dict[Tuple[str, SimScale], CPUMetrics] = {}
_gpu_cache: Dict[Tuple[str, SimScale, int], KernelTrace] = {}

#: Probe: one entry per *actual* workload execution (cache misses only).
#: Tests use this to assert that a warm artifact cache skips execution.
EXECUTIONS: List[Tuple[str, str, str]] = []

#: Feature-subset names accepted by :func:`feature_matrix`.
SUBSETS = ("mix", "workingset", "sharing", "all")


def suite_workloads(dedupe_shared: bool = True) -> List[str]:
    """Workload names for the suite comparison, Rodinia then Parsec.

    StreamCluster belongs to both suites; with ``dedupe_shared`` the
    Parsec twin is dropped and the shared entry is labeled once, as in
    the paper's Figure 6 ("streamcluster(R, P)").
    """
    names = [w.meta.name for w in wl.all_rodinia()]
    for w in wl.all_parsec():
        if dedupe_shared and w.meta.name == "streamcluster_p":
            continue
        names.append(w.meta.name)
    return names


def display_label(name: str) -> str:
    """Figure 6-style label: name(R), name(P), or the shared (R, P)."""
    defn = wl.get(name)
    if name == "streamcluster":
        return "streamcluster(R, P)"
    suffix = "R" if defn.meta.suite == "rodinia" else "P"
    return f"{name}({suffix})"


def _machine_config() -> Dict[str, int]:
    """Substrate parameters entering the CPU artifact key."""
    m = Machine()
    return {
        "n_threads": m.n_threads,
        "line_size": m.line_size,
        "quantum": m.quantum,
    }


def cpu_metrics_for(name: str, scale: SimScale = SimScale.SMALL) -> CPUMetrics:
    """Run a workload's CPU implementation and characterize its trace.

    Results are memoized per process and persisted in the artifact cache
    (see :mod:`repro.core.artifacts`), so a workload executes at most
    once per (implementation, scale, machine config) across all runs.
    """
    key = (name, scale)
    if key in _cpu_cache:
        telemetry.count("features.memo.cpu.hit")
        return _cpu_cache[key]
    telemetry.count("features.memo.cpu.miss")
    defn = wl.get(name)
    if defn.cpu_fn is None:
        raise ValueError(f"{name} has no CPU implementation")
    disk = get_artifact_cache()
    dkey = None
    if disk is not None:
        dkey = disk.cpu_key(name, scale, defn.cpu_fn, _machine_config())
        cached = disk.get_cpu(name, scale, dkey)
        if cached is not None:
            _cpu_cache[key] = cached
            return cached
    EXECUTIONS.append(("cpu", name, scale.value))
    with telemetry.span("workload", name=name, kind="cpu",
                        scale=scale.value):
        machine = Machine()
        tracer = CodeFootprintTracer()
        with tracer:
            result = defn.cpu_fn(machine, scale)
        if defn.check_cpu is not None:
            defn.check_cpu(result, scale)
        metrics = characterize_trace(
            machine, name, code_footprint_64b=tracer.footprint_blocks()
        )
    _cpu_cache[key] = metrics
    if disk is not None:
        disk.put_cpu(name, scale, dkey, metrics)
    return metrics


def gpu_trace_for(
    name: str,
    scale: SimScale = SimScale.SMALL,
    version: Optional[int] = None,
) -> KernelTrace:
    """Run a workload's GPU implementation; returns its kernel trace.

    The trace is timing-independent, so every timing experiment (Figs.
    1, 4, 5, and the PB study) reuses one functional execution.
    """
    key = (name, scale, version or 0)
    if key in _gpu_cache:
        telemetry.count("features.memo.gpu.hit")
        return _gpu_cache[key]
    telemetry.count("features.memo.gpu.miss")
    defn = wl.get(name)
    fn = defn.gpu_fn
    if version is not None:
        if not defn.gpu_versions or version not in defn.gpu_versions:
            raise ValueError(f"{name} has no GPU version {version}")
        fn = defn.gpu_versions[version]
    if fn is None:
        raise ValueError(f"{name} has no GPU implementation")
    disk = get_artifact_cache()
    dkey = None
    if disk is not None:
        dkey = disk.gpu_key(name, scale, version or 0, fn)
        cached = disk.get_gpu(name, scale, dkey)
        if cached is not None:
            _gpu_cache[key] = cached
            return cached
    EXECUTIONS.append(("gpu", name, scale.value))
    with telemetry.span("workload", name=name, kind="gpu",
                        scale=scale.value, version=version or 0):
        gpu = GPU(app_name=name)
        result = fn(gpu, scale)
        if version is None and defn.check_gpu is not None:
            defn.check_gpu(result, scale)
    _gpu_cache[key] = gpu.trace
    if disk is not None:
        disk.put_gpu(name, scale, dkey, gpu.trace)
    return gpu.trace


def clear_caches() -> None:
    _cpu_cache.clear()
    _gpu_cache.clear()


def warm_workload(
    name: str,
    scale_value: str,
    trace_path: Optional[str] = None,
    collect: bool = False,
) -> Tuple[str, List[str], Dict[str, int]]:
    """Execute one workload's implementations, persisting the artifacts.

    Process-pool worker for ``runner --jobs N``: each worker process
    fills the shared on-disk artifact cache, after which the parent's
    experiments run without executing any workload.  Takes/returns only
    picklable primitives.

    When the parent has telemetry on, its counters must not silently
    lose the child work: with ``collect`` (or ``trace_path``) the task
    runs under its own telemetry session and returns the session's
    counter totals for the parent to fold back in
    (:func:`repro.telemetry.merge_counters`).  ``trace_path``
    additionally appends the child's span/counter events to
    ``<trace_path stem>.<pid>.jsonl`` — one trace file per worker
    process, safe against pool-level interleaving.
    """
    import os

    scale = SimScale(scale_value)
    started = False
    if collect or trace_path is not None:
        # A forked worker inherits the parent's live session (whose
        # sinks wrap the parent's file descriptors); abandon it before
        # opening this task's own.
        telemetry.discard()
        sink = None
        if trace_path is not None:
            root, ext = os.path.splitext(trace_path)
            child_path = f"{root}.{os.getpid()}{ext or '.jsonl'}"
            # Pool workers outlive tasks: append so each task's session
            # extends the worker's per-pid trace instead of clobbering it.
            sink = telemetry.JsonlSink(child_path, append=True)
        started = telemetry.start(sink=sink, meta={"worker": os.getpid(),
                                                   "workload": name})
    counters: Dict[str, int] = {}
    try:
        defn = wl.get(name)
        produced: List[str] = []
        if defn.cpu_fn is not None:
            cpu_metrics_for(name, scale)
            produced.append("cpu")
        if defn.has_gpu:
            gpu_trace_for(name, scale)
            produced.append("gpu")
    finally:
        if started:
            counters = telemetry.stop()["counters"]
    return name, produced, counters


def feature_matrix(
    names: Sequence[str],
    subset: str = "all",
    scale: SimScale = SimScale.SMALL,
) -> Tuple[np.ndarray, List[str]]:
    """Characteristic matrix (workloads x features) for a feature subset."""
    if subset not in SUBSETS:
        raise ValueError(f"subset must be one of {SUBSETS}")
    rows = []
    feature_names: List[str] = []
    for name in names:
        met = cpu_metrics_for(name, scale)
        feats: Dict[str, float] = {}
        if subset in ("mix", "all"):
            feats.update(met.mix_features())
        if subset in ("workingset", "all"):
            feats.update(met.working_set_features())
        if subset in ("sharing", "all"):
            feats.update(met.sharing_features())
        if not feature_names:
            feature_names = list(feats)
        rows.append([feats[f] for f in feature_names])
    return np.array(rows), feature_names
