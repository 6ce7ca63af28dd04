"""Outside-in layer trace for the end-to-end benchmark.

The benchmark may not change ``src/``, so per-layer numbers come from
timing wrappers installed from outside: each layer's public entry
points (see :data:`TARGETS`) are replaced by a ``functools.wraps``
wrapper that counts calls and accumulates *self* time — the wrapper's
elapsed time minus the time spent in nested wrapped calls, so a layer
is never charged for the layers it calls into.

Functions are replaced in their defining module and then in every
``repro.*`` module that holds an alias of the same object (the
``from x import y`` copies); methods are replaced on their class; the
workload entry points are replaced in the workload registry.  Because
the wrappers carry ``__wrapped__``, ``inspect.getsource`` sees the
original code and artifact-cache keys do not change.

Run as a script, it is the traced child process of ``run.py``::

    python layertrace.py --out layers.json --spawned-at T -- run fig1 --scale tiny

installs the wrappers, calls ``repro.experiments.runner.main(argv)``
in-process, writes the layer table as JSON and exits with the runner's
exit code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names in report order.  ``process.startup`` (interpreter start,
#: imports and wrapper installation) is measured by the child itself;
#: every other layer is the self time of its wrapped entry points.
LAYERS = (
    "process.startup",
    "experiments",
    "workloads.cpu",
    "workloads.gpu",
    "workloads.check",
    "gpusim.launch",
    "gpusim.timing",
    "gpusim.analysis",
    "cpusim.characterize",
    "analytics.reuse",
    "analytics.cache",
    "analytics.sharing",
    "analytics.coherence",
    "analytics.workingset",
    "analytics.sharing_size",
    "artifacts.read",
    "artifacts.write",
    "trace_io.decode",
    "trace_io.encode",
    "stats",
    "render",
)

#: (layer, module, attribute) — ``Class.method`` names a method.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments", "repro.experiments", "run_experiment"),
    ("gpusim.launch", "repro.gpusim.gpu", "GPU.launch"),
    ("gpusim.timing", "repro.gpusim.timing", "TimingModel.time"),
    ("gpusim.timing", "repro.gpusim.timing", "TimingModel.profile"),
    ("gpusim.analysis", "repro.gpusim.divergence", "analyze_divergence"),
    ("gpusim.analysis", "repro.gpusim.divergence", "simd_width_sensitivity"),
    ("gpusim.analysis", "repro.gpusim.sharing", "analyze_gpu_sharing"),
    ("gpusim.analysis", "repro.gpusim.trace", "KernelTrace.mem_mix"),
    ("gpusim.analysis", "repro.gpusim.trace", "KernelTrace.occupancy_buckets"),
    ("cpusim.characterize", "repro.cpusim.metrics", "characterize_trace"),
    ("analytics.reuse", "repro.analytics.chunked", "StreamingReuse.update"),
    ("analytics.reuse", "repro.analytics.chunked", "StreamingReuse.result"),
    ("analytics.cache", "repro.cpusim.cache", "SharedCache.run"),
    ("analytics.sharing", "repro.analytics.chunked", "StreamingSharing.update"),
    ("analytics.sharing", "repro.analytics.chunked", "StreamingSharing.result"),
    ("analytics.coherence", "repro.cpusim.coherence",
     "simulate_coherent_caches_chunked"),
    ("analytics.workingset", "repro.cpusim.workingset",
     "fine_miss_curve_chunked"),
    ("analytics.workingset", "repro.cpusim.workingset", "detect_working_sets"),
    ("analytics.sharing_size", "repro.cpusim.sharing",
     "sharing_at_size_chunked"),
    ("artifacts.read", "repro.core.artifacts", "ArtifactCache.get_cpu"),
    ("artifacts.read", "repro.core.artifacts", "ArtifactCache.get_gpu"),
    ("artifacts.read", "repro.core.artifacts", "ArtifactCache.get_json"),
    ("artifacts.read", "repro.core.artifacts", "ArtifactCache.get_plan_file"),
    ("artifacts.write", "repro.core.artifacts", "ArtifactCache.put_cpu"),
    ("artifacts.write", "repro.core.artifacts", "ArtifactCache.put_gpu"),
    ("artifacts.write", "repro.core.artifacts", "ArtifactCache.put_json"),
    ("artifacts.write", "repro.core.artifacts", "ArtifactCache.put_plan_file"),
    ("stats", "repro.core.pca", "PCA.fit"),
    ("stats", "repro.core.pca", "PCA.transform"),
    ("stats", "repro.core.clustering", "linkage"),
    ("stats", "repro.core.clustering", "fcluster"),
    ("stats", "repro.core.plackett_burman", "pb_design"),
    ("stats", "repro.core.plackett_burman", "rank_factors"),
    ("stats", "repro.core.prediction", "leave_one_out"),
    ("stats", "repro.core.coverage", "coverage_report"),
    ("stats", "repro.core.coverage", "greedy_representative_subset"),
    ("render", "repro.common.tables", "Table.render"),
    ("render", "repro.core.clustering", "Dendrogram.render"),
    ("workloads.gpu", "repro.workloads.parsec.blackscholes", "gpu_port_run"),
    ("workloads.gpu", "repro.workloads.parsec.raytrace", "gpu_port_run"),
    ("workloads.check", "repro.workloads.parsec.blackscholes",
     "check_gpu_port"),
    ("workloads.check", "repro.workloads.parsec.raytrace", "check_gpu_port"),
)

#: trace_io is timed only where the artifact layer calls it: these names
#: are rebound in ``repro.core.artifacts`` alone, not swept elsewhere.
ARTIFACT_IO = (
    ("trace_io.decode", "load_trace"),
    ("trace_io.encode", "save_trace"),
)


class LayerTrace:
    """Call counts and self times per layer, plus the installed wrappers.

    Self time is kept with an explicit stack: each active wrapper owns
    one slot accumulating the elapsed time of its wrapped children, which
    it subtracts from its own elapsed time when it returns.  A recursive
    call through a wrapper is just one more nested frame, so the sum of
    all self times equals the outermost wrapper's elapsed time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.refs = 0
        self.read_hits = 0
        self.cpu_fns: set = set()  # ids of the CPU entry points that ran
        self.routes_start = 0
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object, bool]] = []
        self._wrappers: Dict[int, Callable] = {}

    # -- accounting --------------------------------------------------------
    def wrap(self, layer: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        """A self-timing wrapper of ``fn`` charged to ``layer``.

        ``on_return(args, result)`` runs after the timed region.
        """
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = [0.0]
            self._stack.append(slot)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - t0
                self._stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - slot[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def _set(self, owner, key, value, item: bool = False) -> None:
        old = owner[key] if item else getattr(owner, key)
        self._undo.append((owner, key, old, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _wrapper_for(self, layer: str, fn: Callable,
                     on_return: Optional[Callable] = None) -> Callable:
        # One wrapper per function object, however many names it has.
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self.wrap(layer, fn, on_return)
        return self._wrappers[id(fn)]

    def install(self) -> "LayerTrace":
        """Wrap every target; returns self.  Undo with :meth:`uninstall`."""
        from repro.gpusim import plans
        from repro.workloads import base as wl

        replaced: Dict[int, Tuple[Callable, Callable]] = {}
        for layer, module, attr in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                hook = self._count_hit if layer == "artifacts.read" else None
                self._set(cls, meth,
                          self.wrap(layer, cls.__dict__[meth], hook))
            else:
                fn = getattr(mod, attr)
                replaced[id(fn)] = (fn, self._wrapper_for(layer, fn))
        for defn in wl.load_all().values():
            if defn.cpu_fn is not None:
                hook = functools.partial(self._count_refs, id(defn.cpu_fn))
                replaced[id(defn.cpu_fn)] = (defn.cpu_fn, self._wrapper_for(
                    "workloads.cpu", defn.cpu_fn, hook))
                self._set(defn, "cpu_fn", replaced[id(defn.cpu_fn)][1])
            if defn.gpu_fn is not None:
                replaced[id(defn.gpu_fn)] = (defn.gpu_fn, self._wrapper_for(
                    "workloads.gpu", defn.gpu_fn))
                self._set(defn, "gpu_fn", replaced[id(defn.gpu_fn)][1])
            for attr in ("check_cpu", "check_gpu"):
                fn = getattr(defn, attr)
                if fn is not None:
                    replaced[id(fn)] = (fn, self._wrapper_for(
                        "workloads.check", fn))
                    self._set(defn, attr, replaced[id(fn)][1])
            for version, fn in (defn.gpu_versions or {}).items():
                replaced[id(fn)] = (fn, self._wrapper_for("workloads.gpu", fn))
                self._set(defn.gpu_versions, version, replaced[id(fn)][1],
                          item=True)
        self._sweep_aliases(replaced)
        from repro.core import artifacts

        for layer, attr in ARTIFACT_IO:
            self._set(artifacts, attr,
                      self.wrap(layer, getattr(artifacts, attr)))
        self.routes_start = len(plans.PLAN_ROUTES)
        return self

    def _sweep_aliases(self, replaced: Dict[int, Tuple[Callable, Callable]]) -> None:
        """Rebind every ``repro.*`` module global that aliases a target."""
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._undo:
            owner, key, old, item = self._undo.pop()
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- per-layer extras ----------------------------------------------------
    def _count_refs(self, fn_id: int, args, result) -> None:
        self.refs += args[0].n_accesses  # args[0] is the cpusim Machine
        self.cpu_fns.add(fn_id)

    def _count_hit(self, args, result) -> None:
        if result is not None:
            self.read_hits += 1

    def metrics(self, startup_s: float) -> Dict[str, float]:
        """The flat per-layer metric table (see README.md)."""
        from repro.gpusim import plans

        calls = dict(self.calls, **{"process.startup": 1})
        self_s = dict(self.self_s, **{"process.startup": startup_s})
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        cpu_calls = self.calls.get("workloads.cpu", 0)
        out["workloads.cpu.refs"] = self.refs
        out["workloads.cpu.ns_per_ref"] = (
            self.self_s.get("workloads.cpu", 0.0) * 1e9 / self.refs
            if self.refs else 0.0
        )
        routes = plans.PLAN_ROUTES[self.routes_start:]
        blocks = sum(n for _, _, n in routes)
        out["gpusim.launch.blocks"] = blocks
        out["gpusim.launch.us_per_block"] = (
            self.self_s.get("gpusim.launch", 0.0) * 1e6 / blocks
            if blocks else 0.0
        )
        for label, kinds in (("plan", ("replay", "trace")),
                             ("batch", ("batch",)),
                             ("scalar", ("scalar",))):
            n = sum(1 for _, route, _ in routes if route in kinds)
            out[f"gpusim.launch.route.{label}_ratio"] = (
                n / len(routes) if routes else 0.0
            )
        reads = self.calls.get("artifacts.read", 0)
        out["artifacts.read.hits"] = self.read_hits
        out["artifacts.read.hit_ratio"] = self.read_hits / reads if reads else 0.0
        out["workloads.cpu.executions_per_workload"] = (
            cpu_calls / len(self.cpu_fns) if self.cpu_fns else 0.0
        )
        return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="where to write the layer table (JSON)")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before the parent spawned us")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="-- followed by the runner's arguments")
    args = parser.parse_args(argv)
    from repro.experiments import runner

    trace = LayerTrace().install()
    startup_s = time.time() - args.spawned_at
    code = runner.main(args.argv[1:] if args.argv[:1] == ["--"] else args.argv)
    sys.stdout.flush()
    payload = {"metrics": trace.metrics(startup_s)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
