"""Workload registry and metadata.

Table I (Rodinia) and Table V (Parsec) of the paper enumerate the
applications with their Berkeley Dwarf, application domain, and problem
size; :class:`WorkloadMeta` records those alongside our scaled simulation
sizes.  Workload modules register entry points:

- ``gpu_fn(gpu, scale) -> result`` runs the CUDA-style implementation on
  a :class:`repro.gpusim.GPU` (Rodinia only).
- ``cpu_fn(machine, scale) -> result`` runs the OpenMP-style
  implementation on a :class:`repro.cpusim.Machine`.
- ``check_fn(result, scale)`` raises if the result fails its self-check
  against the module's independent reference.

GPU workloads with incrementally optimized versions (Table III) register
them in ``gpu_versions``; ``gpu_fn`` points at the released (most
optimized) version used in Figures 1-5.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Callable, Dict, List, Optional

RODINIA_MODULES = [
    "kmeans",
    "nw",
    "hotspot",
    "backprop",
    "srad",
    "leukocyte",
    "bfs",
    "streamcluster",
    "mummer",
    "cfd",
    "lud",
    "heartwall",
]

PARSEC_MODULES = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "facesim",
    "ferret",
    "fluidanimate",
    "freqmine",
    "raytrace",
    "streamcluster_p",
    "swaptions",
    "vips",
    "x264",
]


@dataclasses.dataclass(frozen=True)
class WorkloadMeta:
    """Static description of one benchmark (paper Tables I / V)."""

    name: str
    suite: str                 # "rodinia" | "parsec"
    dwarf: str                 # Berkeley Dwarf (Rodinia) or domain class
    domain: str
    paper_size: str            # problem size quoted in the paper
    description: str = ""
    short: str = ""            # the paper's abbreviation (e.g. "NW")


@dataclasses.dataclass
class WorkloadDef:
    """A registered workload with its entry points.

    GPU and CPU runs may use different scaled problem sizes (the GPU
    side needs enough thread blocks to exercise 28 SMs; the CPU side
    needs bounded trace lengths for the reuse-distance pass), so each
    has its own self-check against the module's reference.
    """

    meta: WorkloadMeta
    cpu_fn: Optional[Callable] = None
    gpu_fn: Optional[Callable] = None
    gpu_versions: Optional[Dict[int, Callable]] = None
    check_cpu: Optional[Callable] = None
    check_gpu: Optional[Callable] = None

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def has_gpu(self) -> bool:
        return self.gpu_fn is not None


REGISTRY: Dict[str, WorkloadDef] = {}


def register(defn: WorkloadDef) -> WorkloadDef:
    """Add a workload to the registry (idempotent by name)."""
    REGISTRY[defn.meta.name] = defn
    return defn


_loaded = False


def load_all() -> Dict[str, WorkloadDef]:
    """Import every workload module, populating the registry."""
    global _loaded
    if not _loaded:
        for mod in RODINIA_MODULES:
            importlib.import_module(f"repro.workloads.rodinia.{mod}")
        for mod in PARSEC_MODULES:
            importlib.import_module(f"repro.workloads.parsec.{mod}")
        _loaded = True
    return REGISTRY


def get(name: str) -> WorkloadDef:
    load_all()
    if name not in REGISTRY:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name]


def _suite(suite: str, modules: List[str]) -> List[WorkloadDef]:
    """A suite's workloads in module-list order, however the registry
    filled (importing one workload module early registers it first)."""
    load_all()
    rank = {name: i for i, name in enumerate(modules)}
    return sorted(
        (w for w in REGISTRY.values() if w.meta.suite == suite),
        key=lambda w: rank.get(w.name, len(rank)),
    )


def all_rodinia() -> List[WorkloadDef]:
    return _suite("rodinia", RODINIA_MODULES)


def all_parsec() -> List[WorkloadDef]:
    return _suite("parsec", PARSEC_MODULES)
