"""SIMT GPU functional + timing simulator (the GPGPU-Sim substitute).

The simulator executes CUDA-style kernels written against a warp-masked
Python DSL (:class:`repro.gpusim.dsl.BlockCtx`), producing a
:class:`repro.gpusim.trace.KernelTrace` of dynamic statistics (issued
warp instructions, occupancy, memory-space mix, coalesced transactions,
bank conflicts).  A trace is timing-independent: the analytic
:class:`repro.gpusim.timing.TimingModel` prices the same trace under any
:class:`repro.gpusim.config.GPUConfig`, including the Fermi-style cached
configurations used for the paper's GTX480 study.
"""

from repro.gpusim.batch import BatchBlockCtx
from repro.gpusim.config import GPUConfig
from repro.gpusim.divergence import DivergenceStats, analyze_divergence
from repro.gpusim.dsl import BlockCtx
from repro.gpusim.gpu import GPU, LAUNCH_ROUTES, batch_enabled
from repro.gpusim.isa import Space
from repro.gpusim.memory import DeviceArray
from repro.gpusim.profiler import (
    AppProfile,
    CounterSet,
    KernelRollup,
    attribute_stalls,
    machine_balance,
    profile_trace,
)
from repro.gpusim.timing import (
    ConcurrentTiming,
    LaunchTiming,
    TimingModel,
    TimingResult,
    classify_bound,
)
from repro.gpusim.trace import KernelTrace, LaunchTrace
from repro.gpusim.trace_io import load_trace, save_trace

__all__ = [
    "GPU",
    "GPUConfig",
    "BlockCtx",
    "BatchBlockCtx",
    "LAUNCH_ROUTES",
    "batch_enabled",
    "Space",
    "DeviceArray",
    "TimingModel",
    "TimingResult",
    "LaunchTiming",
    "ConcurrentTiming",
    "classify_bound",
    "AppProfile",
    "CounterSet",
    "KernelRollup",
    "attribute_stalls",
    "machine_balance",
    "profile_trace",
    "KernelTrace",
    "LaunchTrace",
    "DivergenceStats",
    "analyze_divergence",
    "save_trace",
    "load_trace",
]
