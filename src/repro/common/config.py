"""Problem-size scaling and runtime configuration.

The paper runs native binaries; this reproduction runs an instrumenting
interpreter, so every workload supports a scale knob.  ``SimScale`` names
the three standard operating points used across tests, examples, and the
benchmark harness.

:class:`RuntimeConfig` consolidates every ``REPRO_*`` environment toggle
into one typed record resolved in a single place.  Call sites ask
:func:`config` instead of touching ``os.environ``; tests push explicit
values with the :func:`override` context manager instead of patching the
environment.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import os
from typing import Iterator, List, Optional, Tuple


class SimScale(enum.Enum):
    """Standard problem-size operating points.

    TINY   -- smoke-test sizes for unit tests (sub-second per workload).
    SMALL  -- default characterization sizes; preserves each workload's
              qualitative regime (working sets exceed small caches,
              parallelism far exceeds machine width).
    MEDIUM -- closer to paper sizes; used when extra fidelity is wanted.
    LARGE  -- out-of-core tier: >= 10M recorded accesses on the anchor
              workloads (hotspot, srad), runnable under a fixed memory
              budget via the chunked trace pipeline
              (``REPRO_TRACE_BUDGET``, see docs/TRACES.md).
    """

    TINY = "tiny"
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"

    @property
    def factor(self) -> int:
        """Linear-dimension multiplier relative to TINY."""
        return {
            SimScale.TINY: 1,
            SimScale.SMALL: 2,
            SimScale.MEDIUM: 4,
            SimScale.LARGE: 8,
        }[self]


def scaled(base: int, scale: SimScale, minimum: int = 1) -> int:
    """Scale a TINY-relative base dimension to the requested operating point."""
    return max(minimum, base * scale.factor)


# ----------------------------------------------------------------------
# Runtime configuration (REPRO_* environment toggles)
# ----------------------------------------------------------------------
#: Values that turn a boolean toggle off, matching the historical
#: per-module parsers (``REPRO_CACHE=off``, ``REPRO_GPU_BATCH=0``, ...).
FALSE_VALUES = ("off", "0", "no", "false")

#: Default lane budget per batched-GPU step (see repro.gpusim.batch).
DEFAULT_BATCH_LANES = 1 << 18

#: Default artifact-cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Default run-registry root used by the experiment CLI (the library
#: default leaves the registry off; see ``RuntimeConfig.registry_dir``).
DEFAULT_REGISTRY_DIR = ".repro_runs"

#: Default in-memory budget for sealed trace chunks before they spill
#: to compressed segments (see repro.common.chunkstore / docs/TRACES.md).
DEFAULT_TRACE_BUDGET = 512 * 1024 * 1024

#: Default rows per column chunk of a trace store.
DEFAULT_TRACE_CHUNK_ROWS = 1 << 20

#: Experiment-service defaults (see repro.service / docs/SERVICE.md).
DEFAULT_SERVICE_HOST = "127.0.0.1"
DEFAULT_SERVICE_PORT = 8177
DEFAULT_SERVICE_WORKERS = 2
DEFAULT_SERVICE_QUEUE = 8

#: Cold requests slower than this persist a span-trace exemplar
#: (milliseconds; see repro.service.observability).
DEFAULT_SERVICE_SLOW_MS = 1000.0

#: Default perf-history trajectory (repro.perfwatch / docs/PERF.md).
#: Lives next to BENCH_timings.json: the benchmark harness dual-writes
#: its sessions there, and `runner perf` reads it by default.
DEFAULT_PERF_HISTORY = "benchmarks/perf-history.jsonl"

_ENV_VARS = (
    "REPRO_GPU_BATCH",
    "REPRO_GPU_BATCH_LANES",
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_BUDGET",
    "REPRO_CACHE_ENTRIES",
    "REPRO_TRACE",
    "REPRO_TRACE_BUDGET",
    "REPRO_TRACE_CHUNK",
    "REPRO_PROFILE",
    "REPRO_REGISTRY",
    "REPRO_SERVICE_HOST",
    "REPRO_SERVICE_PORT",
    "REPRO_SERVICE_WORKERS",
    "REPRO_SERVICE_QUEUE",
    "REPRO_SERVICE_ACCESS_LOG",
    "REPRO_SERVICE_SLOW_MS",
    "REPRO_PERF_HISTORY",
)


def _parse_bytes(value: Optional[str], default: int) -> int:
    """Parse a byte count with optional k/m/g suffix (``'256m'``)."""
    if value is None or not value.strip():
        return default
    text = value.strip().lower()
    mult = 1
    if text[-1] in "kmg":
        mult = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[text[-1]]
        text = text[:-1]
    try:
        return int(float(text) * mult)
    except ValueError:
        return default


def _env_true(value: Optional[str], default: bool = True) -> bool:
    if value is None or not value.strip():
        return default
    return value.strip().lower() not in FALSE_VALUES


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Every runtime toggle of the stack, as one typed, immutable record.

    gpu_batch       -- route kernel launches through the block-batched
                       engine (``REPRO_GPU_BATCH``, default on).
    gpu_batch_lanes -- lane budget per batch step
                       (``REPRO_GPU_BATCH_LANES``).
    cache           -- persist workload artifacts on disk
                       (``REPRO_CACHE``, default on).
    cache_dir       -- artifact-cache root (``REPRO_CACHE_DIR``).
    trace           -- telemetry JSONL output path (``REPRO_TRACE``),
                       None when tracing is off.
    trace_budget    -- in-memory bytes of sealed trace chunks before
                       they spill to compressed segments
                       (``REPRO_TRACE_BUDGET``, suffixes k/m/g; 0 or
                       ``off`` disables spilling).
    trace_chunk_rows-- rows per trace column chunk
                       (``REPRO_TRACE_CHUNK``).
    profile         -- span self-time attribution + tracemalloc peak
                       gauges when a telemetry session starts
                       (``REPRO_PROFILE``, default off).
    registry_dir    -- run-registry root (``REPRO_REGISTRY``); None (the
                       default) disables persisting run records.  The
                       experiment CLI turns this on with
                       ``DEFAULT_REGISTRY_DIR`` unless told otherwise.
    cache_budget_bytes   -- artifact-cache size budget enforced by
                       ``ArtifactCache.prune`` after writes
                       (``REPRO_CACHE_BUDGET``, suffixes k/m/g;
                       0, the default, means unbounded).
    cache_budget_entries -- artifact-cache entry-count budget
                       (``REPRO_CACHE_ENTRIES``; 0 means unbounded).
    service_host    -- experiment-service bind address
                       (``REPRO_SERVICE_HOST``).
    service_port    -- experiment-service port (``REPRO_SERVICE_PORT``;
                       0 lets the OS pick).
    service_workers -- cold-execution process-pool width
                       (``REPRO_SERVICE_WORKERS``).
    service_queue   -- max in-flight cold requests before the service
                       answers 429 (``REPRO_SERVICE_QUEUE``).
    service_access_log -- structured JSONL access-log path, or None for
                       no access log (``REPRO_SERVICE_ACCESS_LOG``).
    service_slow_ms -- slow-request exemplar threshold in milliseconds
                       (``REPRO_SERVICE_SLOW_MS``).
    perf_history    -- perf-history JSONL trajectory read/written by
                       ``runner perf`` and the benchmark harness
                       (``REPRO_PERF_HISTORY``; ``off`` disables the
                       harness dual-write and makes the CLI demand an
                       explicit ``--history``).
    """

    gpu_batch: bool = True
    gpu_batch_lanes: int = DEFAULT_BATCH_LANES
    cache: bool = True
    cache_dir: str = DEFAULT_CACHE_DIR
    trace: Optional[str] = None
    trace_budget: int = DEFAULT_TRACE_BUDGET
    trace_chunk_rows: int = DEFAULT_TRACE_CHUNK_ROWS
    profile: bool = False
    registry_dir: Optional[str] = None
    cache_budget_bytes: int = 0
    cache_budget_entries: int = 0
    service_host: str = DEFAULT_SERVICE_HOST
    service_port: int = DEFAULT_SERVICE_PORT
    service_workers: int = DEFAULT_SERVICE_WORKERS
    service_queue: int = DEFAULT_SERVICE_QUEUE
    service_access_log: Optional[str] = None
    service_slow_ms: float = DEFAULT_SERVICE_SLOW_MS
    perf_history: Optional[str] = DEFAULT_PERF_HISTORY

    @classmethod
    def from_env(cls) -> "RuntimeConfig":
        """Resolve every field from the environment (the fallback source)."""
        try:
            lanes = max(1, int(os.environ.get("REPRO_GPU_BATCH_LANES", "")))
        except ValueError:
            lanes = DEFAULT_BATCH_LANES
        registry = os.environ.get("REPRO_REGISTRY", "").strip()
        if not registry or registry.lower() in FALSE_VALUES:
            registry_dir = None
        else:
            registry_dir = registry
        budget_raw = os.environ.get("REPRO_TRACE_BUDGET")
        if budget_raw and budget_raw.strip().lower() in FALSE_VALUES:
            trace_budget = 0
        else:
            trace_budget = _parse_bytes(budget_raw, DEFAULT_TRACE_BUDGET)
        chunk_rows = _parse_bytes(
            os.environ.get("REPRO_TRACE_CHUNK"), DEFAULT_TRACE_CHUNK_ROWS
        )
        perf_raw = os.environ.get("REPRO_PERF_HISTORY", "").strip()
        if not perf_raw:
            perf_history: Optional[str] = DEFAULT_PERF_HISTORY
        elif perf_raw.lower() in FALSE_VALUES:
            perf_history = None
        else:
            perf_history = perf_raw

        def _int_env(var: str, default: int, minimum: int = 0) -> int:
            try:
                return max(minimum, int(os.environ.get(var, "")))
            except ValueError:
                return default

        def _float_env(var: str, default: float,
                       minimum: float = 0.0) -> float:
            try:
                return max(minimum, float(os.environ.get(var, "")))
            except ValueError:
                return default

        return cls(
            gpu_batch=_env_true(os.environ.get("REPRO_GPU_BATCH")),
            gpu_batch_lanes=lanes,
            cache=_env_true(os.environ.get("REPRO_CACHE")),
            cache_dir=os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR),
            trace=os.environ.get("REPRO_TRACE") or None,
            trace_budget=trace_budget,
            trace_chunk_rows=max(1, chunk_rows),
            profile=_env_true(os.environ.get("REPRO_PROFILE"), default=False),
            registry_dir=registry_dir,
            cache_budget_bytes=_parse_bytes(
                os.environ.get("REPRO_CACHE_BUDGET"), 0
            ),
            cache_budget_entries=_int_env("REPRO_CACHE_ENTRIES", 0),
            service_host=os.environ.get(
                "REPRO_SERVICE_HOST", DEFAULT_SERVICE_HOST
            ) or DEFAULT_SERVICE_HOST,
            service_port=_int_env("REPRO_SERVICE_PORT", DEFAULT_SERVICE_PORT),
            service_workers=_int_env(
                "REPRO_SERVICE_WORKERS", DEFAULT_SERVICE_WORKERS, minimum=1
            ),
            service_queue=_int_env(
                "REPRO_SERVICE_QUEUE", DEFAULT_SERVICE_QUEUE, minimum=1
            ),
            service_access_log=(
                os.environ.get("REPRO_SERVICE_ACCESS_LOG") or None
            ),
            service_slow_ms=_float_env(
                "REPRO_SERVICE_SLOW_MS", DEFAULT_SERVICE_SLOW_MS
            ),
            perf_history=perf_history,
        )


_overrides: List[RuntimeConfig] = []
# Cache of the env-derived config, keyed on the raw REPRO_* values so a
# test that monkeypatches the environment still observes its change
# while steady-state callers pay five dict reads, not a full re-parse.
_env_cache: Optional[Tuple[Tuple[Optional[str], ...], RuntimeConfig]] = None


def config() -> RuntimeConfig:
    """The active runtime configuration.

    Innermost :func:`override` wins; otherwise the environment-derived
    config (re-resolved only when a ``REPRO_*`` variable changed since
    the last call, so repeated reads are effectively free).
    """
    global _env_cache
    if _overrides:
        return _overrides[-1]
    key = tuple(os.environ.get(v) for v in _ENV_VARS)
    if _env_cache is None or _env_cache[0] != key:
        _env_cache = (key, RuntimeConfig.from_env())
    return _env_cache[1]


@contextlib.contextmanager
def override(**fields) -> Iterator[RuntimeConfig]:
    """Temporarily replace selected config fields (tests, tools).

        with override(gpu_batch=False):
            ...  # every launch takes the scalar path

    Overrides nest; each layer is the previous active config with the
    named fields replaced.
    """
    cfg = dataclasses.replace(config(), **fields)
    _overrides.append(cfg)
    try:
        yield cfg
    finally:
        _overrides.pop()
