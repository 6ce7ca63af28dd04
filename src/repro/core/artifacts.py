"""Persistent, content-keyed artifact cache.

The expensive products of a characterization run are the functional
executions: a workload's CPU trace characterization
(:class:`~repro.cpusim.metrics.CPUMetrics`) and its GPU kernel trace
(:class:`~repro.gpusim.trace.KernelTrace`).  Everything downstream
(timing models, PCA, tables) is cheap.  This module persists those two
artifact kinds under a cache directory so repeated experiment runs —
and parallel runs in other processes — skip re-execution entirely.

The CPU artifact (``cpu-*.json``, format 3) holds every metric any
experiment derives from a CPU trace: the instruction mix, the paper's
eight-size miss curve and exact 4 MB miss rate, whole-run sharing,
footprints, and the extension metrics — the fine miss curve
(working sets), sharing within cache residency at each of
:data:`~repro.cpusim.metrics.SHARING_SIZES`, and private-cache
coherence.  Each CPU workload therefore executes once per cold cache,
and a warm run executes none.

Keys are content hashes: workload name, scale, GPU code version, the
*source code* of the workload function (so editing a workload
invalidates its artifacts), the substrate configuration (machine
geometry / functional-trace parameters), and a format version.  A stale
entry is therefore impossible by construction; there is no TTL and no
manual invalidation step.

Layout: ``<root>/<kind>-<name>-<scale>-<hash12>.{json,npz}`` — flat,
human-listable, safe for concurrent writers (atomic tmp + rename).

Control (all resolved through :func:`repro.common.config.config`):

- ``REPRO_CACHE_DIR`` — cache root (default ``.repro_cache`` under the
  current directory).
- ``REPRO_CACHE=off`` (or ``0``/``no``) — disable persistence entirely.
- :func:`set_artifact_cache` — programmatic override (tests, runner
  ``--no-cache``).

When telemetry is active every lookup lands on an
``artifacts.{cpu,gpu}.{hit,miss}`` counter and every store on
``artifacts.{cpu,gpu}.put``, so a trace shows exactly how effective the
cache was for a run.

Concurrency contract (the experiment service leans on this):

- **Reads are lock-free.**  Payloads are only ever published by atomic
  rename, so a reader sees a complete file or a miss — never a torn
  write.  A file that a concurrent pruner unlinks between ``glob`` and
  ``open`` (the mtime-LRU TOCTOU) degrades to a miss; the read-side
  mtime touch tolerates the same race.
- **Writes take a per-key-prefix lock** (``O_EXCL`` lockfile under
  ``<root>/.locks/``, see :mod:`repro.common.locks`) keyed on the
  first two hex digits of the content hash, so concurrent writers of
  *different* key ranges never contend while same-key writers
  serialize.  Lock acquisition failure downgrades to an unlocked (but
  still atomic) write: duplicated work, never corruption.
- **Pruning is single-flight.**  :meth:`ArtifactCache.prune` and
  :meth:`ArtifactCache.prune_plans` take a non-blocking prune lock and
  simply skip the pass when another process is already evicting; every
  candidate is re-stat'ed immediately before ``unlink`` so a file that
  was touched (used) or removed since the scan survives / is skipped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro import telemetry
from repro.common.config import SimScale, config as runtime_config
from repro.common.locks import LockTimeout, store_lock
from repro.cpusim.coherence import CoherenceStats
from repro.cpusim.metrics import CPUMetrics
from repro.cpusim.sharing import SharingStats, SizeSharing
from repro.gpusim.trace import KernelTrace
from repro.gpusim.trace_io import load_trace, save_trace

#: Bump when the serialized layout or the meaning of a cached artifact
#: changes; old entries are simply never matched again.
#: 2: GPU traces persist in the v2 chunked columnar layout.
#: 3: CPU metrics carry the fine miss curve, sharing by size, coherence.
ARTIFACT_FORMAT = 3

# Plan-file budget, kept only for benchmarks/e2e/layertrace.py (see below).
PLAN_CACHE_MAX_ENTRIES = 256
PLAN_CACHE_MAX_BYTES = 256 * 1024 * 1024


def _source_fingerprint(fn) -> str:
    """Hashable identity of a workload function's implementation."""
    if fn is None:
        return "none"
    try:
        return inspect.getsource(fn)
    except (OSError, TypeError):
        return getattr(fn, "__qualname__", repr(fn))


def artifact_key(
    kind: str,
    name: str,
    scale: SimScale,
    source: str = "",
    config: Optional[Dict[str, Any]] = None,
) -> str:
    """Content hash identifying one artifact (first 12 hex digits)."""
    payload = json.dumps(
        {
            "format": ARTIFACT_FORMAT,
            "kind": kind,
            "name": name,
            "scale": scale.value,
            "source": source,
            "config": config or {},
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _rates(pairs) -> Dict[int, float]:
    return {int(size): float(rate) for size, rate in pairs}


#: Per-field decoders of the JSON form of :class:`CPUMetrics`; other
#: fields load as-is.  JSON turns int dict keys into strings, so the
#: cache-size-keyed maps are stored as sorted ``[size, value]`` pairs.
_FIELD_DECODERS = {
    "miss_curve": _rates,
    "fine_miss_curve": _rates,
    "sharing": lambda d: SharingStats(**d),
    "sharing_by_size": lambda pairs: {
        int(size): SizeSharing(**d) for size, d in pairs
    },
    "coherence": lambda d: CoherenceStats(**d),
}


def _metrics_to_dict(metrics: CPUMetrics) -> Dict[str, Any]:
    d = dataclasses.asdict(metrics)
    for field in ("miss_curve", "fine_miss_curve", "sharing_by_size"):
        d[field] = sorted(d[field].items())
    return d


def _metrics_from_dict(d: Dict[str, Any]) -> CPUMetrics:
    """Inverse of :func:`_metrics_to_dict`.

    An entry with a missing or unknown field (an older layout) raises
    ``TypeError``, which :meth:`ArtifactCache.get_cpu` treats as a miss.
    """
    return CPUMetrics(**{
        k: _FIELD_DECODERS[k](v) if k in _FIELD_DECODERS else v
        for k, v in dict(d).items()
    })


class ArtifactCache:
    """Filesystem cache of characterization artifacts."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)

    # -- generic helpers ------------------------------------------------
    def _path(self, kind: str, name: str, scale: SimScale, key: str,
              suffix: str) -> Path:
        return self.root / f"{kind}-{name}-{scale.value}-{key}{suffix}"

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh mtime on a read so LRU eviction tracks actual use."""
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _key_shard(path: Path) -> str:
        """Lock shard for one artifact: first 2 hex digits of its key."""
        return path.stem.rsplit("-", 1)[-1][:2] or "00"

    def _write_atomic(self, path: Path, write_fn) -> None:
        # The temp file keeps the final suffix (np.savez appends ".npz"
        # to anything else) and lives in the same directory so the
        # rename is atomic on the same filesystem.  The per-key-prefix
        # lock serializes same-range writers (and fences the pruner);
        # on timeout the write proceeds unlocked — rename keeps it
        # atomic, the lock only avoids duplicate temp-file churn.
        self.root.mkdir(parents=True, exist_ok=True)
        lock = store_lock(self.root, f"w-{self._key_shard(path)}")
        try:
            lock.acquire()
        except LockTimeout:
            telemetry.count("artifacts.lock.timeout")
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=path.stem + ".tmp.", suffix=path.suffix
            )
            os.close(fd)
            try:
                write_fn(tmp)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        finally:
            lock.release()

    # -- CPU metrics ----------------------------------------------------
    def cpu_key(self, name: str, scale: SimScale, cpu_fn,
                config: Optional[Dict[str, Any]] = None) -> str:
        return artifact_key(
            "cpu", name, scale, _source_fingerprint(cpu_fn), config
        )

    def get_cpu(self, name: str, scale: SimScale, key: str) -> Optional[CPUMetrics]:
        path = self._path("cpu", name, scale, key, ".json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                metrics = _metrics_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError):
            telemetry.count("artifacts.cpu.miss")
            return None
        self._touch(path)
        telemetry.count("artifacts.cpu.hit")
        return metrics

    def put_cpu(self, name: str, scale: SimScale, key: str,
                metrics: CPUMetrics) -> None:
        path = self._path("cpu", name, scale, key, ".json")
        payload = json.dumps(_metrics_to_dict(metrics))

        def write(tmp):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(payload)

        self._write_atomic(path, write)
        telemetry.count("artifacts.cpu.put")
        self.prune()

    # -- GPU kernel traces ----------------------------------------------
    def gpu_key(self, name: str, scale: SimScale, version: int, gpu_fn,
                config: Optional[Dict[str, Any]] = None) -> str:
        cfg = dict(config or {})
        cfg["version"] = version
        return artifact_key(
            "gpu", name, scale, _source_fingerprint(gpu_fn), cfg
        )

    def get_gpu(self, name: str, scale: SimScale, key: str) -> Optional[KernelTrace]:
        path = self._path("gpu", name, scale, key, ".npz")
        try:
            trace = load_trace(path)
        except (OSError, ValueError, KeyError, EOFError):
            telemetry.count("artifacts.gpu.miss")
            return None
        self._touch(path)
        telemetry.count("artifacts.gpu.hit")
        return trace

    def put_gpu(self, name: str, scale: SimScale, key: str,
                trace: KernelTrace) -> None:
        path = self._path("gpu", name, scale, key, ".npz")
        self._write_atomic(path, lambda tmp: save_trace(trace, tmp))
        telemetry.count("artifacts.gpu.put")
        self.prune()

    # -- generic JSON blobs (service responses, future artifact kinds) --
    def get_json(self, kind: str, name: str, scale: SimScale,
                 key: str) -> Optional[str]:
        """Raw text of a JSON artifact, or None on miss.

        Returns the stored bytes *verbatim* (decoded utf-8) after a
        parse check: the experiment service's warm path must serve a
        payload byte-identical to what the cold execution produced, so
        re-serialization here would be a correctness bug.
        """
        path = self._path(kind, name, scale, key, ".json")
        try:
            text = path.read_text(encoding="utf-8")
            json.loads(text)  # corruption check only
        except (OSError, ValueError):
            telemetry.count(f"artifacts.{kind}.miss")
            return None
        self._touch(path)
        telemetry.count(f"artifacts.{kind}.hit")
        return text

    def put_json(self, kind: str, name: str, scale: SimScale, key: str,
                 text: str) -> Path:
        """Atomically persist pre-serialized JSON text under a key."""
        path = self._path(kind, name, scale, key, ".json")

        def write(tmp):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)

        self._write_atomic(path, write)
        telemetry.count(f"artifacts.{kind}.put")
        self.prune()
        return path

    # -- plan files: nothing writes them any more ------------------------
    # Kept only for get/put_plan_file, which layertrace.py wraps by name.
    def plan_path(self, kernel_name: str, key: str) -> Path:
        safe = "".join(
            ch if ch.isalnum() or ch in "-_" else "_" for ch in kernel_name
        )[:48] or "kernel"
        return self.root / f"plan-{safe}-{key}.npz"

    # Kept only because benchmarks/e2e/layertrace.py wraps it by name.
    def get_plan_file(self, kernel_name: str, key: str) -> Optional[Path]:
        """Path of a persisted plan set, or None; touches mtime (LRU)."""
        path = self.plan_path(kernel_name, key)
        if not path.is_file():
            telemetry.count("artifacts.plan.miss")
            return None
        self._touch(path)
        telemetry.count("artifacts.plan.hit")
        return path

    # Kept only because benchmarks/e2e/layertrace.py wraps it by name.
    def put_plan_file(self, kernel_name: str, key: str, write_fn) -> Path:
        """Atomically persist one plan set, then enforce the budget."""
        path = self.plan_path(kernel_name, key)
        self._write_atomic(path, write_fn)
        telemetry.count("artifacts.plan.put")
        self.prune_plans()
        return path

    # Kept only for put_plan_file, which layertrace.py wraps by name.
    def prune_plans(self, max_entries: int = PLAN_CACHE_MAX_ENTRIES,
                    max_bytes: int = PLAN_CACHE_MAX_BYTES) -> int:
        """Evict least-recently-used plan files past the budget.

        Returns the number of files removed.  The newest file always
        survives so a just-written plan cannot evict itself.
        """
        evicted = self._evict_lru(
            ("plan-*.npz",), max_entries, max_bytes, lock_name="prune-plans"
        )
        if evicted:
            telemetry.count("artifacts.plan.evict", evicted)
        return evicted

    # -- eviction -------------------------------------------------------
    #: Payload globs covered by the general size-budget prune.  Plans
    #: keep their own (tighter) budget in :meth:`prune_plans`.
    ARTIFACT_GLOBS = ("cpu-*.json", "gpu-*.npz", "resp-*.json")

    def prune(self, max_entries: Optional[int] = None,
              max_bytes: Optional[int] = None) -> int:
        """Enforce the artifact size budget with mtime-LRU eviction.

        Budgets default to the runtime config
        (``REPRO_CACHE_BUDGET`` / ``REPRO_CACHE_ENTRIES``); a value of
        0 means unbounded, and with both unbounded this is a no-op.
        Safe (and cheap) to call after every put: concurrent pruners
        single-flight on a lock, and every unlink re-checks that the
        file was not used or removed since the scan.
        """
        cfg = runtime_config()
        if max_entries is None:
            max_entries = cfg.cache_budget_entries
        if max_bytes is None:
            max_bytes = cfg.cache_budget_bytes
        if not max_entries and not max_bytes:
            return 0
        evicted = self._evict_lru(
            self.ARTIFACT_GLOBS,
            max_entries or (1 << 62),
            max_bytes or (1 << 62),
            lock_name="prune",
        )
        if evicted:
            telemetry.count("artifacts.evict", evicted)
        return evicted

    def _evict_lru(self, globs: Iterable[str], max_entries: int,
                   max_bytes: int, lock_name: str) -> int:
        """Shared LRU eviction pass, concurrency-tolerant.

        Single-flight: if another process holds the prune lock the
        pass is skipped (it is doing the same work).  Before each
        unlink the candidate is re-stat'ed — a file that vanished is
        skipped, and one whose mtime advanced since the scan was just
        *used* by a reader, so it is spared this round rather than
        evicted out from under a warm hit.
        """
        lock = store_lock(self.root, lock_name)
        if not lock.try_acquire():
            return 0
        try:
            entries = []
            try:
                for pattern in globs:
                    for p in self.root.glob(pattern):
                        if ".tmp." in p.name:
                            continue  # in-flight write, not a payload
                        try:
                            st = p.stat()
                        except OSError:
                            continue
                        entries.append((st.st_mtime, st.st_size, p))
            except OSError:
                return 0
            entries.sort(key=lambda e: e[0], reverse=True)
            total = 0
            evicted = 0
            for kept, (mtime, size, p) in enumerate(entries, start=1):
                total += size
                if kept == 1 or (kept <= max_entries and total <= max_bytes):
                    continue
                try:
                    st = p.stat()  # re-stat: tolerate concurrent use
                except OSError:
                    continue  # already gone — nothing to evict
                if st.st_mtime > mtime:
                    continue  # touched since the scan: recently used
                try:
                    p.unlink()
                except OSError:
                    continue
                evicted += 1
            return evicted
        finally:
            lock.release()


# ----------------------------------------------------------------------
# Default cache resolution
# ----------------------------------------------------------------------
_override: Optional[ArtifactCache] = None
_override_set = False


def default_cache() -> Optional[ArtifactCache]:
    """The configuration-resolved cache, or ``None`` when disabled."""
    cfg = runtime_config()
    if not cfg.cache:
        return None
    return ArtifactCache(cfg.cache_dir)


def get_artifact_cache() -> Optional[ArtifactCache]:
    """The active cache: explicit override first, then the environment."""
    if _override_set:
        return _override
    return default_cache()


def set_artifact_cache(cache: Optional[ArtifactCache], *,
                       clear: bool = False) -> None:
    """Install (or with ``clear=True`` remove) a cache override.

    ``set_artifact_cache(None)`` forces caching *off* regardless of the
    environment; ``set_artifact_cache(None, clear=True)`` restores
    environment-driven resolution.
    """
    global _override, _override_set
    if clear:
        _override = None
        _override_set = False
    else:
        _override = cache
        _override_set = True
