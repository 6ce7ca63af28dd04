"""Run registry: content-keyed JSON records of reproduced metrics.

A :class:`RunRecord` is the durable trace of one reproduction: which
experiments ran at which scale, every numeric metric they produced
(flattened to ``experiment/workload/field`` paths), the telemetry
counter totals and span rollups that were live at the time, and the
wall-clock cost.  :class:`RunRegistry` persists records as one JSON
file each under a directory, named by a content hash over the
*fidelity-relevant* fields (scale, experiments, metrics) — re-running
an unchanged tree rewrites the same file instead of accumulating
duplicates, so the registry's file list is the history of distinct
outcomes.

Timestamps and wall-clock durations are provenance, not content: they
are stored in the record but excluded from the hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import pathlib
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.common.locks import evict_lru, publish

#: Bump when the record shape changes; refuses cross-version loads.
RECORD_VERSION = 1

#: Record file names, ``<kind>-<run_id>.json``.  Registry scans match
#: only these, so other files sharing the directory (slow-request
#: exemplars, Chrome timelines, in-flight temp files) are never parsed
#: as records.
RECORD_GLOB = "*-" + "[0-9a-f]" * 16 + ".json"


def flatten_metrics(experiment: str, data: Any) -> Dict[str, float]:
    """Flatten an ``ExperimentResult.data`` tree into metric paths.

    Numeric leaves become ``experiment/key/.../leaf -> float``; dicts
    recurse, lists/tuples use the element index as the key, and
    non-numeric leaves (labels, markdown payloads, arrays) are skipped.
    Booleans are deliberately not numbers here.
    """
    out: Dict[str, float] = {}

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, numbers.Real):
            out[prefix] = float(value)
        elif isinstance(value, dict):
            for key in value:
                walk(f"{prefix}/{key}", value[key])
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{prefix}/{i}", item)

    walk(experiment, data)
    return out


@dataclasses.dataclass
class RunRecord:
    """One persisted reproduction outcome.

    kind        -- ``"run"`` (a CLI invocation covering several
                   experiments) or ``"experiment"`` (one
                   ``run_experiment()`` call).
    scale       -- problem-size operating point (``SimScale.value``).
    experiments -- experiment ids covered, in execution order.
    metrics     -- flattened numeric results (see
                   :func:`flatten_metrics`).
    counters    -- telemetry counter totals at record time (empty when
                   telemetry was off).
    span_stats  -- telemetry span rollups ``name -> [count, total_s]``.
    durations   -- per-experiment wall seconds.
    meta        -- free-form provenance (argv, schema hints).
    timestamp   -- local wall-clock time of the run (provenance only).
    run_id      -- content hash; filled by :meth:`stamp`.
    """

    kind: str
    scale: str
    experiments: List[str]
    metrics: Dict[str, float]
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    span_stats: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    durations: Dict[str, float] = dataclasses.field(default_factory=dict)
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    timestamp: str = ""
    run_id: str = ""

    def content_key(self) -> str:
        """Hash of the fidelity-relevant content (not timing/provenance)."""
        payload = json.dumps(
            {
                "kind": self.kind,
                "scale": self.scale,
                "experiments": list(self.experiments),
                "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def stamp(self) -> "RunRecord":
        """Fill ``run_id`` (always) and ``timestamp`` (if empty)."""
        self.run_id = self.content_key()
        if not self.timestamp:
            self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return self

    def to_json(self) -> str:
        body = dataclasses.asdict(self)
        body["v"] = RECORD_VERSION
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Parse one record; ``ValueError`` on anything else."""
        body = json.loads(text)
        if not isinstance(body, dict):
            raise ValueError("run record is not a JSON object")
        version = body.pop("v", None)
        if version != RECORD_VERSION:
            raise ValueError(
                f"run record version {version!r}, expected {RECORD_VERSION}"
            )
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(body) - fields
        if unknown:
            raise ValueError(f"run record has unknown fields {sorted(unknown)}")
        try:
            return cls(**body)
        except TypeError as exc:  # a required field is missing
            raise ValueError(f"incomplete run record: {exc}") from None


def record_from_results(
    results: Sequence[Any],
    scale: str,
    kind: str = "run",
    counters: Optional[Dict[str, int]] = None,
    span_stats: Optional[Dict[str, Iterable[float]]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> RunRecord:
    """Build a (stamped) record from :class:`ExperimentResult` objects."""
    metrics: Dict[str, float] = {}
    durations: Dict[str, float] = {}
    experiments: List[str] = []
    for result in results:
        experiments.append(result.experiment)
        metrics.update(flatten_metrics(result.experiment, result.data))
        dur = result.metadata.get("duration_s")
        if dur is not None:
            durations[result.experiment] = float(dur)
    return RunRecord(
        kind=kind,
        scale=scale,
        experiments=experiments,
        metrics=metrics,
        counters=dict(counters or {}),
        span_stats={k: list(v) for k, v in (span_stats or {}).items()},
        durations=durations,
        meta=dict(meta or {}),
    ).stamp()


def write_baseline(record: RunRecord, path: Union[str, pathlib.Path],
                   out=None) -> Optional[pathlib.Path]:
    """Write ``record`` as a ``--save-baseline`` file; returns its path.

    Publishes atomically, creating the parent directory.  A failed write
    (a full disk) prints ``[baseline] error: ...`` to ``out`` (stderr by
    default) and returns ``None``: the run it records has finished, so
    its exit code stands.
    """
    out = sys.stderr if out is None else out
    text = record.to_json()
    try:
        target = publish(
            path, lambda tmp: pathlib.Path(tmp).write_text(text, "utf-8")
        )
    except OSError as exc:
        print(f"[baseline] error: {exc}", file=out, flush=True)
        return None
    print(f"[baseline saved] {target}", file=out, flush=True)
    return target


class RunRegistry:
    """A directory of :class:`RunRecord` JSON files.

    Files are named ``<kind>-<run_id>.json``; the directory is created
    lazily on first :meth:`save`, so merely constructing a registry (or
    reading an empty one) touches nothing on disk.

    Safe under concurrent cross-process writers: saves go through
    :func:`repro.common.locks.publish` (atomic rename under a
    per-run-id-prefix lock), reads are lock-free (a complete file or
    nothing), and directory scans, which match only
    :data:`RECORD_GLOB`, tolerate records that a concurrent pruner
    unlinks mid-scan.
    """

    def __init__(self, root: Union[str, pathlib.Path]):
        self.root = pathlib.Path(root)

    def path_for(self, record: RunRecord) -> pathlib.Path:
        return self.root / f"{record.kind}-{record.run_id}.json"

    def save(self, record: RunRecord) -> pathlib.Path:
        """Persist (stamping if needed); returns the record's path.

        Atomic publish: a concurrent reader never observes a torn
        record.  ``OSError`` (a full disk) propagates with the previous
        file, if any, intact.
        """
        if not record.run_id:
            record.stamp()
        text = record.to_json()
        return publish(
            self.path_for(record),
            lambda tmp: pathlib.Path(tmp).write_text(text, "utf-8"),
        )

    def load(self, ref: Union[str, pathlib.Path]) -> RunRecord:
        """Load a record by path, or by run id within this registry."""
        path = pathlib.Path(ref)
        if not path.is_file():
            matches = sorted(self.root.glob(f"*-{ref}.json"))
            if len(matches) != 1:
                raise FileNotFoundError(
                    f"no unique record for {ref!r} in {self.root} "
                    f"({len(matches)} matches)"
                )
            path = matches[0]
        return RunRecord.from_json(path.read_text(encoding="utf-8"))

    def records(self, kind: Optional[str] = None) -> List[RunRecord]:
        """All records, oldest first (by timestamp, then id).

        A record that a concurrent pruner unlinks between the glob and
        the read is silently skipped — scanning a live registry must
        not race its own eviction policy.
        """
        if not self.root.is_dir():
            return []
        out = []
        for p in sorted(self.root.glob(RECORD_GLOB)):
            try:
                out.append(RunRecord.from_json(p.read_text(encoding="utf-8")))
            except FileNotFoundError:
                continue  # pruned mid-scan
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        out.sort(key=lambda r: (r.timestamp, r.run_id))
        return out

    def latest(self, kind: Optional[str] = None) -> Optional[RunRecord]:
        records = self.records(kind)
        return records[-1] if records else None

    def prune(self, max_records: int) -> int:
        """Keep the ``max_records`` most-recent records (mtime-LRU).

        Single-flight across processes and TOCTOU-safe (see
        :func:`repro.common.locks.evict_lru`).  Returns the number of
        records removed; ``max_records < 1`` removes none.
        """
        if max_records < 1:
            return 0
        return evict_lru(self.root, (RECORD_GLOB,), max_records, 0,
                         lock_name="prune")
