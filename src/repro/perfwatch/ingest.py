"""Ingesters: existing measurement surfaces -> perf-history sessions.

Each function maps one source of one-shot timing data into
:class:`~repro.perfwatch.store.SessionRecord` batches with stable
content hashes, so ``runner perf record`` may be pointed at the same
source repeatedly (every CI run, say) and the history only grows by
what is genuinely new:

- :func:`from_run_record` / :func:`from_registry` — run-registry
  records: per-experiment durations and span rollups for ``run``/
  ``experiment`` kinds, latency/error summaries for ``service``
  lifetime records.
- :func:`from_trace` — any telemetry JSONL trace, rolled up to
  per-span self/total seconds.
- :func:`from_scrape` — one live scrape of a running service's
  ``/v1/stats`` + ``/v1/metrics`` (the programmatic sibling of
  ``runner watch --once``).

Benchmark sessions need no adapter: the harness appends
:meth:`~repro.perfwatch.bench.BenchRecorder.session` directly.  Only
wall-clock-like quantities become samples; fidelity metrics
(figure values, counter sets) already have their own drift gate and
stay out of the perf trajectory.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Optional, Union

from repro.perfwatch.store import SessionRecord

#: Span names whose rollups are worth a trajectory (the stable spine of
#: the instrumentation; ad-hoc inner spans would churn the metric set).
TRACKED_SPANS = (
    "run", "experiment", "workload", "kernel_launch", "warm_cache",
    "service.execute",
)


# ----------------------------------------------------------------------
# Run-registry records
# ----------------------------------------------------------------------
def from_run_record(record: Any) -> Optional[SessionRecord]:
    """A :class:`~repro.fidelity.registry.RunRecord` -> perf session.

    ``run``/``experiment`` kinds yield per-experiment durations plus
    rollups of the stable span spine; ``service`` kinds yield their
    latency/rate summary metrics.  Kinds with no wall-clock content
    (``gpuprof`` counter records) return None.
    """
    metrics: Dict[str, float] = {}
    if record.kind in ("run", "experiment"):
        for exp, dur in (record.durations or {}).items():
            metrics[f"run/{exp}/duration_s"] = float(dur)
        for name, stat in (record.span_stats or {}).items():
            if name in TRACKED_SPANS and len(stat) >= 2:
                metrics[f"span/{name}/total_s"] = float(stat[1])
                metrics[f"span/{name}/count"] = float(stat[0])
    elif record.kind == "service":
        for path, value in (record.metrics or {}).items():
            if path.startswith("service/"):
                metrics[path] = float(value)
    if not metrics:
        return None
    return SessionRecord(
        source="run" if record.kind in ("run", "experiment")
        else "service",
        metrics=metrics,
        ts=record.timestamp,
        scale=record.scale,
        meta={"kind": record.kind, "run_id": record.run_id},
    ).stamp()


def from_registry(
    registry_dir: Union[str, pathlib.Path]
) -> List[SessionRecord]:
    """Ingestable sessions from every record of a run registry."""
    from repro.fidelity import RunRegistry

    out: List[SessionRecord] = []
    for record in RunRegistry(registry_dir).records():
        session = from_run_record(record)
        if session is not None:
            out.append(session)
    return out


# ----------------------------------------------------------------------
# Telemetry traces
# ----------------------------------------------------------------------
def from_trace(path: Union[str, pathlib.Path]) -> SessionRecord:
    """One telemetry JSONL trace -> per-span self/total rollup session."""
    from repro.telemetry import parse_trace
    from repro.telemetry.profile import aggregate_spans

    events = parse_trace(str(path), allow_truncated=True)
    metrics: Dict[str, float] = {}
    scale = ""
    for event in events:
        if event.get("ev") == "meta":
            scale = str((event.get("attrs") or {}).get("scale", ""))
            break
    for agg in aggregate_spans(events):
        metrics[f"span/{agg.name}/self_s"] = round(agg.self_s, 6)
        metrics[f"span/{agg.name}/total_s"] = round(agg.total_s, 6)
        metrics[f"span/{agg.name}/count"] = float(agg.count)
    return SessionRecord(
        source="trace",
        metrics=metrics,
        scale=scale,
        meta={"trace": pathlib.Path(path).name},
    ).stamp()


# ----------------------------------------------------------------------
# Live service scrape
# ----------------------------------------------------------------------
def from_scrape(host: str, port: int) -> SessionRecord:
    """One scrape of a live service -> its latency-quantile session.

    The CLI twin is ``runner watch --once``; this is the ingestible
    form: warm/cold/coalesced latency quantiles from the scraped
    histogram buckets plus the stats integers, tagged with the scrape
    target.
    """
    from repro.service.client import ServiceClient
    from repro.telemetry.metrics import (
        histogram_buckets,
        parse_prometheus,
        quantile_from_buckets,
    )

    client = ServiceClient(host, port)
    try:
        stats = client.stats()
        parsed = parse_prometheus(client.metrics_text())
    finally:
        client.close()
    metrics: Dict[str, float] = {
        "service/requests": float(stats.get("requests", 0)),
        "service/warm_hit_rate": float(stats.get("warm_hit_rate", 0.0)),
        "service/coalescing_ratio": float(
            stats.get("coalescing_ratio", 0.0)
        ),
    }
    for served in ("warm", "cold", "coalesced"):
        buckets = histogram_buckets(
            parsed, "repro_service_request_latency_seconds",
            served=served,
        )
        if not buckets or buckets[-1][1] == 0:
            continue
        for q, tag in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            metrics[f"service/{served}_{tag}_ms"] = round(
                quantile_from_buckets(buckets, q) * 1e3, 6
            )
        metrics[f"service/{served}_count"] = float(buckets[-1][1])
    return SessionRecord(
        source="scrape",
        metrics=metrics,
        meta={"target": f"{host}:{port}"},
    ).stamp()
