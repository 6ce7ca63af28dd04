"""Request observability for the experiment service.

:class:`ServiceObservability` owns everything the daemon knows about
its own behavior beyond the six always-on integers of ``ServiceStats``:

- a :class:`~repro.telemetry.metrics.MetricsRegistry` holding per-route
  HTTP counters/latency histograms, warm/cold/coalesced latency
  families, and worker-reported deltas, rendered on demand for
  ``GET /v1/metrics`` (Prometheus text exposition format);
- **request ids** — every request gets an ``X-Repro-Request-Id``; the
  id rides into the cold-path pool worker, names the worker's
  telemetry session, and roots the stitched span tree;
- a structured **JSONL access log** (one object per request, written
  through the existing :class:`~repro.telemetry.JsonlSink`), whose
  line count agrees with the metrics totals by construction: both are
  recorded at the same call site, and teardown flushes before close;
- **slow-request exemplars** — any request whose latency crosses a
  configurable threshold persists its full span tree (service request
  root + the worker's experiment/workload/kernel_launch spans) into
  the run-registry directory as ``exemplar-<request_id>.json``.

Everything here is synchronous and allocation-light: the warm hit path
pays one id generation, a few dict updates, and one buffered file
write — bounded under 3% of the warm p50 by
``benchmarks/test_bench_service.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Dict, List, Optional

from repro.common.locks import publish
from repro.telemetry import JsonlSink
from repro.telemetry.metrics import MetricsRegistry, render_prometheus

#: Routes the service serves; anything else is labeled "other" so label
#: cardinality stays bounded no matter what clients probe.
KNOWN_ROUTES = (
    "/healthz",
    "/v1/stats",
    "/v1/experiments",
    "/v1/experiment",
    "/v1/report",
    "/v1/metrics",
    "/v1/shutdown",
)

#: Span events kept per worker payload (exemplars stay bounded even if
#: an experiment emits millions of batch_pass spans).
MAX_WORKER_EVENTS = 50_000

#: Access-log event schema version.
ACCESS_SCHEMA_VERSION = 1


class BoundedMemorySink:
    """A MemorySink that keeps the first ``cap`` events and counts drops.

    The cold-path worker attaches this to its telemetry session so the
    span tree it ships back over the pool boundary has a hard size
    ceiling.
    """

    def __init__(self, cap: int = MAX_WORKER_EVENTS):
        self.cap = cap
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0

    def emit(self, event: Dict[str, Any]) -> None:
        if len(self.events) < self.cap:
            self.events.append(event)
        else:
            self.dropped += 1

    def close(self) -> None:
        pass


class ServiceObservability:
    """Metrics registry + access log + exemplars for one service."""

    def __init__(
        self,
        access_log_path: Optional[str] = None,
        slow_request_s: float = 1.0,
        registry_dir: Optional[str] = None,
    ):
        self.metrics = MetricsRegistry()
        self.slow_request_s = slow_request_s
        self.registry_dir = registry_dir or None
        self.access_log_path = access_log_path or None
        self._sink = (
            JsonlSink(access_log_path) if access_log_path else None
        )
        self._closed = False
        self._seq = 0
        self.access_lines = 0
        self.dropped_access_lines = 0
        self.exemplars_written = 0
        self.started_at = time.time()

    # -- request ids -----------------------------------------------------
    def new_request_id(self) -> str:
        """A fresh request id: ordered prefix + random suffix."""
        self._seq += 1
        return f"r{self._seq:06d}-{os.urandom(6).hex()}"

    # -- recording -------------------------------------------------------
    @staticmethod
    def route_label(path: str) -> str:
        return path if path in KNOWN_ROUTES else "other"

    def observe_http(
        self,
        path: str,
        method: str,
        status: int,
        latency_s: float,
        request_id: str,
        served: str = "",
        experiment: str = "",
        scale: str = "",
    ) -> None:
        """One finished HTTP exchange: metrics + access-log line.

        Counter increment and log line happen at the same call site, so
        ``repro_service_http_requests_total`` and the access log agree
        on totals for the life of the service (modulo lines dropped
        after teardown, which are counted in
        ``dropped_access_lines``).
        """
        route = self.route_label(path)
        self.metrics.inc(
            "repro_service_http_requests_total",
            route=route, status=str(status),
        )
        self.metrics.observe(
            "repro_service_http_request_seconds", latency_s, route=route
        )
        if self._sink is None:
            return
        if self._closed:
            self.dropped_access_lines += 1
            return
        event: Dict[str, Any] = {
            "v": ACCESS_SCHEMA_VERSION,
            "ts": round(time.time(), 6),
            "rid": request_id,
            "method": method,
            "route": route,
            "path": path,
            "status": status,
            "latency_ms": round(latency_s * 1e3, 3),
        }
        if served:
            event["served"] = served
        if experiment:
            event["experiment"] = experiment
        if scale:
            event["scale"] = scale
        self._sink.emit(event)
        self.access_lines += 1

    def observe_served(self, served: str, latency_s: float) -> None:
        """Latency of one answered experiment request, by served class.

        Called exactly where ``ServiceStats`` increments its class
        counters, so each family's ``_count`` equals the corresponding
        ``/v1/stats`` integer.
        """
        self.metrics.observe(
            "repro_service_request_latency_seconds", latency_s,
            served=served,
        )

    def merge_worker(self, extras: Optional[Dict[str, Any]]) -> None:
        """Fold a cold worker's telemetry deltas into the registry.

        ``extras["metrics"]`` is a worker-side
        :meth:`MetricsRegistry.to_dict` payload (experiment/workload/
        kernel-launch duration histograms); ``extras["counters"]`` are
        the worker session's telemetry counter totals, re-published as
        one labeled counter family.
        """
        if not extras:
            return
        metrics = extras.get("metrics")
        if metrics:
            self.metrics.merge(metrics)
        for name, value in (extras.get("counters") or {}).items():
            self.metrics.inc(
                "repro_worker_telemetry_total", int(value), counter=name
            )
        dropped = extras.get("dropped_events", 0)
        if dropped:
            self.metrics.inc(
                "repro_worker_dropped_span_events_total", int(dropped)
            )

    # -- exemplars -------------------------------------------------------
    def maybe_exemplar(
        self,
        request_id: str,
        experiment: str,
        scale: str,
        served: str,
        status: int,
        latency_s: float,
        spans: Optional[List[Dict[str, Any]]],
        run_id: str = "",
    ) -> Optional[pathlib.Path]:
        """Persist a slow request's span tree to the registry directory.

        The document's root is the service request id; the worker's
        root spans are re-parented under it, so the tree reads
        ``<request id> -> service.execute -> experiment -> workload ->
        kernel_launch`` end to end.  Returns the written path, or None
        (below threshold, no registry, no spans, or the write failed).
        """
        if (
            self.registry_dir is None
            or latency_s < self.slow_request_s
            or not spans
        ):
            return None
        stitched: List[Dict[str, Any]] = []
        for event in spans:
            if event.get("ev") not in ("span_open", "span_close"):
                continue
            event = dict(event)
            if event["ev"] == "span_open" and event.get("parent") is None:
                event["parent"] = request_id
            stitched.append(event)
        doc = {
            "v": ACCESS_SCHEMA_VERSION,
            "kind": "exemplar",
            "request_id": request_id,
            "experiment": experiment,
            "scale": scale,
            "served": served,
            "status": status,
            "latency_s": round(latency_s, 6),
            "threshold_s": self.slow_request_s,
            "run_id": run_id,
            "root": {
                "id": request_id,
                "name": "service.request",
                "experiment": experiment,
                "scale": scale,
            },
            "spans": stitched,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        root = pathlib.Path(self.registry_dir)
        try:
            path = publish(
                root / f"exemplar-{request_id}.json",
                lambda tmp: pathlib.Path(tmp).write_text(text, "utf-8"),
            )
        except OSError:
            # Observability must never fail a served request.
            return None
        self.exemplars_written += 1
        self.metrics.inc("repro_service_slow_exemplars_total")
        return path

    # -- exposition ------------------------------------------------------
    def render(self, stats_snapshot: Dict[str, Any],
               inflight: int, queue_limit: int) -> str:
        """The full Prometheus exposition for ``GET /v1/metrics``.

        Always-on ``ServiceStats`` totals are synced into the registry
        at scrape time so one renderer covers request accounting,
        latency families, gauges, and worker deltas.
        """
        m = self.metrics
        m.sync_counter("repro_service_requests_total",
                       stats_snapshot["requests"])
        for key in ("warm", "cold", "coalesced", "rejected", "errors",
                    "bad_requests"):
            m.sync_counter(
                "repro_service_responses_total", stats_snapshot[key],
                outcome=key,
            )
        for route, count in sorted(
            (stats_snapshot.get("per_route") or {}).items()
        ):
            m.sync_counter(
                "repro_service_route_requests_total", count, route=route
            )
        m.set_gauge("repro_service_inflight", inflight)
        m.set_gauge("repro_service_queue_limit", queue_limit)
        m.set_gauge("repro_service_warm_hit_rate",
                    stats_snapshot["warm_hit_rate"])
        m.set_gauge("repro_service_coalescing_ratio",
                    stats_snapshot["coalescing_ratio"])
        m.set_gauge("repro_service_uptime_seconds",
                    round(time.time() - self.started_at, 3))
        m.sync_counter("repro_service_access_log_lines_total",
                       self.access_lines)
        return render_prometheus(m)

    # -- summary metrics (SLO / drift / baseline) ------------------------
    def service_metrics(
        self, stats_snapshot: Dict[str, Any]
    ) -> Dict[str, float]:
        """Flattened ``service/*`` metric paths for the fidelity layer.

        The encoding the run registry, ``--save-baseline``, and the SLO
        gate share: latencies in milliseconds, rates in [0, 1].
        """
        out: Dict[str, float] = {
            "service/requests": float(stats_snapshot["requests"]),
            "service/rejected": float(stats_snapshot["rejected"]),
            "service/bad_requests": float(stats_snapshot["bad_requests"]),
            "service/warm_hit_rate": float(stats_snapshot["warm_hit_rate"]),
            "service/coalescing_ratio": float(
                stats_snapshot["coalescing_ratio"]
            ),
        }
        answered = (stats_snapshot["warm"] + stats_snapshot["cold"]
                    + stats_snapshot["coalesced"]
                    + stats_snapshot["errors"])
        out["service/error_rate"] = (
            stats_snapshot["errors"] / answered if answered else 0.0
        )
        fam = self.metrics.histograms.get(
            "repro_service_request_latency_seconds", {}
        )
        for key, hist in sorted(fam.items()):
            served = dict(key).get("served", "all")
            if hist.count == 0:
                continue
            out[f"service/{served}_p50_ms"] = hist.quantile(0.5) * 1e3
            out[f"service/{served}_p95_ms"] = hist.quantile(0.95) * 1e3
            out[f"service/{served}_p99_ms"] = hist.quantile(0.99) * 1e3
            out[f"service/{served}_max_ms"] = hist.max * 1e3
            out[f"service/{served}_count"] = float(hist.count)
        return out

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Flush-then-close the access log; idempotent.

        Called from the service's ``stop()`` (and again by whoever owns
        the service, safely): the first call flushes buffered lines to
        disk, later calls are no-ops, and any request that somehow
        lands after teardown is counted in ``dropped_access_lines``
        instead of corrupting a closed file.
        """
        if self._closed:
            return
        self._closed = True
        if self._sink is not None:
            self._sink.close()
