"""The asyncio HTTP/JSON experiment daemon.

One event loop owns the sockets and the coalescing map; cold
experiment executions run in a bounded ``ProcessPoolExecutor`` so the
loop never blocks on simulation work.  The request lifecycle:

1. **Parse + validate** the POSTed JSON into an
   :class:`~repro.api.ExperimentRequest` (400 on shape errors, 400 on
   unknown experiment ids — checked against the driver registry).
2. **Warm path**: the request's content key is looked up in the
   artifact cache's response store (``resp-*`` entries).  A hit is
   served as the stored bytes verbatim — byte-identical to the cold
   response that produced it (``X-Repro-Served: warm``).
3. **Coalesce**: if an identical request is already executing, await
   its task instead of spawning another (``X-Repro-Served:
   coalesced``).  M identical concurrent cold requests cost exactly
   one execution and produce M identical payloads.
4. **Backpressure**: with ``queue_limit`` distinct cold requests in
   flight the service answers ``429`` with a ``Retry-After`` header
   rather than queueing unboundedly.
5. **Cold path**: the request runs in a pool worker via
   :func:`repro.api.execute`; the worker persists the canonical
   response JSON into the artifact cache (so restarts stay warm) and
   the experiment's own registry record via the normal
   ``run_experiment`` hook.

Telemetry: every outcome lands on ``service.*`` counters, and each
request emits a ``service.request`` span carrying the served class and
measured latency as attributes.  The span is opened *after* the
response is ready — the telemetry registry is strictly LIFO and
concurrent handlers interleave across ``await`` points, so a span held
open across an await would corrupt parentage; timings therefore travel
as attributes instead of span duration.

Observability (:mod:`repro.service.observability`): every request gets
an ``X-Repro-Request-Id``; the id crosses the pool boundary so the
cold worker's telemetry session — and hence its
experiment → workload → kernel_launch span tree — is rooted under the
serving request.  Workers ship their histogram/counter deltas back
beside the response and the parent merges them, ``GET /v1/metrics``
renders the whole registry in Prometheus text exposition format, the
access log is structured JSONL, and requests slower than the
configured threshold persist their full stitched span trace to the run
registry as exemplars.  Recording happens synchronously between
``_route`` returning and the first subsequent ``await``, so teardown
(flush-before-close in :meth:`ExperimentService.stop`) leaves the
final scrape and the access log agreeing on totals.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import pathlib
import signal
import sys
import threading
import time
import urllib.parse
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.api import SCHEMA_VERSION, ExperimentRequest
from repro.common.config import (
    DEFAULT_REGISTRY_DIR,
    DEFAULT_SERVICE_HOST,
    DEFAULT_SERVICE_PORT,
    DEFAULT_SERVICE_QUEUE,
    DEFAULT_SERVICE_SLOW_MS,
    DEFAULT_SERVICE_WORKERS,
    SimScale,
    config,
)
from repro.service.observability import ServiceObservability

#: Artifact-cache kind under which canonical response JSON persists.
RESPONSE_KIND = "resp"

#: Largest accepted request body; experiment requests are tiny.
MAX_BODY_BYTES = 1 << 20

_JSON = {"Content-Type": "application/json"}


# ----------------------------------------------------------------------
# Cold execution (pool worker side)
# ----------------------------------------------------------------------
def _worker_metrics(
    events: List[Dict[str, Any]], experiment: str, scale: str
) -> Dict[str, Any]:
    """Worker-side histogram deltas distilled from a session's spans.

    Span close events carry exact durations; bucketing them here (in
    the worker, against the bit-deterministic boundary function) means
    the parent merges payloads that are identical no matter which
    process observed them.
    """
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    families = {
        "experiment": "repro_worker_experiment_seconds",
        "workload": "repro_worker_workload_seconds",
        "kernel_launch": "repro_worker_kernel_launch_seconds",
    }
    for event in events:
        if event.get("ev") != "span_close":
            continue
        name = families.get(event.get("name"))
        if name is None:
            continue
        registry.observe(
            name, float(event.get("dur_s", 0.0)),
            experiment=experiment, scale=scale,
        )
    return registry.to_dict()


def _execute(
    request_json: str,
    cache_dir: Optional[str],
    registry_dir: Optional[str],
    request_id: str = "",
) -> Tuple[bool, str, Optional[Dict[str, Any]]]:
    """Run one request in a worker process; never raises.

    Returns ``(ok, canonical_response_json, extras)``.  The worker pins
    its own store locations explicitly — it must not inherit whatever
    cache override the parent had installed when the pool forked — and
    persists the response bytes for the service's warm path before
    returning, so a response the parent serves is always one that is
    already durable.

    With a ``request_id`` the worker opens its own telemetry session
    (named by the id, after :func:`repro.telemetry.discard` fork
    hygiene) and ships its deltas home in ``extras``: the bounded span
    event list rooted under the request id, counter totals, and
    pre-bucketed duration histograms — everything the parent needs to
    stitch the request's trace and merge its metrics.
    """
    from repro import api
    from repro.common.config import override
    from repro.core.artifacts import ArtifactCache, set_artifact_cache
    from repro.service.observability import BoundedMemorySink

    try:
        req = api.ExperimentRequest.from_json(request_json)
    except ValueError as exc:  # unreachable via the service; be safe
        return False, json.dumps({"error": str(exc)}), None
    if cache_dir:
        set_artifact_cache(ArtifactCache(cache_dir))
    else:
        set_artifact_cache(None)
    sink: Optional[BoundedMemorySink] = None
    if request_id:
        # The inherited parent session (if the pool forked mid-trace)
        # wraps the parent's file descriptors; drop it before starting
        # this request's own in-memory session.
        telemetry.discard()
        sink = BoundedMemorySink()
        telemetry.start(sink=sink, meta={"request_id": request_id})
    try:
        with override(registry_dir=registry_dir):
            if request_id:
                with telemetry.span(
                    "service.execute", request_id=request_id,
                    experiment=req.experiment, scale=req.scale.value,
                ):
                    resp = api.execute(req)
            else:
                resp = api.execute(req)
            text = resp.to_json()
            if resp.ok and cache_dir:
                ArtifactCache(cache_dir).put_json(
                    RESPONSE_KIND, req.experiment, req.scale,
                    req.content_key(), text,
                )
        extras: Optional[Dict[str, Any]] = None
        if sink is not None:
            snapshot = telemetry.stop()
            extras = {
                "request_id": request_id,
                "counters": dict(snapshot.get("counters", {})),
                "metrics": _worker_metrics(
                    sink.events, req.experiment, req.scale.value
                ),
                "spans": sink.events,
                "dropped_events": sink.dropped,
            }
        return resp.ok, text, extras
    finally:
        if request_id:
            telemetry.discard()  # no-op after stop(); safety on errors
        set_artifact_cache(None, clear=True)


# ----------------------------------------------------------------------
# Service statistics
# ----------------------------------------------------------------------
@dataclass
class ServiceStats:
    """Always-on request accounting (telemetry may be off)."""

    requests: int = 0
    warm: int = 0
    cold: int = 0
    coalesced: int = 0
    rejected: int = 0
    errors: int = 0
    bad_requests: int = 0
    cold_seconds: float = 0.0
    warm_seconds: float = 0.0
    started_at: float = field(default_factory=time.time)
    per_route: Dict[str, int] = field(default_factory=dict)

    def count_route(self, route: str) -> None:
        self.per_route[route] = self.per_route.get(route, 0) + 1

    def snapshot(self, inflight: Optional[int] = None) -> Dict[str, Any]:
        answered = self.warm + self.cold + self.coalesced
        snap: Dict[str, Any] = {
            "requests": self.requests,
            "warm": self.warm,
            "cold": self.cold,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "errors": self.errors,
            "bad_requests": self.bad_requests,
            "warm_hit_rate": round(self.warm / answered, 4) if answered else 0.0,
            "coalescing_ratio": (
                round(self.coalesced / (self.coalesced + self.cold), 4)
                if (self.coalesced + self.cold) else 0.0
            ),
            "mean_cold_s": (
                round(self.cold_seconds / self.cold, 4) if self.cold else 0.0
            ),
            "mean_warm_s": (
                round(self.warm_seconds / self.warm, 6) if self.warm else 0.0
            ),
            "uptime_s": round(time.time() - self.started_at, 1),
            "per_route": dict(sorted(self.per_route.items())),
        }
        if inflight is not None:
            snap["inflight"] = inflight
        return snap


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class ExperimentService:
    """Asyncio HTTP daemon serving typed experiment requests.

    The serving knobs default to the ``DEFAULT_SERVICE_*`` constants
    (``runner serve`` flags override them); the cache and registry
    directories default to :func:`repro.common.config.config`, and an
    empty string turns either off.  ``execute_fn`` is the
    cold-execution callable submitted to the pool, with the signature
    of :func:`_execute` — tests substitute a lightweight fake.
    """

    def __init__(
        self,
        host: str = DEFAULT_SERVICE_HOST,
        port: int = DEFAULT_SERVICE_PORT,
        workers: int = DEFAULT_SERVICE_WORKERS,
        queue_limit: int = DEFAULT_SERVICE_QUEUE,
        cache_dir: Optional[str] = None,
        registry_dir: Optional[str] = None,
        execute_fn: Optional[Callable[
            [str, Optional[str], Optional[str], str],
            Tuple[bool, str, Optional[Dict[str, Any]]],
        ]] = None,
        access_log: Optional[str] = None,
        slow_request_s: float = DEFAULT_SERVICE_SLOW_MS / 1e3,
    ):
        cfg = config()
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_limit = queue_limit
        self.cache_dir = (
            (cfg.cache_dir if cfg.cache else None)
            if cache_dir is None else (cache_dir or None)
        )
        self.registry_dir = (
            cfg.registry_dir if registry_dir is None else (registry_dir or None)
        )
        self.stats = ServiceStats()
        self.obs = ServiceObservability(
            access_log_path=access_log,
            slow_request_s=slow_request_s,
            registry_dir=self.registry_dir,
        )
        self._execute_fn = execute_fn or _execute
        self._inflight: Dict[str, asyncio.Task] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        # The Event must be born inside the serving loop (pre-3.10
        # asyncio primitives bind their loop at construction).
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        # With port 0 the OS picked one; republish the real value.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._inflight.values()):
            task.cancel()
        self._inflight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        # Last: flush-then-close the access log.  Every request already
        # recorded both its metrics sample and its log line before its
        # response hit the socket, so the final scrape a client took
        # and the flushed log agree on totals.  Idempotent — stop() may
        # run again via spawn_service teardown.
        self.obs.close()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (call from within its loop)."""
        if self._stop is not None:
            self._stop.set()

    async def run_until_stopped(self) -> None:
        """start(), banner, block until shutdown is requested, stop()."""
        await self.start()
        print(
            f"[serve] listening on http://{self.host}:{self.port} "
            f"(workers={self.workers}, queue={self.queue_limit}, "
            f"cache={self.cache_dir or 'off'}, "
            f"registry={self.registry_dir or 'off'})",
            file=sys.stderr,
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self._stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX event loop
        try:
            await self._stop.wait()
        finally:
            await self.stop()
            print("[serve] stopped", file=sys.stderr, flush=True)

    # -- HTTP plumbing ---------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, target, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                rid = self.obs.new_request_id()
                t0 = time.perf_counter()
                status, payload, extra, info = await self._route(
                    method, target, body, rid
                )
                # Record before any further await: once the response is
                # on the wire, its metrics sample and access-log line
                # already exist, so a final scrape and the flushed log
                # can never disagree.
                self.obs.observe_http(
                    target.partition("?")[0], method, status,
                    time.perf_counter() - t0, rid,
                    served=info.get("served", ""),
                    experiment=info.get("experiment", ""),
                    scale=info.get("scale", ""),
                )
                extra = dict(extra)
                extra.setdefault("X-Repro-Request-Id", rid)
                await self._write_response(
                    writer, status, payload, extra, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down while this connection idled
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader):
        """One HTTP/1.1 request -> (method, target, headers, body)."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise asyncio.LimitOverrunError("request body too large", length)
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    async def _write_response(writer, status: int, payload: bytes,
                              extra_headers: Dict[str, str],
                              keep_alive: bool) -> None:
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error",
        }.get(status, "OK")
        head = [f"HTTP/1.1 {status} {reason}"]
        headers = dict(_JSON)
        headers.update(extra_headers)
        headers["Content-Length"] = str(len(payload))
        headers["Connection"] = "keep-alive" if keep_alive else "close"
        head.extend(f"{k}: {v}" for k, v in headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    # -- routing ---------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes, rid: str = ""
    ) -> Tuple[int, bytes, Dict[str, str], Dict[str, str]]:
        """Dispatch one request -> (status, payload, headers, info).

        ``info`` is the observability sidecar: the served class and the
        experiment/scale identity for the access log.  It never affects
        the payload.
        """
        self.stats.requests += 1
        telemetry.count("service.requests")
        path, _, query = target.partition("?")
        self.stats.count_route(ServiceObservability.route_label(path))
        if path == "/healthz" and method == "GET":
            return 200, _dumps({
                "ok": True,
                "schema_version": SCHEMA_VERSION,
                "inflight": len(self._inflight),
                "queue_limit": self.queue_limit,
            }), {}, {}
        if path == "/v1/stats" and method == "GET":
            return 200, _dumps(
                self.stats.snapshot(inflight=len(self._inflight))
            ), {}, {}
        if path == "/v1/metrics" and method == "GET":
            text = self.obs.render(
                self.stats.snapshot(), len(self._inflight),
                self.queue_limit,
            )
            return 200, text.encode("utf-8"), {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            }, {}
        if path == "/v1/experiments":
            if method != "GET":
                return 405, _dumps({"error": "GET only"}), {}, {}
            from repro.experiments import ALL_EXPERIMENTS

            return 200, _dumps({
                "schema_version": SCHEMA_VERSION,
                "experiments": list(ALL_EXPERIMENTS) + ["report"],
                "scales": [s.value for s in SimScale],
            }), {}, {}
        if path == "/v1/experiment" and method == "POST":
            return await self._handle_experiment_body(body, rid)
        if path == "/v1/report" and method == "GET":
            # The report layer rides the same request encoding: a GET
            # here is sugar for POSTing {"experiment": "report", ...}.
            params = urllib.parse.parse_qs(query)
            scale = (params.get("scale") or ["small"])[0]
            try:
                req = ExperimentRequest("report", SimScale(scale))
            except ValueError as exc:
                self.stats.bad_requests += 1
                return 400, _dumps({"error": str(exc)}), {}, {}
            return await self._handle_experiment(req, rid)
        if path == "/v1/shutdown" and method == "POST":
            self.request_shutdown()
            return 200, _dumps({"ok": True, "stopping": True}), {}, {}
        return 404, _dumps({
            "error": f"no route {method} {path}",
            "routes": ["GET /healthz", "GET /v1/stats",
                       "GET /v1/metrics", "GET /v1/experiments",
                       "POST /v1/experiment", "GET /v1/report",
                       "POST /v1/shutdown"],
        }), {}, {}

    async def _handle_experiment_body(
        self, body: bytes, rid: str = ""
    ) -> Tuple[int, bytes, Dict[str, str], Dict[str, str]]:
        try:
            req = ExperimentRequest.from_json(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self.stats.bad_requests += 1
            telemetry.count("service.bad_request")
            return 400, _dumps({"error": str(exc)}), {}, {}
        # Unknown ids fail *here* (400, the asker's fault), not in a
        # pool worker (500, the service's fault).
        from repro.experiments import get_driver

        try:
            get_driver(req.experiment)
        except KeyError as exc:
            self.stats.bad_requests += 1
            telemetry.count("service.bad_request")
            return 400, _dumps({"error": str(exc.args[0])}), {}, {}
        return await self._handle_experiment(req, rid)

    # -- the warm/coalesced/cold core ------------------------------------
    async def _handle_experiment(
        self, req: ExperimentRequest, rid: str = ""
    ) -> Tuple[int, bytes, Dict[str, str], Dict[str, str]]:
        t0 = time.perf_counter()
        key = req.content_key()
        served = "warm"
        text = self._load_warm(req, key)
        status = 200
        info = {"experiment": req.experiment, "scale": req.scale.value}
        if text is None:
            task = self._inflight.get(key)
            if task is not None:
                served = "coalesced"
                ok, text = await asyncio.shield(task)
                status = 200 if ok else 500
            elif len(self._inflight) >= self.queue_limit:
                self.stats.rejected += 1
                telemetry.count("service.rejected")
                info["served"] = "rejected"
                return 429, _dumps({
                    "error": "cold-execution queue is full",
                    "inflight": len(self._inflight),
                    "retry_after_s": 1,
                }), {"Retry-After": "1"}, info
            else:
                served = "cold"
                task = asyncio.get_running_loop().create_task(
                    self._run_cold(req, key, rid)
                )
                self._inflight[key] = task
                ok, text = await asyncio.shield(task)
                status = 200 if ok else 500
        dur = time.perf_counter() - t0
        self._account(served, status, dur)
        telemetry.count(f"service.{served}")
        info["served"] = served if status < 500 else "error"
        # Post-hoc span: open/close with no await in between (the
        # registry is LIFO; see module docstring) — latency rides as
        # an attribute.
        with telemetry.span(
            "service.request", experiment=req.experiment,
            scale=req.scale.value, served=served, status=status,
            latency_ms=round(dur * 1e3, 3), request_id=rid,
        ):
            pass
        return status, text.encode("utf-8"), {
            "X-Repro-Served": served,
            "X-Repro-Key": key,
        }, info

    def _account(self, served: str, status: int, dur: float) -> None:
        # The latency histogram families mirror the class counters
        # sample for sample: each family's `_count` in /v1/metrics
        # equals the matching /v1/stats integer, by construction.
        if status >= 500:
            self.stats.errors += 1
            telemetry.count("service.errors")
            self.obs.observe_served("error", dur)
            return
        if served == "warm":
            self.stats.warm += 1
            self.stats.warm_seconds += dur
        elif served == "cold":
            self.stats.cold += 1
            self.stats.cold_seconds += dur
        else:
            self.stats.coalesced += 1
        self.obs.observe_served(served, dur)

    def _load_warm(self, req: ExperimentRequest, key: str) -> Optional[str]:
        """Stored canonical response bytes, or None.  Lock-free."""
        if not self.cache_dir:
            return None
        from repro.core.artifacts import ArtifactCache

        return ArtifactCache(self.cache_dir).get_json(
            RESPONSE_KIND, req.experiment, req.scale, key
        )

    async def _run_cold(self, req: ExperimentRequest, key: str,
                        rid: str = "") -> Tuple[bool, str]:
        """One pooled execution; owns the inflight-map entry for key.

        Runs as its own task so a disconnecting leader client cannot
        cancel work that coalesced followers are waiting on.  Never
        raises: pool-level failures (a worker OOM-killed, a broken
        pool) become well-formed error responses.

        The leader's request id rides into the worker; whatever deltas
        come home (pre-bucketed histograms, counters, the span tree)
        are merged here, and a slow execution persists its stitched
        trace as an exemplar before followers are released.
        """
        t0 = time.perf_counter()
        try:
            loop = asyncio.get_running_loop()
            extras: Optional[Dict[str, Any]] = None
            try:
                ok, text, extras = await loop.run_in_executor(
                    self._pool, self._execute_fn, req.to_json(),
                    self.cache_dir, self.registry_dir, rid,
                )
            except Exception as exc:  # noqa: BLE001 — pool edge
                from repro.api import ExperimentResponse

                ok = False
                text = ExperimentResponse.failure(
                    req, f"execution failed: {type(exc).__name__}: {exc}"
                ).to_json()
            dur = time.perf_counter() - t0
            self.obs.merge_worker(extras)
            if extras is not None and dur >= self.obs.slow_request_s:
                run_id = ""
                with contextlib.suppress(ValueError, AttributeError):
                    run_id = json.loads(text).get("run_id", "")
                self.obs.maybe_exemplar(
                    rid, req.experiment, req.scale.value, "cold",
                    200 if ok else 500, dur, extras.get("spans"),
                    run_id=run_id,
                )
            return ok, text
        finally:
            self._inflight.pop(key, None)


def _dumps(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


@contextlib.contextmanager
def spawn_service(**kwargs) -> Iterator[ExperimentService]:
    """Run a service on a daemon thread; yields the (started) service.

    The building block for tests, benchmarks, and ``runner bench
    --spawn``: the caller gets a fully-started
    :class:`ExperimentService` (inspect ``.host``/``.port``/``.stats``)
    and the service is stopped — its loop unwound, pool shut down —
    when the ``with`` block exits, whatever happened inside.
    """
    service = ExperimentService(**kwargs)
    ready = threading.Event()
    failures: list = []

    async def _amain() -> None:
        await service.start()
        ready.set()
        try:
            await service._stop.wait()
        finally:
            await service.stop()

    def _thread() -> None:
        try:
            asyncio.run(_amain())
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            failures.append(exc)
            ready.set()

    thread = threading.Thread(
        target=_thread, name="repro-service", daemon=True
    )
    thread.start()
    if not ready.wait(timeout=30.0):
        raise RuntimeError("service failed to start within 30s")
    if failures:
        raise failures[0]
    try:
        yield service
    finally:
        if service._loop is not None and not failures:
            try:
                service._loop.call_soon_threadsafe(service.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        thread.join(timeout=30.0)


def serve(
    slo: Optional[str] = None,
    baseline: Optional[str] = None,
    save_baseline: Optional[str] = None,
    **service_kwargs: Any,
) -> int:
    """Blocking entry point: run the daemon until SIGINT/SIGTERM.

    ``service_kwargs`` construct the :class:`ExperimentService`.
    Returns a process exit code: 0 on clean shutdown with all gates
    green; 1 when a declared ``--slo`` objective or a ``--baseline``
    drift comparison fails over the traffic this lifetime served; 2
    when the baseline cannot be read.  ``save_baseline`` writes this
    lifetime's ``service`` run record for future gating.
    """
    service = ExperimentService(**service_kwargs)
    try:
        asyncio.run(service.run_until_stopped())
    except KeyboardInterrupt:
        pass  # loops without add_signal_handler support
    return gate_service_run(
        service, slo=slo, baseline=baseline, save_baseline=save_baseline
    )


def gate_service_run(
    service: ExperimentService,
    slo: Optional[str] = None,
    baseline: Optional[str] = None,
    save_baseline: Optional[str] = None,
    out=None,
) -> int:
    """Post-lifetime gating: SLO objectives + baseline drift.

    Split from :func:`serve` so tests (and ``spawn_service`` users) can
    gate an in-process service without owning the blocking loop.  The
    service must already be stopped; its stats and histograms are
    final.  The lifetime becomes one ``service``
    :class:`~repro.fidelity.registry.RunRecord`: archived in the
    registry whenever one is configured (a failed save is reported,
    not raised), written to ``save_baseline``, and compared against the
    ``baseline`` record, a path or a registry run id.
    """
    from repro.fidelity.registry import RunRecord, RunRegistry
    from repro.service.slo import check_slo, parse_slo_spec

    out = sys.stderr if out is None else out
    snapshot = service.stats.snapshot()
    metrics = service.obs.service_metrics(snapshot)
    record = RunRecord(
        kind="service", scale="service", experiments=["service"],
        metrics=metrics,
        meta={"snapshot": snapshot,
              "access_log": service.obs.access_log_path or ""},
    ).stamp()
    if service.registry_dir and snapshot["requests"]:
        try:
            path = RunRegistry(service.registry_dir).save(record)
        except OSError as exc:
            print(f"[registry] error: {exc}", file=out, flush=True)
        else:
            print(f"[serve] service record -> {path}", file=out,
                  flush=True)
    if save_baseline:
        target = pathlib.Path(save_baseline)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(record.to_json(), encoding="utf-8")
        print(f"[serve] baseline saved -> {target}", file=out, flush=True)
    exit_code = 0
    if slo:
        report = check_slo(metrics, parse_slo_spec(slo))
        print(report.to_table().render(), file=out, flush=True)
        print(report.summary_line(), file=out, flush=True)
        exit_code = max(exit_code, report.exit_code)
    if baseline:
        from repro.fidelity.drift import check_drift

        try:
            base = RunRegistry(
                service.registry_dir or DEFAULT_REGISTRY_DIR
            ).load(baseline)
        except (OSError, ValueError) as exc:
            print(f"[drift] error: {exc}", file=out, flush=True)
            return 2
        report = check_drift(
            metrics, base.metrics,
            baseline_label=f"{base.kind}-{base.run_id}", scale="service",
            experiments=["service"],
        )
        print(report.to_table().render(), file=out, flush=True)
        print(report.summary_line(), file=out, flush=True)
        exit_code = max(exit_code, report.exit_code)
    return exit_code
