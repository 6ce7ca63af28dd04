"""The experiment service daemon: warm/cold/coalesced/backpressure.

Most tests run the service in-process via ``spawn_service`` with an
injected ``execute_fn`` (a real ``ProcessPoolExecutor`` underneath, so
the fakes must be module-level and picklable).  One end-to-end test
drives the real subprocess daemon (``runner serve``) — that is the
test the CI service-smoke job targets (``-k smoke``).
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import ExperimentRequest, ExperimentResponse
from repro.common.config import SimScale
from repro.service import ServiceClient, spawn_service
from repro.service.server import RESPONSE_KIND


# ----------------------------------------------------------------------
# Injectable cold executors (must be module-level: the pool pickles them)
# ----------------------------------------------------------------------
def _slow_marker_execute(request_json, cache_dir, registry_dir, rid):
    """Drop a unique marker per *execution*, sleep, answer canned."""
    req = ExperimentRequest.from_json(request_json)
    marker = Path(cache_dir) / f"exec-{os.getpid()}-{time.time_ns()}.marker"
    marker.write_text(request_json, encoding="utf-8")
    time.sleep(0.75)
    resp = ExperimentResponse(
        req.experiment, req.scale, rendered="canned",
        request_key=req.content_key(),
    )
    return True, resp.to_json(), None


def _failing_execute(request_json, cache_dir, registry_dir, rid):
    req = ExperimentRequest.from_json(request_json)
    failure = ExperimentResponse.failure(req, "injected failure")
    return False, failure.to_json(), None


def _markers(cache_dir) -> list:
    return sorted(Path(cache_dir).glob("exec-*.marker"))


# ----------------------------------------------------------------------
# In-process service
# ----------------------------------------------------------------------
class TestWarmPath:
    def test_cold_then_warm_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        registry = tmp_path / "registry"
        req = ExperimentRequest("table1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, queue_limit=4,
            cache_dir=str(cache), registry_dir=str(registry),
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                first = client.submit(req)
                second = client.submit(req)
            snap = service.stats.snapshot()
        assert first.ok and first.served == "cold"
        assert second.ok and second.served == "warm"
        # The acceptance bar: the warm payload is the cold payload.
        assert second.text == first.text
        resp = second.response()
        assert resp.ok and resp.rendered.startswith("Table I")
        assert resp.request_key == req.content_key()
        # Durable on disk under the response kind, canonical bytes.
        stored = list(cache.glob(f"{RESPONSE_KIND}-*.json"))
        assert len(stored) == 1
        assert stored[0].read_text(encoding="utf-8") == first.text
        # The worker recorded the run in the registry like any local run.
        assert list(registry.glob("experiment-*.json"))
        assert snap["cold"] == 1 and snap["warm"] == 1
        assert snap["warm_hit_rate"] == 0.5

    def test_warm_survives_service_restart(self, tmp_path):
        cache = tmp_path / "cache"
        req = ExperimentRequest("table1", SimScale.TINY)
        kwargs = dict(port=0, workers=1, cache_dir=str(cache),
                      registry_dir="")
        with spawn_service(**kwargs) as service:
            with ServiceClient(service.host, service.port) as client:
                cold = client.submit(req)
        with spawn_service(**kwargs) as service:
            with ServiceClient(service.host, service.port) as client:
                warm = client.submit(req)
        assert cold.served == "cold" and warm.served == "warm"
        assert warm.text == cold.text


class TestCoalescing:
    def test_identical_concurrent_requests_execute_once(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        req = ExperimentRequest("fig1", SimScale.TINY)
        n = 5
        replies = []
        lock = threading.Lock()
        with spawn_service(
            port=0, workers=2, queue_limit=8, cache_dir=str(cache),
            registry_dir="", execute_fn=_slow_marker_execute,
        ) as service:

            def one():
                with ServiceClient(service.host, service.port) as client:
                    reply = client.submit(req)
                with lock:
                    replies.append(reply)

            threads = [threading.Thread(target=one) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snap = service.stats.snapshot()
        # M identical concurrent cold requests -> exactly one execution.
        assert len(_markers(cache)) == 1
        assert all(r.ok for r in replies)
        served = sorted(r.served for r in replies)
        assert served.count("cold") == 1
        assert served.count("coalesced") == n - 1
        # ... and M identical responses.
        assert len({r.text for r in replies}) == 1
        assert snap["coalesced"] == n - 1
        assert snap["coalescing_ratio"] == pytest.approx(
            (n - 1) / n, abs=1e-4
        )

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        reqs = [ExperimentRequest("fig1", SimScale.TINY),
                ExperimentRequest("fig1", SimScale.SMALL)]
        with spawn_service(
            port=0, workers=2, queue_limit=8, cache_dir=str(cache),
            registry_dir="", execute_fn=_slow_marker_execute,
        ) as service:
            threads = []
            for req in reqs:
                def one(r=req):
                    with ServiceClient(service.host, service.port) as c:
                        assert c.submit(r).ok
                threads.append(threading.Thread(target=one))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(_markers(cache)) == 2


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        first = ExperimentRequest("fig1", SimScale.TINY)
        second = ExperimentRequest("fig2", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, queue_limit=1, cache_dir=str(cache),
            registry_dir="", execute_fn=_slow_marker_execute,
        ) as service:
            done = []
            def leader():
                with ServiceClient(service.host, service.port) as c:
                    done.append(c.submit(first))
            t = threading.Thread(target=leader)
            t.start()
            # The first execution has provably started once its marker
            # lands, so the inflight slot is taken.
            deadline = time.monotonic() + 10
            while not _markers(cache) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _markers(cache), "leader execution never started"
            with ServiceClient(service.host, service.port) as client:
                rejected = client.submit(second)
                assert rejected.status == 429
                assert rejected.retry_after == 1.0
                assert "queue" in rejected.json()["error"]
                # Honouring Retry-After eventually gets an answer.
                retried = client.submit_retrying(second, max_wait_s=30)
            t.join()
            snap = service.stats.snapshot()
        assert retried.ok and retried.served == "cold"
        assert done and done[0].ok
        assert snap["rejected"] >= 1


class TestErrorPaths:
    def test_execution_failure_is_500_and_not_cached(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        req = ExperimentRequest("fig1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, queue_limit=4, cache_dir=str(cache),
            registry_dir="", execute_fn=_failing_execute,
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                first = client.submit(req)
                second = client.submit(req)
            snap = service.stats.snapshot()
        assert first.status == 500
        resp = first.response()
        assert not resp.ok and resp.error == "injected failure"
        # Failures never enter the warm store: the retry is cold again.
        assert second.status == 500 and second.served == "cold"
        assert not list(cache.glob(f"{RESPONSE_KIND}-*.json"))
        assert snap["errors"] == 2

    def test_malformed_and_unknown_requests_are_400(self, tmp_path):
        with spawn_service(
            port=0, workers=1, cache_dir="", registry_dir="",
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                bad_json = client._request("POST", "/v1/experiment",
                                           "{not json")
                unknown = client._request(
                    "POST", "/v1/experiment",
                    json.dumps({"schema_version": 1, "experiment": "fig99"}),
                )
                bad_schema = client._request(
                    "POST", "/v1/experiment",
                    json.dumps({"schema_version": 99,
                                "experiment": "fig1"}),
                )
                missing = client._request("GET", "/v1/nope")
            snap = service.stats.snapshot()
        assert bad_json.status == 400
        assert unknown.status == 400 and "fig99" in unknown.json()["error"]
        assert bad_schema.status == 400
        assert "schema_version" in bad_schema.json()["error"]
        assert missing.status == 404
        assert "routes" in missing.json()
        assert snap["bad_requests"] == 3


class TestIntrospection:
    def test_health_stats_and_experiment_listing(self, tmp_path):
        with spawn_service(
            port=0, workers=1, cache_dir="", registry_dir="",
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                health = client.health()
                listing = client.experiments()
                stats = client.stats()
        assert health["ok"] is True
        assert health["queue_limit"] == service.queue_limit
        assert "report" in listing["experiments"]
        assert "table1" in listing["experiments"]
        assert set(listing["scales"]) == {s.value for s in SimScale}
        assert stats["requests"] >= 2


# ----------------------------------------------------------------------
# The real daemon, end to end (the CI service-smoke target)
# ----------------------------------------------------------------------
class TestDaemonSmoke:
    def test_daemon_smoke_cold_warm_shutdown(self, tmp_path):
        """Start ``runner serve``, go cold, re-issue warm, shut down."""
        cache = tmp_path / "cache"
        registry = tmp_path / "registry"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        env["REPRO_CACHE_DIR"] = str(cache)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "serve",
             "--port", "0", "--workers", "1",
             "--registry", str(registry)],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"listening on http://([\d.]+):(\d+)", banner)
            assert match, f"no banner, got: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            with ServiceClient(host, port, timeout=120) as client:
                client.wait_ready(budget_s=30)
                req = ExperimentRequest("table1", SimScale.TINY)
                cold = client.submit(req)
                assert cold.ok and cold.served == "cold"
                warm = client.submit(req)
                assert warm.ok and warm.served == "warm"
                assert warm.text == cold.text
                assert client.stats()["warm"] == 1
                assert client.shutdown()["stopping"] is True
            code = proc.wait(timeout=30)
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert code == 0
        assert "[serve] stopped" in stderr
        assert list(cache.glob(f"{RESPONSE_KIND}-*.json"))
        assert list(registry.glob("experiment-*.json"))
