"""End-to-end observability of the experiment service (ISSUE 9).

Covers the acceptance criteria:

- a cold request yields a registry-linked span-tree exemplar whose
  root is the service request id and whose leaves are the worker's
  kernel-launch spans;
- ``/v1/metrics`` latency-histogram ``_count`` totals exactly match
  ``/v1/stats`` request counts;
- access log and final scrape agree on totals across an idempotent
  ``/v1/shutdown`` teardown;
- the SLO gate passes a healthy workload and exits nonzero on an
  injected regression (in-process and through the real CLI);
- client retry policy honours Retry-After with capped backoff and the
  load generator reports retry counts;
- ``runner watch`` renders a dashboard from a live scrape.
"""

import io
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
from repro.fidelity.registry import RunRecord, RunRegistry
from repro.service import (
    RetryPolicy,
    ServiceClient,
    gate_service_run,
    run_load,
    spawn_service,
)
from repro.service.slo import check_slo, parse_slo_spec
from repro.telemetry.metrics import (
    exposition_value,
    histogram_buckets,
    parse_prometheus,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning"
)


def _slow_execute(request_json, cache_dir, registry_dir, rid):
    """Fake without worker extras: holds the cold slot long enough to
    observe."""
    req = ExperimentRequest.from_json(request_json)
    time.sleep(0.6)
    resp = ExperimentResponse(
        req.experiment, req.scale, rendered="canned",
        request_key=req.content_key(),
    )
    return True, resp.to_json(), None


# ----------------------------------------------------------------------
# /v1/metrics exposition vs /v1/stats accounting
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_histogram_counts_match_stats_exactly(self, tmp_path):
        req = ExperimentRequest("table1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            registry_dir="",
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                client.submit(req)            # cold
                client.submit(req)            # warm
                client.submit(req)            # warm
                stats = client.stats()
                parsed = parse_prometheus(client.metrics_text())

        def count(served):
            return exposition_value(
                parsed, "repro_service_request_latency_seconds_count",
                served=served,
            )

        # The latency families' _count totals ARE the stats integers.
        assert count("warm") == stats["warm"] == 2
        assert count("cold") == stats["cold"] == 1
        # Outcome counters were synced from the same snapshot source.
        assert exposition_value(
            parsed, "repro_service_responses_total", outcome="warm"
        ) == stats["warm"]
        # The scrape request itself is the only arrival after the
        # stats snapshot, and it is counted before rendering.
        assert exposition_value(
            parsed, "repro_service_requests_total"
        ) == stats["requests"] + 1
        # Gauges carry live queue state and derived rates.
        assert exposition_value(
            parsed, "repro_service_queue_limit"
        ) == service.queue_limit
        assert exposition_value(
            parsed, "repro_service_warm_hit_rate"
        ) == pytest.approx(2 / 3, abs=1e-3)
        # Worker deltas crossed the pool boundary and were merged.
        assert exposition_value(
            parsed, "repro_worker_experiment_seconds_count",
            experiment="table1", scale="tiny",
        ) == 1.0

    def test_stats_exposes_inflight_and_per_route(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        req = ExperimentRequest("fig1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, queue_limit=4, cache_dir=str(cache),
            registry_dir="", execute_fn=_slow_execute,
        ) as service:
            done = []

            def leader():
                with ServiceClient(service.host, service.port) as c:
                    done.append(c.submit(req))

            t = threading.Thread(target=leader)
            t.start()
            # Poll until the cold execution occupies the queue slot.
            with ServiceClient(service.host, service.port) as client:
                deadline = time.monotonic() + 10
                stats = client.stats()
                while (stats.get("inflight", 0) == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                    stats = client.stats()
                assert stats["inflight"] == 1
                t.join()
                final = client.stats()
        assert done and done[0].ok
        assert final["inflight"] == 0
        assert final["per_route"]["/v1/experiment"] == 1
        assert final["per_route"]["/v1/stats"] >= 2

    def test_unknown_paths_collapse_to_other_route(self, tmp_path):
        with spawn_service(
            port=0, workers=1, cache_dir="", registry_dir="",
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                client._request("GET", "/not/a/route")
                client._request("GET", "/also%20bogus")
                stats = client.stats()
        assert stats["per_route"]["other"] == 2


# ----------------------------------------------------------------------
# Request-id propagation + slow-request exemplars (span stitching)
# ----------------------------------------------------------------------
class TestRequestTracing:
    def test_every_response_carries_a_unique_request_id(self, tmp_path):
        with spawn_service(
            port=0, workers=1, cache_dir="", registry_dir="",
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                rids = [client._request("GET", "/healthz").request_id
                        for _ in range(3)]
        assert all(rids)
        assert len(set(rids)) == 3

    def test_cold_request_persists_stitched_span_tree(self, tmp_path):
        """Acceptance: exemplar root = service request id, leaves =
        worker kernel-launch spans (fig3 runs real GPU workloads)."""
        from repro.core import features

        registry = tmp_path / "registry"
        req = ExperimentRequest("fig3", SimScale.TINY)
        # The forked worker inherits this process's memoized traces; a
        # memo hit would run no workload and emit no workload span.
        features.clear_caches()
        with spawn_service(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            registry_dir=str(registry), slow_request_s=0.0,
        ) as service:
            with ServiceClient(
                service.host, service.port, timeout=600
            ) as client:
                cold = client.submit(req)
        assert cold.ok and cold.served == "cold"
        assert cold.request_id
        exemplars = list(registry.glob("exemplar-*.json"))
        assert len(exemplars) == 1
        doc = json.loads(exemplars[0].read_text(encoding="utf-8"))
        # Registry-linked: the document names the run record the
        # worker persisted, and that record exists beside it.
        assert doc["request_id"] == cold.request_id
        assert doc["root"]["id"] == cold.request_id
        assert doc["experiment"] == "fig3" and doc["scale"] == "tiny"
        if doc["run_id"]:
            assert list(registry.glob(f"*-{doc['run_id']}.json"))
        opens = [e for e in doc["spans"] if e["ev"] == "span_open"]
        names = {e["name"] for e in opens}
        # Root of the worker tree is re-parented under the request id...
        roots = [e for e in opens if e["parent"] == cold.request_id]
        assert roots and roots[0]["name"] == "service.execute"
        # ...and the tree bottoms out in kernel-launch leaves.
        assert "experiment" in names
        assert "workload" in names
        assert "kernel_launch" in names
        # Parentage is internally consistent: every non-root span's
        # parent is another span in the same document.
        ids = {e["id"] for e in opens} | {cold.request_id}
        assert all(e["parent"] in ids for e in opens)

    def test_fast_requests_do_not_write_exemplars(self, tmp_path):
        registry = tmp_path / "registry"
        req = ExperimentRequest("table1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            registry_dir=str(registry), slow_request_s=3600.0,
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                assert client.submit(req).ok
        assert not list(registry.glob("exemplar-*.json"))


# ----------------------------------------------------------------------
# Access log + idempotent teardown
# ----------------------------------------------------------------------
class TestAccessLogTeardown:
    def test_access_log_agrees_with_final_state(self, tmp_path):
        log = tmp_path / "access.jsonl"
        req = ExperimentRequest("table1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            registry_dir="", access_log=str(log),
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                client.submit(req)
                client.submit(req)
                client.stats()
                client.metrics_text()
                client.shutdown()
        # Teardown flushed before closing: one line per request the
        # service ever accounted, shutdown round included.
        lines = [json.loads(l) for l in
                 log.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == service.stats.requests
        assert service.obs.access_lines == len(lines)
        assert service.obs.dropped_access_lines == 0
        by_route = {}
        for line in lines:
            by_route[line["route"]] = by_route.get(line["route"], 0) + 1
        assert by_route == service.stats.per_route
        # Every line is one complete structured record.
        for line in lines:
            assert line["rid"] and line["status"] in (200, 429, 400)
            assert line["latency_ms"] >= 0.0
        served = [l.get("served") for l in lines
                  if l["route"] == "/v1/experiment"]
        assert sorted(served) == ["cold", "warm"]
        # Idempotent: closing again (directly or via another stop) is
        # a no-op, not a crash or a duplicate flush.
        service.obs.close()
        service.obs.close()
        assert len(log.read_text(encoding="utf-8").splitlines()) == \
            len(lines)

    def test_scrape_totals_match_access_log(self, tmp_path):
        log = tmp_path / "access.jsonl"
        req = ExperimentRequest("table1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            registry_dir="", access_log=str(log),
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                client.submit(req)
                client.submit(req)
                text = client.metrics_text()
                client.shutdown()
        parsed = parse_prometheus(text)
        lines = log.read_text(encoding="utf-8").splitlines()
        # The scrape reported every access line written before it; the
        # lines after it are exactly the scrape itself + the shutdown.
        assert exposition_value(
            parsed, "repro_service_access_log_lines_total"
        ) == len(lines) - 2


# ----------------------------------------------------------------------
# SLO gating
# ----------------------------------------------------------------------
class TestSloGate:
    def _run_traffic(self, tmp_path, n_warm=3):
        req = ExperimentRequest("table1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            registry_dir=str(tmp_path / "registry"),
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                for _ in range(1 + n_warm):
                    assert client.submit(req).ok
        return service

    def test_parse_slo_spec_validation(self):
        objs = parse_slo_spec("warm_p99_ms=50, error_rate=0.01")
        assert [o.metric for o in objs] == [
            "service/warm_p99_ms", "service/error_rate"
        ]
        assert objs[0].ceiling == 50.0
        with pytest.raises(ValueError, match="unknown SLO name"):
            parse_slo_spec("bogus_metric=1")
        with pytest.raises(ValueError, match="not a number"):
            parse_slo_spec("warm_p99_ms=fast")
        with pytest.raises(ValueError, match="name=ceiling"):
            parse_slo_spec("warm_p99_ms")

    def test_missing_metric_fails_the_gate(self):
        report = check_slo({}, parse_slo_spec("warm_p99_ms=50"))
        assert not report.ok
        assert report.entries[0].status == "missing"

    def test_gate_passes_then_fails_on_injected_regression(
        self, tmp_path, capsys
    ):
        service = self._run_traffic(tmp_path)
        # Healthy ceilings: green, and the lifetime is archived.
        assert gate_service_run(
            service, slo="warm_p99_ms=60000,error_rate=0.0"
        ) == 0
        assert list((tmp_path / "registry").glob("service-*.json"))
        # Injected regression: an absurd ceiling trips the same gate.
        assert gate_service_run(service, slo="warm_p99_ms=0.0001") == 1
        out = capsys.readouterr().err
        assert "service/warm_p99_ms" in out and "fail" in out

    def test_baseline_roundtrip_and_drift_failure(self, tmp_path):
        service = self._run_traffic(tmp_path)
        base_path = tmp_path / "baseline.json"
        # --save-baseline writes the lifetime's service run record...
        assert gate_service_run(service, save_baseline=str(base_path)) == 0
        record = RunRecord.from_json(base_path.read_text(encoding="utf-8"))
        assert record.kind == "service"
        assert record.metrics == service.obs.service_metrics(
            service.stats.snapshot()
        )
        # ...and --baseline by path gates against it: zero drift.
        assert gate_service_run(service, baseline=str(base_path)) == 0
        # Inject a latency regression into the comparison by shrinking
        # the baseline's latency expectations far below what was
        # actually measured.
        record.metrics = {
            k: (v / 1e4 if k.endswith("_ms") else v)
            for k, v in record.metrics.items()
        }
        tampered_path = tmp_path / "tampered.json"
        tampered_path.write_text(record.stamp().to_json(), encoding="utf-8")
        assert gate_service_run(
            service, baseline=str(tampered_path)
        ) == 1

    def test_baseline_loads_service_run_records(self, tmp_path):
        service = self._run_traffic(tmp_path)
        assert gate_service_run(service) == 0
        [record] = RunRegistry(tmp_path / "registry").records("service")
        assert record.metrics["service/requests"] >= 4
        # A registry run id resolves the way `run --baseline` does.
        assert gate_service_run(service, baseline=record.run_id) == 0

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        service = self._run_traffic(tmp_path, n_warm=0)
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "v": 1, "kind": "service-baseline",
            "metrics": {"service/requests": 1.0},
        }))
        assert gate_service_run(service, baseline=str(old)) == 2
        assert gate_service_run(service, baseline="0123456789abcdef") == 2
        err = capsys.readouterr().err
        assert err.count("[drift] error: ") == 2
        assert "incomplete run record" in err


# ----------------------------------------------------------------------
# Client retry policy + load-generator reporting
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_schedule_caps_and_honors_retry_after(self):
        p = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0)
        assert p.delay(0) == pytest.approx(0.1)
        assert p.delay(1) == pytest.approx(0.2)
        assert p.delay(10) == 1.0                    # capped
        assert p.delay(0, retry_after=3.0) == 3.0    # server wins
        assert p.delay(10, retry_after=0.5) == 1.0   # longer side wins

    def test_client_retries_through_backpressure(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        first = ExperimentRequest("fig1", SimScale.TINY)
        second = ExperimentRequest("fig2", SimScale.TINY)
        policy = RetryPolicy(attempts=50, base_delay_s=0.05,
                             max_delay_s=0.2, max_wait_s=30.0)
        with spawn_service(
            port=0, workers=1, queue_limit=1, cache_dir=str(cache),
            registry_dir="", execute_fn=_slow_execute,
        ) as service:
            done = []

            def leader():
                with ServiceClient(service.host, service.port) as c:
                    done.append(c.submit(first))

            t = threading.Thread(target=leader)
            t.start()
            deadline = time.monotonic() + 10
            probe = ServiceClient(service.host, service.port)
            while (probe.stats().get("inflight", 0) == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            retrying = ServiceClient(service.host, service.port,
                                     retry=policy)
            reply = retrying.submit(second)
            t.join()
            probe.close()
            retrying.close()
        assert reply.ok
        assert reply.retries >= 1
        assert retrying.retries_total == reply.retries

    def test_without_policy_429_surfaces(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        first = ExperimentRequest("fig1", SimScale.TINY)
        second = ExperimentRequest("fig2", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, queue_limit=1, cache_dir=str(cache),
            registry_dir="", execute_fn=_slow_execute,
        ) as service:
            done = []

            def leader():
                with ServiceClient(service.host, service.port) as c:
                    done.append(c.submit(first))

            t = threading.Thread(target=leader)
            t.start()
            with ServiceClient(service.host, service.port) as client:
                deadline = time.monotonic() + 10
                while (client.stats().get("inflight", 0) == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                bare = client.submit(second)
            t.join()
        assert bare.status == 429 and bare.retries == 0

    def test_load_report_counts_retries(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        requests = [ExperimentRequest(exp, SimScale.TINY)
                    for exp in ("fig1", "fig2", "fig3", "fig9")]
        with spawn_service(
            port=0, workers=1, queue_limit=1, cache_dir=str(cache),
            registry_dir="", execute_fn=_slow_execute,
        ) as service:
            report = run_load(
                service.host, service.port, requests, clients=4,
                retry=RetryPolicy(attempts=100, base_delay_s=0.05,
                                  max_delay_s=0.2, max_wait_s=60.0),
            )
        assert report.errors == 0
        assert all(r.ok for r in report.replies)
        # 4 distinct cold requests through a queue of 1: someone waited.
        assert report.retries >= 1
        assert report.summary()["retries"] == float(report.retries)


# ----------------------------------------------------------------------
# runner watch dashboard
# ----------------------------------------------------------------------
class TestWatch:
    def test_sparkline_rendering(self):
        from repro.service.watch import SPARK, sparkline

        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == SPARK[0] * 3
        strip = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(strip) == 4
        assert strip[0] == SPARK[0] and strip[-1] == SPARK[-1]
        assert len(sparkline(list(range(100)), width=30)) == 30

    def test_watch_renders_live_service(self, tmp_path):
        from repro.service.watch import watch

        req = ExperimentRequest("table1", SimScale.TINY)
        with spawn_service(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            registry_dir="",
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                client.submit(req)
                client.submit(req)
            buf = io.StringIO()
            rc = watch(service.host, service.port, interval_s=0.05,
                       iterations=2, clear=False, out=buf)
        frame = buf.getvalue()
        assert rc == 0
        assert "Latency by served class" in frame
        assert "Requests by route" in frame
        assert "/v1/experiment" in frame
        assert "warm" in frame and "cold" in frame

    def test_watch_unreachable_service_exits_nonzero(self):
        from repro.service.watch import watch

        rc = watch("127.0.0.1", 1, interval_s=0.01, iterations=1,
                   clear=False, out=io.StringIO())
        assert rc == 1


# ----------------------------------------------------------------------
# The real CLI, end to end (the CI service-smoke target)
# ----------------------------------------------------------------------
class TestCliSmoke:
    def _serve(self, tmp_path, *extra_args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "serve",
             "--port", "0", "--workers", "1",
             "--registry", str(tmp_path / "registry"), *extra_args],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        banner = proc.stderr.readline()
        match = re.search(r"listening on http://([\d.]+):(\d+)", banner)
        assert match, f"no banner, got: {banner!r}"
        return proc, match.group(1), int(match.group(2))

    def _drive_and_stop(self, proc, host, port):
        with ServiceClient(host, port, timeout=120) as client:
            client.wait_ready(budget_s=30)
            req = ExperimentRequest("table1", SimScale.TINY)
            assert client.submit(req).ok
            assert client.submit(req).served == "warm"
            text = client.metrics_text()
            assert client.shutdown()["stopping"] is True
        code = proc.wait(timeout=60)
        return code, text

    def test_smoke_slo_gate_passes_on_warm_workload(self, tmp_path):
        proc, host, port = self._serve(
            tmp_path, "--slo", "warm_p99_ms=60000,error_rate=0.0",
            "--access-log", str(tmp_path / "access.jsonl"),
            "--save-baseline", str(tmp_path / "base.json"),
        )
        try:
            code, text = self._drive_and_stop(proc, host, port)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert code == 0
        parsed = parse_prometheus(text)
        buckets = histogram_buckets(
            parsed, "repro_service_request_latency_seconds",
            served="warm",
        )
        assert buckets and buckets[-1][1] == 1
        assert (tmp_path / "access.jsonl").exists()
        base = RunRecord.from_json(
            (tmp_path / "base.json").read_text(encoding="utf-8")
        )
        assert base.kind == "service"
        assert base.metrics["service/warm_count"] == 1.0

    def test_smoke_slo_tamper_fails_nonzero(self, tmp_path):
        proc, host, port = self._serve(
            tmp_path, "--slo", "warm_p99_ms=0.0001",
        )
        try:
            code, _ = self._drive_and_stop(proc, host, port)
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert code == 1
        assert "FAIL" in stderr

    def test_bad_slo_spec_is_a_usage_error(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "serve",
             "--port", "0", "--slo", "warm_p99_ms=abc"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "not a number" in proc.stderr
