"""Load benchmark of the experiment service (:mod:`repro.service`).

The service exists to amortize cold experiment executions: a warm hit
is a cache read plus HTTP framing, so it must be dramatically cheaper
than the execution it replaces, and M identical concurrent cold
requests must cost exactly one execution (coalescing).  Both claims
are asserted here with the shared load generator
(:func:`repro.service.run_load`) so their trajectory lands in
``perf-history.jsonl``:

- ``test_warm_vs_cold_speedup`` — warm p50 must be >= 50x faster than
  the cold execution it short-circuits, at SMALL scale.
- ``test_coalescing_collapses_identical_cold_requests`` — N identical
  concurrent cold requests -> one execution, N identical payloads.
- ``test_observability_overhead_on_warm_path`` — the per-request
  observability work (request id, metrics samples, access-log line)
  must stay under 3% of the measured warm p50.
"""

import time

from repro.api import ExperimentRequest
from repro.common.config import SimScale
from repro.service import ServiceClient, run_load, spawn_service
from repro.service.client import percentile

#: The SMALL-scale experiment the acceptance bar is measured on.
_EXPERIMENT = "table1"
_WARM_REQUESTS = 48
_WARM_CLIENTS = 4
_COALESCE_CLIENTS = 6


def test_warm_vs_cold_speedup(scale, tmp_path):
    req = ExperimentRequest(_EXPERIMENT, SimScale.SMALL)
    with spawn_service(
        port=0, workers=1, queue_limit=8,
        cache_dir=str(tmp_path / "cache"), registry_dir="",
    ) as service:
        with ServiceClient(service.host, service.port) as client:
            cold = client.submit(req)
        assert cold.ok and cold.served == "cold"
        report = run_load(
            service.host, service.port,
            [req] * _WARM_REQUESTS, clients=_WARM_CLIENTS,
        )
    assert report.errors == 0
    warm = report.by_served("warm")
    assert len(warm) == _WARM_REQUESTS  # every repeat hit the cache
    warm_p50 = percentile(warm, 50)
    warm_p99 = percentile(warm, 99)
    speedup = cold.latency_s / warm_p50
    print(
        f"\n[{_EXPERIMENT}@small] cold {cold.latency_s * 1e3:.1f} ms, "
        f"warm p50 {warm_p50 * 1e3:.2f} ms / p99 {warm_p99 * 1e3:.2f} ms "
        f"({_WARM_CLIENTS} clients): {speedup:.0f}x"
    )
    print(report.table().render())
    assert speedup >= 50.0, (
        f"warm hits only {speedup:.1f}x faster than cold "
        f"({warm_p50 * 1e3:.2f} ms vs {cold.latency_s * 1e3:.1f} ms)"
    )


def test_coalescing_collapses_identical_cold_requests(scale, tmp_path):
    req = ExperimentRequest(_EXPERIMENT, SimScale.SMALL)
    registry = tmp_path / "registry"
    with spawn_service(
        port=0, workers=2, queue_limit=8,
        cache_dir=str(tmp_path / "cache"), registry_dir=str(registry),
    ) as service:
        report = run_load(
            service.host, service.port,
            [req] * _COALESCE_CLIENTS, clients=_COALESCE_CLIENTS,
        )
        snap = service.stats.snapshot()
    assert report.errors == 0 and report.rejected == 0
    # Exactly one execution: one cold leader, one registry record (the
    # worker writes one per execution), everyone else coalesced onto it.
    assert snap["cold"] == 1
    assert snap["coalesced"] == _COALESCE_CLIENTS - 1
    assert len(list(registry.glob("experiment-*.json"))) == 1
    # ... and every requester got the same bytes.
    bodies = {r.text for r in report.replies if r.ok}
    assert len(bodies) == 1
    print(
        f"\n[{_EXPERIMENT}@small] {_COALESCE_CLIENTS} identical concurrent "
        f"requests -> 1 execution "
        f"(coalescing ratio {report.coalescing_ratio():.3f})"
    )
    print(report.table().render())


def test_observability_overhead_on_warm_path(scale, tmp_path):
    """The tax every warm hit pays for observability, vs what it buys.

    Per request the service generates one id, records one latency
    sample per family, bumps counters, and emits one access-log line.
    Micro-time that exact recording path against a live service's
    measured warm p50: the ratio is the metrics-path overhead, and the
    bar is <3% so observability never becomes the warm path's cost.
    """
    req = ExperimentRequest(_EXPERIMENT, SimScale.SMALL)
    rounds = 2000
    with spawn_service(
        port=0, workers=1, queue_limit=8,
        cache_dir=str(tmp_path / "cache"), registry_dir="",
        access_log=str(tmp_path / "access.jsonl"),
    ) as service:
        with ServiceClient(service.host, service.port) as client:
            assert client.submit(req).served == "cold"
        report = run_load(
            service.host, service.port,
            [req] * _WARM_REQUESTS, clients=_WARM_CLIENTS,
        )
        obs = service.obs
        t0 = time.perf_counter()
        for _ in range(rounds):
            rid = obs.new_request_id()
            obs.observe_http(
                "/v1/experiment", "POST", 200, 0.0012, rid,
                served="warm", experiment=_EXPERIMENT, scale="small",
            )
            obs.observe_served("warm", 0.0012)
        per_request_s = (time.perf_counter() - t0) / rounds
    assert report.errors == 0
    warm_p50 = percentile(report.by_served("warm"), 50)
    overhead = per_request_s / warm_p50
    print(
        f"\n[{_EXPERIMENT}@small] observability "
        f"{per_request_s * 1e6:.1f} us/request vs warm p50 "
        f"{warm_p50 * 1e3:.3f} ms: {overhead:.2%} overhead"
    )
    assert overhead < 0.03, (
        f"metrics path costs {overhead:.2%} of a warm hit "
        f"({per_request_s * 1e6:.1f} us vs {warm_p50 * 1e3:.3f} ms p50)"
    )
