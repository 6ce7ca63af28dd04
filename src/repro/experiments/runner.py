"""Experiment CLI: ``python -m repro.experiments.runner <command> ...``.

Subcommands:

- ``run``     — regenerate tables/figures
  (``python -m repro.experiments.runner run fig1 --scale small``).
- ``serve``   — start the experiment service daemon
  (:mod:`repro.service`, see docs/SERVICE.md).
- ``bench``   — drive a load-generation run against a service (an
  already-running one, or ``--spawn`` a temporary in-process daemon).
- ``watch``   — live ANSI dashboard for a running service
  (``--once`` prints a single scrape snapshot for CI logs).
- ``perf``    — the perf-history trajectory: ``perf
  record|gate|report|trend|diff`` over ``perf-history.jsonl``
  (:mod:`repro.perfwatch`, see docs/PERF.md).
- ``goldens`` — regenerate the pinned golden references
  (``repro.fidelity.goldens``).

``run all`` runs the complete evaluation in paper order and prints
every table; the per-process memoization in :mod:`repro.core.features`
means the workload executions are shared across experiments, and the
on-disk artifact cache (:mod:`repro.core.artifacts`) shares them
across *runs*.

``--jobs N`` warms the artifact cache first by executing workloads in a
process pool: functional executions are independent per workload, so
they parallelize perfectly; the experiments themselves then run in the
parent against the warm cache.  ``--no-cache`` disables artifact
persistence for the run (equivalent to ``REPRO_CACHE=off``) and is
therefore incompatible with ``--jobs``.

Observability (:mod:`repro.telemetry`): ``--trace out.jsonl`` writes
every span and counter as JSONL (``REPRO_TRACE`` is the environment
fallback) — with ``--jobs`` each pool worker appends its own
``out.<pid>.jsonl`` and its counters are merged into the parent;
``--metrics`` prints the aggregated summary tables after the run;
``--profile`` adds span self-time attribution and a peak-RSS gauge.

Fidelity (:mod:`repro.fidelity`): every run is recorded in the run
registry (``--registry DIR``, default ``.repro_runs``; ``--registry
off`` or ``REPRO_REGISTRY=off`` disables).  ``--baseline paper`` gates
the run against the pinned golden references and exits nonzero on
drift — the recommended post-change check; ``--baseline PATH`` gates
against a prior record (e.g. one written by ``--save-baseline PATH``).

``--gpu-profile`` (usable alone, no experiment ids needed) profiles the
simulated GPU itself: per-kernel counter sets, bit-exact stall
attribution, roofline tables, a ``gpuprof`` registry record whose
counters drift-gate like figure data, and a simulated-cycles Chrome
timeline — see ``docs/GPUPROF.md``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Optional

from repro import telemetry
from repro.api import ExperimentRequest
from repro.common.config import (
    DEFAULT_REGISTRY_DIR,
    DEFAULT_SERVICE_HOST,
    DEFAULT_SERVICE_PORT,
    DEFAULT_SERVICE_QUEUE,
    DEFAULT_SERVICE_SLOW_MS,
    DEFAULT_SERVICE_WORKERS,
    FALSE_VALUES,
    SimScale,
    config,
    override,
)
from repro.experiments import ALL_EXPERIMENTS, run_experiment


def _warm_cache(scale: SimScale, jobs: int,
                trace_path: Optional[str] = None) -> None:
    """Execute every suite workload across a process pool."""
    from repro.core.features import suite_workloads, warm_workload

    names = suite_workloads(dedupe_shared=False)
    collect = telemetry.active()
    t0 = time.time()
    with telemetry.span("warm_cache", jobs=jobs, workloads=len(names)):
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(warm_workload, name, scale.value,
                            trace_path if collect else None, collect): name
                for name in names
            }
            for fut in as_completed(futures):
                name, produced, counters = fut.result()
                telemetry.merge_counters(counters)
                print(
                    f"[warm] {name}: {'+'.join(produced) or 'nothing to run'}",
                    file=sys.stderr,
                )
    print(
        f"[warm] {len(names)} workloads in {time.time() - t0:.1f}s "
        f"({jobs} jobs)",
        file=sys.stderr,
    )


def _gpu_profile(scale: SimScale):
    """Run the simulated-GPU profiler over every GPU workload.

    Prints the suite hot-kernel table plus each app's stall-attribution
    and counter-ladder tables; returns ``{app: AppProfile}``.
    """
    from repro.experiments.gpu_common import profile_all, traces
    from repro.gpusim import GPUConfig
    from repro.gpusim.profiler import suite_table

    with telemetry.span("gpu_profile_suite", scale=scale.value):
        profiles = profile_all(traces(scale), GPUConfig.sim_default())
    print(suite_table(list(profiles.values())).render())
    print()
    for prof in profiles.values():
        print(prof.kernel_table().render())
        print()
        print(prof.counter_table().render())
        print()
    return profiles


def _gpu_timeline_path(
    trace_path: Optional[str], registry_dir: Optional[str], run_id: str
) -> Optional[str]:
    """Where the simulated-cycles Chrome timeline lands.

    Next to the telemetry trace when one is being written, else in the
    registry; with both off there is nowhere durable to put it.
    """
    if trace_path:
        root = pathlib.Path(trace_path)
        return str(root.with_name(root.stem + ".gpu.chrome.json"))
    if registry_dir:
        return str(
            pathlib.Path(registry_dir) / f"gpuprof-{run_id}.chrome.json"
        )
    return None


def _resolve_registry_dir(arg: Optional[str]) -> Optional[str]:
    """CLI flag beats config; ``off`` (or REPRO_REGISTRY=off) disables."""
    if arg is None:
        return config().registry_dir or DEFAULT_REGISTRY_DIR
    if arg.strip().lower() in FALSE_VALUES:
        return None
    return arg


def _baseline_metrics(ref: str, scale: SimScale, registry_dir: Optional[str]):
    """Resolve ``--baseline`` to (metrics, label); raises ValueError."""
    if ref == "paper":
        from repro.fidelity import paper_goldens

        return paper_goldens(scale), "paper"
    from repro.fidelity import RunRegistry

    record = RunRegistry(registry_dir or DEFAULT_REGISTRY_DIR).load(ref)
    if record.scale != scale.value:
        raise ValueError(
            f"baseline {ref} was recorded at scale {record.scale!r}, "
            f"this run is {scale.value!r} — not comparable"
        )
    return record.metrics, f"{record.kind}-{record.run_id}"


def _save_record(registry_dir: str, record, label: str) -> None:
    """Archive a finished run's record; a failed save (a full disk) is
    reported, never fatal — the tables are already printed."""
    from repro.fidelity import RunRegistry

    try:
        path = RunRegistry(registry_dir).save(record)
    except OSError as exc:
        print(f"[registry] error: {exc}", file=sys.stderr)
    else:
        print(f"{label} {path}", file=sys.stderr)


def _cmd_run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner run",
        description="Regenerate the paper's tables and figure data.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids ({', '.join(ALL_EXPERIMENTS)}), "
             "'report' (full Markdown characterization), or 'all'; "
             "may be omitted with --gpu-profile",
    )
    parser.add_argument(
        "--scale", default="small", choices=[s.value for s in SimScale],
        help="problem-size operating point (default: small)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="warm the artifact cache with N parallel workload "
             "executions before running experiments (default: 1, no "
             "warm-up pass)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent artifact cache for this run",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL telemetry trace (spans + counters) to PATH; "
             "REPRO_TRACE is the environment fallback",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print aggregated telemetry tables (spans, counters, "
             "gauges) after the run",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attribute wall time to spans (self vs children) and report "
             "peak RSS; prints the hot-span table after the run",
    )
    parser.add_argument(
        "--registry", metavar="DIR", default=None,
        help="run-registry directory for persisted run records "
             f"(default: {DEFAULT_REGISTRY_DIR}; 'off' disables; "
             "REPRO_REGISTRY is the environment fallback)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH|paper", default=None,
        help="drift-gate the run: compare reproduced metrics against "
             "the pinned paper goldens ('paper') or a prior run record "
             "(a path or a registry run id); exits nonzero on drift "
             "beyond tolerance",
    )
    parser.add_argument(
        "--save-baseline", metavar="PATH", default=None,
        help="write this run's record to PATH for use as a future "
             "--baseline",
    )
    parser.add_argument(
        "--gpu-profile", action="store_true",
        help="profile the simulated GPU after the experiments: prints "
             "per-kernel counter sets, stall attribution, and roofline "
             "tables for every GPU workload, writes a gpuprof record to "
             "the registry (drift-gated by --baseline like figure "
             "data), and exports a simulated-cycles Chrome timeline",
    )
    args = parser.parse_args(argv)
    # Validate flag interactions before touching any global state, so an
    # argparse error cannot leave the artifact cache disabled behind the
    # caller's back.
    if args.jobs > 1 and args.no_cache:
        parser.error("--jobs needs the artifact cache; drop --no-cache")
    if not args.experiments and not args.gpu_profile:
        parser.error("give at least one experiment id (or --gpu-profile)")
    scale = SimScale(args.scale)
    if args.no_cache:
        from repro.core.artifacts import set_artifact_cache

        set_artifact_cache(None)
    ids = list(ALL_EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    trace_path = args.trace or config().trace
    registry_dir = _resolve_registry_dir(args.registry)
    started = (
        telemetry.start(
            trace_path=trace_path,
            meta={"argv": ids, "scale": scale.value},
            profile=args.profile,
        )
        if (trace_path or args.metrics or args.profile)
        else False
    )
    exit_code = 0
    try:
        results = []
        gpu_profiles = None
        with override(registry_dir=registry_dir):
            with telemetry.span("run", scale=scale.value,
                                experiments=len(ids)):
                if args.jobs > 1:
                    _warm_cache(scale, args.jobs, trace_path)
                for exp_id in ids:
                    result = run_experiment(ExperimentRequest(exp_id, scale))
                    results.append(result)
                    print(result.render())
                    print(
                        f"\n[{exp_id} completed in "
                        f"{result.metadata['duration_s']:.1f}s]\n"
                    )
                if args.gpu_profile:
                    gpu_profiles = _gpu_profile(scale)
        if (registry_dir or args.save_baseline or args.baseline
                or gpu_profiles is not None):
            from repro.fidelity import RunRegistry, record_from_results

            record = record_from_results(
                results, scale.value, kind="run",
                counters=telemetry.counters(),
                span_stats=telemetry.span_stats(),
                meta={
                    "argv": ids,
                    # Provenance in the same typed encoding the service
                    # wire format and run_experiment() use (repro.api).
                    "requests": [
                        ExperimentRequest(e, scale).to_dict() for e in ids
                    ],
                },
            )
            if gpu_profiles is not None:
                from repro.fidelity import RunRecord
                from repro.gpusim.profiler import suite_metrics

                prof_metrics = suite_metrics(list(gpu_profiles.values()))
                gpu_record = RunRecord(
                    kind="gpuprof", scale=scale.value,
                    experiments=["gpuprof"], metrics=prof_metrics,
                    counters=telemetry.counters(),
                    meta={"config": "sim-default",
                          "apps": sorted(gpu_profiles)},
                ).stamp()
                # Counter drift gates exactly like figure drift: fold
                # the gpuprof family into the run record so
                # --save-baseline/--baseline roundtrips cover it.
                record.metrics.update(prof_metrics)
                record.experiments.append("gpuprof")
                record.stamp()
                if registry_dir:
                    _save_record(registry_dir, gpu_record, "[gpuprof]")
                timeline = _gpu_timeline_path(
                    trace_path, registry_dir, gpu_record.run_id
                )
                if timeline:
                    from repro.telemetry.chrome import profiles_to_chrome

                    profiles_to_chrome(
                        list(gpu_profiles.values()), timeline
                    )
                    print(f"[gpuprof timeline] {timeline}",
                          file=sys.stderr)
            if registry_dir:
                _save_record(registry_dir, record, "[registry]")
            if args.save_baseline:
                from repro.fidelity.registry import write_baseline

                write_baseline(record, args.save_baseline)
            if args.baseline:
                from repro.core.report import render_drift
                from repro.fidelity import check_drift

                try:
                    baseline, label = _baseline_metrics(
                        args.baseline, scale, registry_dir
                    )
                except (ValueError, FileNotFoundError) as exc:
                    print(f"[drift] error: {exc}", file=sys.stderr)
                    return 2
                drift = check_drift(
                    record.metrics, baseline,
                    baseline_label=label, scale=scale.value,
                )
                print(render_drift(drift))
                exit_code = drift.exit_code
        if args.metrics:
            for table in telemetry.summary():
                print(table.render())
                print()
    finally:
        if started:
            snapshot = telemetry.stop()
            if args.profile:
                if not args.metrics:
                    from repro.telemetry.profile import (
                        hot_spans_table,
                        live_aggregate,
                    )

                    aggs = live_aggregate(snapshot["span_stats"],
                                          snapshot["self_stats"])
                    print(hot_spans_table(aggs).render())
                peak = snapshot["gauges"].get("profile.mem.peak_rss_kb")
                if peak is not None:
                    print(f"[profile] peak RSS: {peak:.0f} kB",
                          file=sys.stderr)
    return exit_code


def _cmd_serve(argv) -> int:
    from repro.service import serve

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner serve",
        description="Run the experiment service daemon (docs/SERVICE.md).",
    )
    parser.add_argument(
        "--host", default=DEFAULT_SERVICE_HOST,
        help=f"bind address (default: {DEFAULT_SERVICE_HOST})",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_SERVICE_PORT,
        help=f"port to listen on; 0 lets the OS pick (default: "
             f"{DEFAULT_SERVICE_PORT})",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_SERVICE_WORKERS,
        metavar="N",
        help=f"cold-execution process-pool width (default: "
             f"{DEFAULT_SERVICE_WORKERS})",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=DEFAULT_SERVICE_QUEUE,
        metavar="N",
        help="max distinct in-flight cold requests before answering "
             f"429 (default: {DEFAULT_SERVICE_QUEUE})",
    )
    parser.add_argument(
        "--registry", metavar="DIR", default=None,
        help="run-registry directory for executed experiments "
             f"(default: {DEFAULT_REGISTRY_DIR}; 'off' disables)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the persistent artifact cache (every "
             "request is cold; coalescing still applies)",
    )
    parser.add_argument(
        "--access-log", metavar="PATH", default=None,
        help="structured JSONL access log, one object per request "
             "(default: off)",
    )
    parser.add_argument(
        "--slow-ms", type=float, default=DEFAULT_SERVICE_SLOW_MS,
        metavar="MS",
        help="persist a span-trace exemplar to the registry for any "
             f"cold request slower than MS (default: "
             f"{DEFAULT_SERVICE_SLOW_MS:g})",
    )
    parser.add_argument(
        "--slo", metavar="SPEC", default=None,
        help="service-level objectives checked at shutdown, e.g. "
             "'warm_p99_ms=50,error_rate=0.01'; a violated ceiling "
             "makes the process exit nonzero (docs/SERVICE.md)",
    )
    parser.add_argument(
        "--baseline", metavar="REF", default=None,
        help="compare this lifetime's service/* metrics against a "
             "service run record (a path or a registry run id) via the "
             "fidelity drift gate; exit 1 on drift, 2 when the record "
             "cannot be read",
    )
    parser.add_argument(
        "--save-baseline", metavar="PATH", default=None,
        help="write this lifetime's service run record to PATH for "
             "future --baseline gating",
    )
    args = parser.parse_args(argv)
    if args.slo:  # fail on a typo'd gate before binding the port
        from repro.service.slo import parse_slo_spec

        try:
            parse_slo_spec(args.slo)
        except ValueError as exc:
            parser.error(str(exc))
    registry_dir = _resolve_registry_dir(args.registry)
    cache_dir = "" if args.no_cache else None
    return serve(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue_limit, cache_dir=cache_dir,
        registry_dir=registry_dir or "",
        access_log=args.access_log,
        slow_request_s=args.slow_ms / 1e3,
        slo=args.slo, baseline=args.baseline,
        save_baseline=args.save_baseline,
    )


def _cmd_bench(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner bench",
        description="Load-generate against an experiment service and "
                    "print latency/hit-rate tables.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help=f"experiment ids to request ({', '.join(ALL_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--scale", default="small", choices=[s.value for s in SimScale],
    )
    parser.add_argument("--host", default=DEFAULT_SERVICE_HOST,
                        help=f"service host (default: {DEFAULT_SERVICE_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                        help=f"service port (default: {DEFAULT_SERVICE_PORT})")
    parser.add_argument(
        "--spawn", action="store_true",
        help="start a temporary in-process service on a free port for "
             "the duration of the run (ignores --host/--port)",
    )
    parser.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent client connections (default: 4)",
    )
    parser.add_argument(
        "--repeat", type=int, default=8, metavar="M",
        help="times each experiment id is requested (default: 8); "
             "identical repeats exercise coalescing and the warm path",
    )
    parser.add_argument(
        "--retry", action="store_true",
        help="install the client retry policy (capped exponential "
             "backoff honoring Retry-After on 429) instead of the "
             "legacy fixed-delay wait; the report counts the rounds",
    )
    args = parser.parse_args(argv)
    scale = SimScale(args.scale)
    requests = [
        ExperimentRequest(exp, scale)
        for exp in args.experiments
        for _ in range(max(1, args.repeat))
    ]

    from repro.service import RetryPolicy, run_load

    retry = RetryPolicy() if args.retry else None
    if args.spawn:
        from repro.service import spawn_service

        with spawn_service(port=0) as service:
            report = run_load(service.host, service.port, requests,
                              clients=args.clients, retry=retry)
    else:
        report = run_load(args.host, args.port, requests,
                          clients=args.clients, retry=retry)
    print(report.table().render())
    return 1 if report.errors else 0


def _cmd_watch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner watch",
        description="Live terminal dashboard for a running experiment "
                    "service: polls /v1/stats + /v1/metrics and renders "
                    "latency quantiles, route counts, and sparklines.",
    )
    parser.add_argument("--host", default=DEFAULT_SERVICE_HOST,
                        help=f"service host (default: {DEFAULT_SERVICE_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                        help=f"service port (default: {DEFAULT_SERVICE_PORT})")
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between polls (default: 2.0)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N polls (default: run until Ctrl-C)",
    )
    parser.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of repainting (for logs/pipes)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print a single scrape snapshot and exit (CI logs; the "
             "CLI twin of `perf record --scrape`)",
    )
    args = parser.parse_args(argv)
    from repro.service.watch import watch

    return watch(
        host=args.host,
        port=args.port,
        interval_s=args.interval,
        iterations=1 if args.once else args.iterations,
        clear=not args.no_clear and not args.once,
    )


def _cmd_perf(argv) -> int:
    from repro.perfwatch.cli import main as perf_main

    return perf_main(argv)


def _cmd_goldens(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner goldens",
        description="Regenerate the pinned golden references "
                    "(repro.fidelity.goldens_data) from the current "
                    "tree; review the diff like any other code.",
    )
    parser.parse_args(argv)
    from repro.fidelity.goldens import regenerate

    regenerate()
    return 0


#: Subcommand table; ``main`` dispatches on the first argument.
_SUBCOMMANDS = {
    "run": _cmd_run,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "watch": _cmd_watch,
    "perf": _cmd_perf,
    "goldens": _cmd_goldens,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    print(f"usage: python -m repro.experiments.runner "
          f"{{{'|'.join(_SUBCOMMANDS)}}} ...", file=sys.stderr)
    return 0 if argv[:1] in (["-h"], ["--help"]) else 2


if __name__ == "__main__":
    sys.exit(main())
