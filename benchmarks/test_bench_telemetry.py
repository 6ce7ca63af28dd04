"""Guard: disabled telemetry must cost <2% on a functional run.

The instrumentation points stay in the hot layers forever, so the
disabled path has to be provably cheap.  Strategy: run a cold Rodinia
functional execution once with telemetry enabled to *count* how many
probe invocations (counters + span opens/closes) the run performs, then
measure the per-call cost of a disabled probe, and bound the total
disabled-path overhead as ``calls x cost / wall_time``.  This is robust
where a direct A/B wall-clock diff at the 2% level would be noise.

Runs under the session hook, so the timings land in the
``perf-history.jsonl`` trajectory alongside every other benchmark.
"""

import time

from repro import telemetry
from repro.common.config import override
from repro.core.features import clear_caches, gpu_trace_for

_MAX_OVERHEAD = 0.02


#: GPU probes fire per launch and per batch pass.  HotSpot makes few
#: launches over many blocks (3 over 432 at SMALL); LUD's diagonal,
#: perimeter and internal kernels make many small ones (22 over 204),
#: a far denser probe rate per block — together they exercise both
#: probe densities.
_WORKLOADS = ("hotspot", "lud")


def _cold_run(scale):
    clear_caches()
    t0 = time.perf_counter()
    traces = [gpu_trace_for(name, scale) for name in _WORKLOADS]
    return time.perf_counter() - t0, traces


def test_disabled_telemetry_overhead(scale):
    with override(cache=False):  # force actual execution, twice
        assert not telemetry.active()
        t_disabled, traces_off = _cold_run(scale)

        assert telemetry.start(telemetry.MemorySink())
        try:
            t_enabled, traces_on = _cold_run(scale)
        finally:
            snapshot = telemetry.stop()
    clear_caches()

    # Telemetry must observe, never perturb.
    for off, on in zip(traces_off, traces_on):
        assert on.thread_insts == off.thread_insts
        assert on.n_transactions == off.n_transactions

    calls = snapshot["api_calls"]
    assert calls > 0, "instrumentation never fired on a functional run"

    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        telemetry.count("bench.noop")
    per_call = (time.perf_counter() - t0) / n

    overhead = calls * per_call / t_disabled
    print(
        f"\n{calls} probe calls x {per_call * 1e9:.0f} ns disabled cost "
        f"over a {t_disabled:.2f}s run (enabled: {t_enabled:.2f}s): "
        f"{overhead:.4%} overhead"
    )
    assert overhead < _MAX_OVERHEAD, (
        f"disabled telemetry path costs {overhead:.2%} of a functional "
        f"run, budget is {_MAX_OVERHEAD:.0%}"
    )
