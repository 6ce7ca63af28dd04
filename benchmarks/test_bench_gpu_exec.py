"""Micro-benchmark of the block-batched SIMT execution engine.

Times *cold* functional executions (direct ``GPU.launch``, no artifact
cache) of a large-grid kernel under both engines and asserts the batched
path delivers the speedup the engine exists for.  Runs under the same
session hook as every other benchmark, so the two timings land in
``BENCH_timings.json`` history via this test's wall clock.
"""

import os
import time

import numpy as np
import pytest

from repro.gpusim import GPU, LAUNCH_ROUTES

_BLOCKS = 512
_THREADS = 128
_N = _BLOCKS * _THREADS


def _stencil_kernel(ctx, src, dst):
    """Representative mix: shared staging, divergence, per-lane loops."""
    sm = ctx.shared((ctx.nthreads,), np.float32)
    i = ctx.gtid
    with ctx.masked(i < _N - 64):
        v = ctx.load(src, i)
        ctx.store(sm, ctx.tidx, v)
        ctx.sync()
        acc = v * 0.5
        for _ in ctx.range_(i % 3 + 1):
            acc = acc + ctx.load(sm, (ctx.tidx + 1) % ctx.nthreads)
            ctx.alu(2)
        with ctx.masked(acc > 0):
            ctx.store(dst, i, acc)
        with ctx.masked(~(acc > 0)):
            ctx.store(dst, i, -acc)


def _run(batch: bool) -> float:
    os.environ["REPRO_GPU_BATCH"] = "on" if batch else "off"
    try:
        gpu = GPU()
        src = gpu.to_device(
            np.sin(np.arange(_N, dtype=np.float32))
        )
        dst = gpu.alloc(_N, dtype=np.float32)
        t0 = time.perf_counter()
        gpu.launch(_stencil_kernel, _BLOCKS, _THREADS, src, dst)
        elapsed = time.perf_counter() - t0
        return elapsed, gpu.trace, dst.to_host()
    finally:
        os.environ.pop("REPRO_GPU_BATCH", None)


def test_batched_execution_speedup():
    del LAUNCH_ROUTES[:]
    batch_s, batch_trace, batch_out = _run(batch=True)
    assert [e[1] for e in LAUNCH_ROUTES] == ["batch"]
    scalar_s, scalar_trace, scalar_out = _run(batch=False)

    # Same work: identical trace totals and device results.
    np.testing.assert_array_equal(batch_out, scalar_out)
    assert batch_trace.thread_insts == scalar_trace.thread_insts
    assert batch_trace.n_transactions == scalar_trace.n_transactions

    speedup = scalar_s / batch_s
    print(
        f"\nbatched {batch_s * 1e3:.1f} ms vs scalar {scalar_s * 1e3:.1f} ms"
        f" over {_BLOCKS} blocks: {speedup:.1f}x"
    )
    assert speedup >= 3.0, (
        f"batched engine only {speedup:.2f}x faster "
        f"({batch_s:.3f}s vs {scalar_s:.3f}s)"
    )
