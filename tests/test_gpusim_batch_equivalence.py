"""Batched-vs-scalar equivalence for the block-batched SIMT engine.

The engine in :mod:`repro.gpusim.batch` must be *bit-identical* to the
sequential per-block oracle: every trace statistic (per-category counts,
occupancy histograms, transaction address/block/store streams, shared
replays, const/tex hit counts) and all device memory must match exactly,
on every Rodinia GPU workload and on adversarial synthetic divergence
patterns.  Kernels needing per-block host scalars must fall back to the
scalar engine — transparently and with rolled-back device memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.common.config import SimScale
from repro.gpusim import GPU, LAUNCH_ROUTES
from repro.workloads import base as wl

wl.load_all()
GPU_WORKLOADS = sorted(n for n, d in wl.REGISTRY.items() if d.has_gpu)
VERSIONED = sorted(
    (n, v)
    for n, d in wl.REGISTRY.items()
    if d.gpu_versions
    for v in d.gpu_versions
)

#: Kernels whose host-side control flow consumes per-block scalars (a
#: task id, a diagonal split, a strip range); these are scalar-only by
#: design and must be the *only* fallbacks.
KNOWN_FALLBACKS = {"heartwall_track", "lud_perimeter", "gicov_dilate_v2"}


def assert_trace_equal(a, b, label=""):
    """Exact equality of two KernelTraces, launch by launch."""
    assert len(a.launches) == len(b.launches), label
    for i, (x, y) in enumerate(zip(a.launches, b.launches)):
        loc = f"{label} launch {i} ({x.kernel_name})"
        assert x.kernel_name == y.kernel_name, loc
        assert (x.grid, x.block) == (y.grid, y.block), loc
        assert x.shared_bytes_per_block == y.shared_bytes_per_block, loc
        assert x.thread_insts == y.thread_insts, loc
        assert x.issued_warp_insts == y.issued_warp_insts, loc
        assert x.category_warp_insts == y.category_warp_insts, loc
        assert x.mem_warp_insts == y.mem_warp_insts, loc
        np.testing.assert_array_equal(
            x.occupancy_hist, y.occupancy_hist, err_msg=loc
        )
        assert x.shared_replays == y.shared_replays, loc
        assert x.const_serializations == y.const_serializations, loc
        assert (x.const_accesses, x.const_hits) == (
            y.const_accesses, y.const_hits), loc
        assert (x.tex_accesses, x.tex_hits) == (
            y.tex_accesses, y.tex_hits), loc
        for field, u, v in zip(
            ("tx_addrs", "tx_blocks", "tx_stores"),
            x.transactions(), y.transactions(),
        ):
            np.testing.assert_array_equal(u, v, err_msg=f"{loc} {field}")


def _flatten_result(result):
    if isinstance(result, dict):
        return [np.asarray(v) for v in result.values()]
    if isinstance(result, (tuple, list)):
        return [np.asarray(v) for v in result]
    return [] if result is None else [np.asarray(result)]


def _run_workload(name, version, scale, batch, monkeypatch):
    monkeypatch.setenv("REPRO_GPU_BATCH", "on" if batch else "off")
    defn = wl.get(name)
    fn = defn.gpu_versions[version] if version is not None else defn.gpu_fn
    gpu = GPU(app_name=name)
    result = fn(gpu, scale)
    return gpu.trace, _flatten_result(result)


class TestRodiniaEquivalence:
    @pytest.mark.parametrize("name", GPU_WORKLOADS)
    def test_small_scale_bit_identical(self, name, monkeypatch):
        del LAUNCH_ROUTES[:]
        tb, rb = _run_workload(name, None, SimScale.SMALL, True, monkeypatch)
        routed = list(LAUNCH_ROUTES)
        del LAUNCH_ROUTES[:]
        ts, rs = _run_workload(name, None, SimScale.SMALL, False, monkeypatch)
        assert {how for _, how, _ in LAUNCH_ROUTES} == {"scalar"}, name
        assert_trace_equal(tb, ts, name)
        assert len(rb) == len(rs)
        for u, v in zip(rb, rs):
            np.testing.assert_array_equal(u, v, err_msg=name)
        # The batched engine must actually engage, and only the known
        # per-block-scalar kernels may fall back.
        assert routed, name
        fallbacks = {k for k, how, _ in routed if how == "scalar"}
        assert fallbacks <= KNOWN_FALLBACKS, name
        batched = [e for e in routed if e[1] == "batch"]
        assert batched or {k for k, _, _ in routed} <= KNOWN_FALLBACKS, name

    @pytest.mark.parametrize("name,version", VERSIONED)
    def test_versioned_variants_bit_identical(self, name, version, monkeypatch):
        tb, rb = _run_workload(name, version, SimScale.TINY, True, monkeypatch)
        ts, rs = _run_workload(name, version, SimScale.TINY, False, monkeypatch)
        assert_trace_equal(tb, ts, f"{name}:v{version}")
        for u, v in zip(rb, rs):
            np.testing.assert_array_equal(u, v, err_msg=f"{name}:v{version}")


def _adversarial_kernel(n, trip_mod, stride, thresh, csize, tsize):
    """A kernel exercising every batching hazard at once: per-lane loop
    trip counts (including whole blocks that never enter), nested masks,
    syncs inside divergent loops, shared-memory conflicts, const/tex
    reuse across blocks, and within-block colliding atomics.  Like every
    real launch, blocks write disjoint global segments (cross-block
    read-after-write in one launch is a race on hardware too)."""

    def k(ctx, gin, gout, cmem, tmem):
        T = ctx.nthreads
        sm = ctx.shared((max(T, 2),), np.float64)
        i = ctx.gtid % n
        v = ctx.load(gin, i)
        c = ctx.load(cmem, i % csize)
        t = ctx.load(tmem, (i * stride) % tsize)
        ctx.store(sm, ctx.tidx, v + c)
        ctx.sync()
        acc = v * 0.0
        trips = ctx.gtid % trip_mod
        for _ in ctx.range_(trips):
            acc = acc + ctx.load(sm, (ctx.tidx * 3) % T)
            with ctx.masked(acc > thresh):
                ctx.store(sm, (ctx.tidx + 1) % T, acc * 0.5)
            ctx.sync()
        # Duplicate targets *within* the block's own segment of gout.
        half = max(T // 2, 1)
        with ctx.masked((i % 3) != 0):
            ctx.atomic_add(gout, i - ctx.tidx + ctx.tidx % half, acc + t)
        total = ctx.block_reduce_sum(v, sm)
        ctx.store(gout, i, ctx.load(gout, i) + total * 1e-3)

    return k


class TestAdversarialDivergence:
    @settings(max_examples=25, deadline=None)
    @given(
        threads=st.sampled_from([1, 7, 32, 64, 100]),
        blocks=st.integers(1, 5),
        trip_mod=st.integers(1, 5),
        stride=st.integers(1, 7),
        thresh=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_synthetic_kernel_bit_identical(
        self, threads, blocks, trip_mod, stride, thresh, seed
    ):
        rng = np.random.default_rng(seed)
        n = threads * blocks
        csize, tsize = 17, 23
        host = rng.standard_normal(n)
        chost = rng.standard_normal(csize)
        thost = rng.standard_normal(tsize)
        kernel = _adversarial_kernel(n, trip_mod, stride, thresh, csize, tsize)
        import os

        results = {}
        for mode in ("on", "off"):
            os.environ["REPRO_GPU_BATCH"] = mode
            try:
                gpu = GPU()
                gin = gpu.to_device(host)
                gout = gpu.alloc(n, dtype=np.float64)
                cmem = gpu.to_const(chost)
                tmem = gpu.to_texture(thost)
                gpu.launch(kernel, blocks, threads, gin, gout, cmem, tmem)
                results[mode] = (gpu.trace, gout.to_host())
            finally:
                os.environ.pop("REPRO_GPU_BATCH", None)
        tb, ob = results["on"]
        ts, os_ = results["off"]
        assert_trace_equal(tb, ts, "synthetic")
        np.testing.assert_array_equal(ob, os_)


class TestEngineMechanics:
    def test_toggle_off_disables_batching(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPU_BATCH", "off")
        del LAUNCH_ROUTES[:]
        gpu = GPU()
        out = gpu.alloc(256, dtype=np.int64)

        def k(ctx, out):
            ctx.store(out, ctx.gtid, ctx.gtid)

        gpu.launch(k, 4, 64, out)
        assert LAUNCH_ROUTES == [("k", "scalar", 4)]
        np.testing.assert_array_equal(out.to_host(), np.arange(256))

    def test_chunked_batches_bit_identical(self, monkeypatch):
        """A tiny lane budget forces many chunks per launch; the deferred
        commit must still reassemble the exact scalar stream."""

        def k(ctx, a, out):
            i = ctx.gtid
            with ctx.masked(i % 2 == 0):
                ctx.store(out, i, ctx.load(a, i) * 2.0)

        host = np.arange(512, dtype=np.float64)
        runs = {}
        for mode, lanes in (("on", "64"), ("off", None)):
            monkeypatch.setenv("REPRO_GPU_BATCH", mode)
            if lanes:
                monkeypatch.setenv("REPRO_GPU_BATCH_LANES", lanes)
            gpu = GPU()
            a = gpu.to_device(host)
            out = gpu.alloc(512, dtype=np.float64)
            gpu.launch(k, 8, 64, a, out)
            runs[mode] = (gpu.trace, out.to_host())
            monkeypatch.delenv("REPRO_GPU_BATCH_LANES", raising=False)
        assert_trace_equal(runs["on"][0], runs["off"][0], "chunked")
        np.testing.assert_array_equal(runs["on"][1], runs["off"][1])

    def test_per_block_host_scalar_falls_back_with_rollback(self, monkeypatch):
        """A kernel that stores *before* consuming a per-block scalar:
        the batch attempt writes device memory, fails, and must leave no
        trace of the attempt (memory restored, stats from scalar only)."""

        def k(ctx, out):
            ctx.store(out, ctx.gtid, ctx.gtid + 1)
            if ctx.bidx % 2 == 1:  # array truth value in batch mode
                ctx.store(out, ctx.gtid, -ctx.gtid)

        results = {}
        for mode in ("on", "off"):
            monkeypatch.setenv("REPRO_GPU_BATCH", mode)
            del LAUNCH_ROUTES[:]
            gpu = GPU()
            out = gpu.alloc(128, dtype=np.int64)
            gpu.launch(k, 2, 64, out)
            results[mode] = (gpu.trace, out.to_host(), list(LAUNCH_ROUTES))
        assert_trace_equal(results["on"][0], results["off"][0], "fallback")
        np.testing.assert_array_equal(results["on"][1], results["off"][1])
        assert results["on"][2] == [("k", "scalar", 2)]
        assert results["off"][2] == [("k", "scalar", 2)]

    def test_local_scratch_write_falls_back(self, monkeypatch):
        """Host-allocated LOCAL scratch is sized per block and reused by
        every block in turn — cross-block dataflow the batch engine must
        refuse (the raytracing port's traversal stack works this way)."""
        from repro.gpusim import Space

        def k(ctx, scratch, out):
            ctx.store(scratch, ctx.tidx, ctx.gtid)
            ctx.store(out, ctx.gtid, ctx.load(scratch, ctx.tidx) * 2)

        results = {}
        for mode in ("on", "off"):
            monkeypatch.setenv("REPRO_GPU_BATCH", mode)
            del LAUNCH_ROUTES[:]
            gpu = GPU()
            scratch = gpu.alloc(32, dtype=np.int64, space=Space.LOCAL)
            out = gpu.alloc(128, dtype=np.int64)
            gpu.launch(k, 4, 32, scratch, out)
            results[mode] = (gpu.trace, out.to_host(), list(LAUNCH_ROUTES))
        assert_trace_equal(results["on"][0], results["off"][0], "local")
        np.testing.assert_array_equal(results["on"][1], results["off"][1])
        np.testing.assert_array_equal(results["on"][1], np.arange(128) * 2)
        assert [e[1] for e in results["on"][2]] == ["scalar"]

    def test_fallback_memoized_per_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPU_BATCH", "on")

        def k(ctx, out):
            if ctx.bidx > 0:
                ctx.store(out, ctx.gtid, 1)

        gpu = GPU()
        out = gpu.alloc(64, dtype=np.int64)
        del LAUNCH_ROUTES[:]
        telemetry.start()
        try:
            gpu.launch(k, 2, 32, out)
            gpu.launch(k, 2, 32, out)
            counters = telemetry.counters()
        finally:
            telemetry.stop()
        # Both launches run on the scalar engine, but only the first
        # attempts (and rolls back) a batch; the second goes straight
        # to the scalar engine.
        assert [e[1] for e in LAUNCH_ROUTES] == ["scalar", "scalar"]
        assert counters["gpusim.batch.launches.fallback"] == 1

    def test_probe_records_engagement(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPU_BATCH", "on")
        del LAUNCH_ROUTES[:]
        gpu = GPU()
        out = gpu.alloc(256, dtype=np.int64)

        def k(ctx, out):
            ctx.store(out, ctx.gtid, ctx.gtid * 3)

        gpu.launch(k, 4, 64, out)
        assert LAUNCH_ROUTES == [("k", "batch", 4)]
