"""Batched-vs-scalar equivalence for the block-batched SIMT engine.

The engine in :mod:`repro.gpusim.batch` must be *bit-identical* to the
sequential per-block oracle: every trace statistic (per-category counts,
occupancy histograms, transaction address/block/store streams, shared
replays, const/tex hit counts) and all device memory must match exactly,
on every Rodinia GPU workload, on both Parsec GPU ports, and on
adversarial synthetic divergence patterns.  Every production kernel
batches: ``KNOWN_FALLBACKS`` is empty.  Kernels outside the DSL contract
(Python branches on per-block arrays, ``ctx.shared`` inside
``ctx.block_if``, a block reading LOCAL scratch an earlier block wrote)
must fall back to the scalar engine — transparently and with
rolled-back device memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.common.config import SimScale, override
from repro.gpusim import GPU, LAUNCH_ROUTES, Space
from repro.workloads import base as wl
from repro.workloads.parsec import blackscholes, raytrace

wl.load_all()
GPU_WORKLOADS = sorted(n for n, d in wl.REGISTRY.items() if d.has_gpu)
VERSIONED = sorted(
    (n, v)
    for n, d in wl.REGISTRY.items()
    if d.gpu_versions
    for v in d.gpu_versions
)

#: Production kernels allowed to fall back to the scalar engine: none.
#: Per-block host values are ``(B, 1)`` columns, block-level branches
#: use ``ctx.block_if``, and LOCAL scratch has per-block replicas.
KNOWN_FALLBACKS: set = set()

#: The experimental Parsec GPU ports (Section V-B); not in the registry.
PARSEC_PORTS = {
    "blackscholes": blackscholes.gpu_port_run,
    "raytrace": raytrace.gpu_port_run,
}


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


class TestParsecPortEquivalence:
    @pytest.mark.parametrize("scale", [SimScale.TINY, SimScale.SMALL])
    @pytest.mark.parametrize("name", sorted(PARSEC_PORTS))
    def test_port_bit_identical_and_batched(self, name, scale):
        runs = {}
        for batch in (True, False):
            del LAUNCH_ROUTES[:]
            with override(gpu_batch=batch):
                gpu = GPU(app_name=name)
                result = PARSEC_PORTS[name](gpu, scale)
            runs[batch] = (gpu.trace, np.asarray(result), list(LAUNCH_ROUTES))
        assert_trace_equal(runs[True][0], runs[False][0], name)
        np.testing.assert_array_equal(runs[True][1], runs[False][1])
        assert runs[True][2], name
        assert {how for _, how, _ in runs[True][2]} == {"batch"}, name


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


def _predicated_kernel(n, chunk, n_strips, trip_mod, thresh, csize):
    """Persistent blocks under block predicates: block b owns strips
    ``[b * chunk, (b + 1) * chunk)`` clipped to ``n_strips``, so blocks run
    different trip counts of a predicated body (none at all for some).
    The body holds a shared-memory exchange with syncs, a masked update,
    and a nested predicate around a divergent loop with a sync inside; a
    last predicate holds for no block.  Values carried out of a body are
    updated under ``ctx.mask``, as after ``ctx.masked``."""

    def k(ctx, gin, gout, cmem):
        T = ctx.nthreads
        sm = ctx.shared((T,), np.float64)
        acc = ctx.const(0.0, np.float64)
        start = ctx.bidx * chunk
        for j in range(chunk):
            strip = start + j
            for _ in ctx.block_if(strip < n_strips):
                i = (strip * T + ctx.tidx) % n
                v = ctx.load(gin, i)
                ctx.store(sm, ctx.tidx, v)
                ctx.sync()
                with ctx.masked(v > thresh):
                    u = ctx.load(sm, (ctx.tidx * 5 + 1) % T)
                    ctx.alu(2)
                    acc = np.where(ctx.mask, acc + u, acc)
                for _ in ctx.block_if((ctx.bidx + j) % 2 == 0):
                    for it in ctx.range_((ctx.gtid + j) % trip_mod):
                        c = ctx.load(cmem, (i + it) % csize)
                        acc = np.where(ctx.mask, acc + c, acc)
                        ctx.sync()
                ctx.sync()
        for _ in ctx.block_if(ctx.bidx < 0):
            ctx.store(gout, ctx.gtid, -acc)
        ctx.store(gout, ctx.gtid, acc)

    return k


class TestBlockPredicates:
    @settings(max_examples=60, deadline=None)
    @given(
        threads=st.sampled_from([1, 7, 32, 64, 100]),
        blocks=st.integers(1, 5),
        chunk=st.integers(1, 3),
        live_frac=st.floats(0.0, 1.0),
        trip_mod=st.integers(1, 4),
        thresh=st.floats(-2.0, 2.0),
        blocks_per_pass=st.sampled_from([None, 1, 2]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_predicated_kernel_bit_identical(
        self, threads, blocks, chunk, live_frac, trip_mod, thresh,
        blocks_per_pass, seed,
    ):
        rng = np.random.default_rng(seed)
        n, csize = threads * blocks, 13
        n_strips = int(round(live_frac * blocks * chunk))
        host = rng.standard_normal(n)
        chost = rng.standard_normal(csize)
        kernel = _predicated_kernel(n, chunk, n_strips, trip_mod, thresh,
                                    csize)
        fields = {}
        if blocks_per_pass:
            fields["gpu_batch_lanes"] = blocks_per_pass * threads
        results = {}
        for batch in (True, False):
            del LAUNCH_ROUTES[:]
            with override(gpu_batch=batch, **fields):
                gpu = GPU()
                gin = gpu.to_device(host)
                gout = gpu.alloc(n, dtype=np.float64)
                cmem = gpu.to_const(chost)
                gpu.launch(kernel, blocks, threads, gin, gout, cmem)
            results[batch] = (gpu.trace, gout.to_host(), list(LAUNCH_ROUTES))
        assert [e[1] for e in results[True][2]] == ["batch"]
        assert_trace_equal(results[True][0], results[False][0], "predicated")
        np.testing.assert_array_equal(results[True][1], results[False][1])


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

    @staticmethod
    def _run_both(kernel, setup, grid, block, lanes=None):
        """One launch, batched and scalar: {batch: (trace, arrays, routes)}."""
        runs = {}
        for batch in (True, False):
            del LAUNCH_ROUTES[:]
            fields = {"gpu_batch": batch}
            if lanes is not None:
                fields["gpu_batch_lanes"] = lanes
            with override(**fields):
                gpu = GPU()
                arrays = setup(gpu)
                gpu.launch(kernel, grid, block, *arrays)
            runs[batch] = (
                gpu.trace, [a.to_host() for a in arrays], list(LAUNCH_ROUTES)
            )
        assert_trace_equal(runs[True][0], runs[False][0], "both")
        for u, v in zip(runs[True][1], runs[False][1]):
            np.testing.assert_array_equal(u, v)
        return runs

    @pytest.mark.parametrize("lanes", [None, 64])
    def test_local_scratch_batches(self, lanes):
        """Host-allocated LOCAL scratch is sized per block and reused by
        every block in turn (the raytracing port's traversal stack works
        this way).  Each block of a batch gets its own replica; after the
        launch every element holds the last writing block's value, as
        after the scalar loop, also when the grid spans several passes."""

        def k(ctx, scratch, out):
            with ctx.masked((ctx.tidx + ctx.bidx) % 3 == 0):
                ctx.store(scratch, ctx.tidx, ctx.gtid)
                ctx.store(out, ctx.gtid, ctx.load(scratch, ctx.tidx) * 2)

        def setup(gpu):
            scratch = gpu.to_device(
                np.full(32, -1, dtype=np.int64), space=Space.LOCAL
            )
            return scratch, gpu.alloc(128, dtype=np.int64)

        runs = self._run_both(k, setup, 4, 32, lanes)
        scratch, out = runs[True][1]
        assert [e[1] for e in runs[True][2]] == ["batch"]
        live = (np.arange(128) % 32 + np.arange(128) // 32) % 3 == 0
        np.testing.assert_array_equal(out[live], np.arange(128)[live] * 2)
        last = {t: max(b for b in range(4) if (t + b) % 3 == 0)
                for t in range(32)}
        np.testing.assert_array_equal(
            scratch, [last[t] * 32 + t for t in range(32)]
        )

    @pytest.mark.parametrize("lanes,route", [(None, "scalar"), (32, "batch")])
    def test_local_read_of_earlier_block_write(self, lanes, route):
        """A block that reads LOCAL scratch before writing it sees the
        previous block's values on the scalar loop.  Replicas cannot show
        that within one pass, so such a launch falls back; with one block
        per pass the write-back carries the values and it batches."""

        def k(ctx, scratch, out):
            ctx.store(out, ctx.gtid, ctx.load(scratch, ctx.tidx))
            ctx.store(scratch, ctx.tidx, ctx.gtid)

        def setup(gpu):
            scratch = gpu.to_device(
                np.full(32, -1, dtype=np.int64), space=Space.LOCAL
            )
            return scratch, gpu.alloc(128, dtype=np.int64)

        runs = self._run_both(k, setup, 4, 32, lanes)
        assert [e[1] for e in runs[True][2]] == [route]
        expect = np.concatenate([np.full(32, -1), np.arange(96)])
        np.testing.assert_array_equal(runs[True][1][1], expect)

    def test_block_if_equals_host_if(self):
        """``ctx.block_if`` charges nothing: on the scalar engine it traces
        exactly like a plain Python ``if``; batched, it still does."""

        def host_if(ctx, out):
            ctx.alu(1)
            if ctx.bidx % 3 == 1:
                ctx.sync()
                ctx.store(out, ctx.gtid, ctx.gtid)

        def block_if(ctx, out):
            ctx.alu(1)
            for _ in ctx.block_if(ctx.bidx % 3 == 1):
                ctx.sync()
                ctx.store(out, ctx.gtid, ctx.gtid)

        traces = {}
        for kernel, batch in ((host_if, False), (block_if, False),
                              (block_if, True)):
            with override(gpu_batch=batch):
                gpu = GPU()
                out = gpu.alloc(7 * 40, dtype=np.int64)
                gpu.launch(kernel, 7, 40, out, name="k")
            traces[kernel.__name__, batch] = (gpu.trace, out.to_host())
        ref_trace, ref_out = traces["host_if", False]
        for key in (("block_if", False), ("block_if", True)):
            assert_trace_equal(traces[key][0], ref_trace, str(key))
            np.testing.assert_array_equal(traces[key][1], ref_out)

    def test_shared_inside_block_if_falls_back(self):
        """Allocating shared memory in a predicated body would diverge the
        per-block allocation order; the batch attempt raises, memory is
        rolled back, and the scalar loop produces the trace."""

        def k(ctx, out):
            ctx.store(out, ctx.gtid, ctx.gtid + 1)
            for _ in ctx.block_if(ctx.bidx % 2 == 1):
                sm = ctx.shared((ctx.nthreads,), np.int64)
                ctx.store(sm, ctx.tidx, ctx.gtid)
                ctx.sync()
                mirrored = ctx.load(sm, ctx.nthreads - 1 - ctx.tidx)
                ctx.store(out, ctx.gtid, mirrored)

        runs = self._run_both(
            k, lambda gpu: (gpu.alloc(96, dtype=np.int64),), 3, 32
        )
        assert [e[1] for e in runs[True][2]] == ["scalar"]
        out = runs[True][1][0]
        np.testing.assert_array_equal(out[:32], np.arange(1, 33))
        np.testing.assert_array_equal(out[32:64], np.arange(63, 31, -1))

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
