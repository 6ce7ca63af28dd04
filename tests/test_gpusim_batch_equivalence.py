"""Batch-vs-oracle equivalence for the block-batched SIMT engine.

``GPU.launch`` runs every launch on :mod:`repro.gpusim.batch`, which must
be *bit-identical* to the per-block oracle
(:func:`repro.gpusim.dsl.run_blocks_scalar`, swapped in through
:mod:`tests.gpu_oracle`): every trace statistic (per-category counts,
occupancy histograms, transaction address/block/store streams, shared
replays, const/tex hit counts) and all device memory must match exactly,
on every Rodinia GPU workload, on both Parsec GPU ports, and on
adversarial synthetic divergence patterns.  Every launch logs the
``"batch"`` route; the oracle logs none.  Kernels outside the DSL
contract (Python branches on per-block arrays, ``ctx.shared`` inside
``ctx.block_if``, a block reading LOCAL scratch an earlier block of its
pass wrote) raise from ``GPU.launch``, naming the kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SimScale
from repro.gpusim import GPU, LAUNCH_ROUTES, Space
from repro.gpusim.batch import DSL_CONTRACT
from repro.workloads import base as wl
from repro.workloads.parsec import blackscholes, raytrace
from tests.gpu_oracle import batch_lanes, scalar_oracle

wl.load_all()
GPU_WORKLOADS = sorted(n for n, d in wl.REGISTRY.items() if d.has_gpu)
VERSIONED = sorted(
    (n, v)
    for n, d in wl.REGISTRY.items()
    if d.gpu_versions
    for v in d.gpu_versions
)

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


def batch_and_oracle(run):
    """``run()`` on the batch engine, then on the per-block oracle.

    Returns ``(batched, oracle, routes)``: both results and the route
    log of the batched run.  The oracle logs no route, which shows that
    the swap took effect.
    """
    del LAUNCH_ROUTES[:]
    batched = run()
    routes = list(LAUNCH_ROUTES)
    del LAUNCH_ROUTES[:]
    with scalar_oracle():
        oracle = run()
    assert LAUNCH_ROUTES == []
    return batched, oracle, routes


def _workload(name, version, scale):
    """A zero-argument run of one workload: (trace, flattened result)."""
    defn = wl.get(name)
    fn = defn.gpu_versions[version] if version is not None else defn.gpu_fn

    def run():
        gpu = GPU(app_name=name)
        result = fn(gpu, scale)
        return gpu.trace, _flatten_result(result)

    return run


def _assert_runs_equal(batched, oracle, label):
    (tb, rb), (ts, rs) = batched, oracle
    assert_trace_equal(tb, ts, label)
    assert len(rb) == len(rs), label
    for u, v in zip(rb, rs):
        np.testing.assert_array_equal(u, v, err_msg=label)


class TestRodiniaEquivalence:
    @pytest.mark.parametrize("name", GPU_WORKLOADS)
    def test_small_scale_bit_identical(self, name):
        batched, oracle, routes = batch_and_oracle(
            _workload(name, None, SimScale.SMALL)
        )
        _assert_runs_equal(batched, oracle, name)
        assert routes, name
        assert {how for _, how, _ in routes} == {"batch"}, name

    @pytest.mark.parametrize("name,version", VERSIONED)
    def test_versioned_variants_bit_identical(self, name, version):
        batched, oracle, _ = batch_and_oracle(
            _workload(name, version, SimScale.TINY)
        )
        _assert_runs_equal(batched, oracle, f"{name}:v{version}")


class TestParsecPortEquivalence:
    @pytest.mark.parametrize("scale", [SimScale.TINY, SimScale.SMALL])
    @pytest.mark.parametrize("name", sorted(PARSEC_PORTS))
    def test_port_bit_identical_and_batched(self, name, scale):
        def run():
            gpu = GPU(app_name=name)
            result = PARSEC_PORTS[name](gpu, scale)
            return gpu.trace, [np.asarray(result)]

        batched, oracle, routes = batch_and_oracle(run)
        _assert_runs_equal(batched, oracle, name)
        assert routes, name
        assert {how for _, how, _ in routes} == {"batch"}, name


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

        def run():
            gpu = GPU()
            gin = gpu.to_device(host)
            gout = gpu.alloc(n, dtype=np.float64)
            cmem = gpu.to_const(chost)
            tmem = gpu.to_texture(thost)
            gpu.launch(kernel, blocks, threads, gin, gout, cmem, tmem)
            return gpu.trace, [gout.to_host()]

        batched, oracle, routes = batch_and_oracle(run)
        assert [e[1] for e in routes] == ["batch"]
        _assert_runs_equal(batched, oracle, "synthetic")


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

        def run():
            gpu = GPU()
            gin = gpu.to_device(host)
            gout = gpu.alloc(n, dtype=np.float64)
            cmem = gpu.to_const(chost)
            gpu.launch(kernel, blocks, threads, gin, gout, cmem)
            return gpu.trace, [gout.to_host()]

        with batch_lanes(blocks_per_pass and blocks_per_pass * threads):
            batched, oracle, routes = batch_and_oracle(run)
        assert [e[1] for e in routes] == ["batch"]
        _assert_runs_equal(batched, oracle, "predicated")


def _host_branch(ctx, out):
    ctx.store(out, ctx.gtid, ctx.gtid + 1)
    if ctx.bidx % 2 == 1:  # array truth value on the batch engine
        ctx.store(out, ctx.gtid, -ctx.gtid)


def _shared_in_block_if(ctx, out):
    ctx.store(out, ctx.gtid, ctx.gtid + 1)
    for _ in ctx.block_if(ctx.bidx % 2 == 1):
        sm = ctx.shared((ctx.nthreads,), np.int64)
        ctx.store(sm, ctx.tidx, ctx.gtid)
        ctx.sync()
        ctx.store(out, ctx.gtid, ctx.load(sm, ctx.nthreads - 1 - ctx.tidx))


def _local_read_of_earlier_write(ctx, scratch, out):
    ctx.store(out, ctx.gtid, ctx.load(scratch, ctx.tidx))
    ctx.store(scratch, ctx.tidx, ctx.gtid)


def _out_only(gpu):
    return (gpu.alloc(128, dtype=np.int64),)


def _scratch_and_out(gpu):
    scratch = gpu.to_device(np.full(32, -1, dtype=np.int64), space=Space.LOCAL)
    return scratch, gpu.alloc(128, dtype=np.int64)


#: One kernel per rule of the DSL contract: (kernel, setup, what the
#: error says about the broken rule).
CONTRACT_BREAKS = {
    "branch": (_host_branch, _out_only, "truth value"),
    "shared": (_shared_in_block_if, _out_only,
               "ctx.shared inside ctx.block_if"),
    "local": (_local_read_of_earlier_write, _scratch_and_out,
              "earlier block of its pass wrote"),
}


class TestEngineMechanics:
    def test_chunked_batches_bit_identical(self):
        """A tiny lane budget forces many chunks per launch; the deferred
        commit must still reassemble the exact per-block stream."""

        def k(ctx, a, out):
            i = ctx.gtid
            with ctx.masked(i % 2 == 0):
                ctx.store(out, i, ctx.load(a, i) * 2.0)

        host = np.arange(512, dtype=np.float64)

        def setup(gpu):
            return gpu.to_device(host), gpu.alloc(512, dtype=np.float64)

        arrays, routes = self._run_both(k, setup, 8, 64, lanes=64)
        assert routes == [("k", "batch", 8)]
        np.testing.assert_array_equal(arrays[1][::2], host[::2] * 2.0)

    @pytest.mark.parametrize("case", sorted(CONTRACT_BREAKS))
    def test_contract_violation_raises(self, case):
        """A kernel outside the DSL contract raises from ``GPU.launch``,
        naming the kernel, the broken rule and the contract.  Nothing is
        committed: the launch trace stays empty and no route is logged.
        The per-block oracle runs the same kernel."""
        kernel, setup, rule = CONTRACT_BREAKS[case]
        del LAUNCH_ROUTES[:]
        gpu = GPU()
        arrays = setup(gpu)
        with pytest.raises(RuntimeError) as err:
            gpu.launch(kernel, 4, 32, *arrays)
        message = str(err.value)
        assert f"kernel {kernel.__name__!r}" in message
        assert rule in message
        assert DSL_CONTRACT in message
        launch = gpu.trace.launches[-1]
        assert launch.issued_warp_insts == 0
        assert launch.transactions()[0].size == 0
        assert LAUNCH_ROUTES == []
        with scalar_oracle():
            oracle = GPU()
            oracle.launch(kernel, 4, 32, *setup(oracle))
        assert oracle.trace.launches[-1].issued_warp_insts > 0

    @staticmethod
    def _run_both(kernel, setup, grid, block, lanes=None):
        """One launch, batched and on the oracle; asserts they are equal
        and returns the batched arrays and routes."""

        def run():
            gpu = GPU()
            arrays = setup(gpu)
            gpu.launch(kernel, grid, block, *arrays)
            return gpu.trace, [a.to_host() for a in arrays]

        with batch_lanes(lanes):
            batched, oracle, routes = batch_and_oracle(run)
        _assert_runs_equal(batched, oracle, "both")
        return batched[1], routes

    @pytest.mark.parametrize("lanes", [None, 64])
    def test_local_scratch_batches(self, lanes):
        """Host-allocated LOCAL scratch is sized per block and reused by
        every block in turn (the raytracing port's traversal stack works
        this way).  Each block of a batch gets its own replica; after the
        launch every element holds the last writing block's value, as
        after the per-block loop, also when the grid spans several
        passes."""

        def k(ctx, scratch, out):
            with ctx.masked((ctx.tidx + ctx.bidx) % 3 == 0):
                ctx.store(scratch, ctx.tidx, ctx.gtid)
                ctx.store(out, ctx.gtid, ctx.load(scratch, ctx.tidx) * 2)

        (scratch, out), routes = self._run_both(
            k, _scratch_and_out, 4, 32, lanes
        )
        assert [e[1] for e in routes] == ["batch"]
        live = (np.arange(128) % 32 + np.arange(128) // 32) % 3 == 0
        np.testing.assert_array_equal(out[live], np.arange(128)[live] * 2)
        last = {t: max(b for b in range(4) if (t + b) % 3 == 0)
                for t in range(32)}
        np.testing.assert_array_equal(
            scratch, [last[t] * 32 + t for t in range(32)]
        )

    @pytest.mark.parametrize("lanes,route", [(32, "batch")])
    def test_local_read_of_earlier_block_write(self, lanes, route):
        """A block that reads LOCAL scratch before writing it sees the
        previous block's values on the per-block loop.  Replicas cannot
        show that within one pass (``test_contract_violation_raises``),
        but with one block per pass the write-back carries the values,
        so the launch batches and equals the oracle."""
        arrays, routes = self._run_both(
            _local_read_of_earlier_write, _scratch_and_out, 4, 32, lanes
        )
        assert [e[1] for e in routes] == [route]
        expect = np.concatenate([np.full(32, -1), np.arange(96)])
        np.testing.assert_array_equal(arrays[1], expect)

    def test_block_if_equals_host_if(self):
        """``ctx.block_if`` charges nothing: on the per-block oracle it
        traces exactly like a plain Python ``if``; batched, it still
        does."""

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

        def run(kernel):
            gpu = GPU()
            out = gpu.alloc(7 * 40, dtype=np.int64)
            gpu.launch(kernel, 7, 40, out, name="k")
            return gpu.trace, out.to_host()

        with scalar_oracle():
            ref_trace, ref_out = run(host_if)
            runs = {"oracle": run(block_if)}
        runs["batch"] = run(block_if)
        for label, (trace, out) in runs.items():
            assert_trace_equal(trace, ref_trace, label)
            np.testing.assert_array_equal(out, ref_out)

    def test_probe_records_engagement(self):
        del LAUNCH_ROUTES[:]
        gpu = GPU()
        out = gpu.alloc(256, dtype=np.int64)

        def k(ctx, out):
            ctx.store(out, ctx.gtid, ctx.gtid * 3)

        gpu.launch(k, 4, 64, out)
        assert LAUNCH_ROUTES == [("k", "batch", 4)]
