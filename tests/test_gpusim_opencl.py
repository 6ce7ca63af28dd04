"""Tests for the OpenCL-flavored front end."""

import numpy as np
import pytest

from repro.gpusim import GPU, GPUConfig
from repro.gpusim.opencl import CLDevice


class TestNDRange:
    def test_vector_add_1d(self):
        dev = CLDevice()
        n = 1024
        a = dev.buffer(np.arange(n, dtype=np.float32))
        out = dev.buffer_like(a)

        def vadd(cl, a, out):
            gid = cl.get_global_id(0)
            with cl.mask(gid < n):
                cl.compute(1)
                cl.write(out, gid, cl.read(a, gid) + 1)

        dev.enqueue_nd_range(vadd, global_size=n, local_size=128,
                             args=(a, out))
        np.testing.assert_allclose(dev.read_buffer(out), np.arange(n) + 1)

    def test_2d_ndrange(self):
        dev = CLDevice()
        out = dev.alloc((8, 8), dtype=np.int64)

        def k(cl, out):
            gx = cl.get_global_id(0)
            gy = cl.get_global_id(1)
            cl.write(out, gy * 8 + gx, gy * 10 + gx)

        dev.enqueue_nd_range(k, global_size=(8, 8), local_size=(4, 4),
                             args=(out,))
        expect = np.arange(8)[:, None] * 10 + np.arange(8)[None, :]
        np.testing.assert_array_equal(dev.read_buffer(out), expect)

    def test_global_must_divide_local(self):
        dev = CLDevice()
        with pytest.raises(ValueError):
            dev.enqueue_nd_range(lambda cl: None, global_size=100,
                                 local_size=64)

    def test_rank_mismatch(self):
        dev = CLDevice()
        with pytest.raises(ValueError):
            dev.enqueue_nd_range(lambda cl: None, global_size=(8, 8),
                                 local_size=4)

    def test_local_memory_and_barrier(self):
        dev = CLDevice()
        out = dev.alloc(4, dtype=np.float64)

        def block_sum(cl, out):
            # Tree reduction in __local memory; work-item 0 writes the
            # group's sum to out[get_group_id(0)].
            size = cl.get_local_size(0)
            lmem = cl.local_array(size, dtype=np.float64)
            lid = cl.get_local_id(0)
            cl.write(lmem, lid, cl.get_global_id(0).astype(np.float64))
            stride = size // 2
            while stride:
                cl.barrier()
                with cl.mask(lid < stride):
                    cl.write(lmem, lid,
                             cl.read(lmem, lid) + cl.read(lmem, lid + stride))
                stride //= 2
            with cl.mask(lid == 0):
                cl.write(out, cl.get_group_id(0), cl.read(lmem, 0))

        dev.enqueue_nd_range(block_sum, global_size=128, local_size=32,
                             args=(out,))
        expect = [np.arange(g * 32, (g + 1) * 32).sum() for g in range(4)]
        np.testing.assert_allclose(dev.read_buffer(out), expect)


class TestTraceEquivalence:
    """OpenCL-style kernels must produce identical traces to CUDA-style."""

    def _cuda_run(self):
        gpu = GPU()
        n = 512
        a = gpu.to_device(np.arange(n, dtype=np.float32))
        out = gpu.alloc(n)

        def k(ctx, a, out):
            i = ctx.gtid
            with ctx.masked(i < n):
                ctx.alu(2)
                ctx.store(out, i, ctx.load(a, i) * 3)

        gpu.launch(k, n // 64, 64, a, out)
        return gpu.trace

    def _cl_run(self):
        dev = CLDevice()
        n = 512
        a = dev.buffer(np.arange(n, dtype=np.float32))
        out = dev.buffer_like(a)

        def k(cl, a, out):
            gid = cl.get_global_id(0)
            with cl.mask(gid < n):
                cl.compute(2)
                cl.write(out, gid, cl.read(a, gid) * 3)

        dev.enqueue_nd_range(k, n, 64, args=(a, out))
        return dev.trace

    def test_identical_statistics(self):
        cuda = self._cuda_run()
        cl = self._cl_run()
        assert cuda.thread_insts == cl.thread_insts
        assert cuda.issued_warp_insts == cl.issued_warp_insts
        assert cuda.mem_mix() == cl.mem_mix()
        np.testing.assert_array_equal(cuda.occupancy_hist, cl.occupancy_hist)

    def test_memory_object_kinds(self):
        dev = CLDevice()
        img = dev.image(np.zeros(64, dtype=np.float32))
        cst = dev.constant(np.zeros(16, dtype=np.float32))

        def k(cl, img, cst):
            gid = cl.get_global_id(0)
            cl.read(img, gid)
            cl.read(cst, 0)

        dev.enqueue_nd_range(k, 64, 64, args=(img, cst))
        mix = dev.trace.mem_mix()
        assert mix["tex"] == pytest.approx(0.5)
        assert mix["const"] == pytest.approx(0.5)

    def test_finish_resets(self):
        dev = CLDevice()
        out = dev.alloc(32)
        dev.enqueue_nd_range(
            lambda cl, o: cl.write(o, cl.get_global_id(0), 1.0),
            32, 32, args=(out,))
        first = dev.finish()
        assert first.n_launches == 1
        assert dev.trace.n_launches == 0
