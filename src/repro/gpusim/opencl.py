"""OpenCL-flavored front end for the SIMT simulator (paper future work).

The paper notes Rodinia's OpenCL ports were in progress and that "OpenCL
and CUDA use very similar sets of abstractions, such that CUDA is
sufficient for the characterization"; Section VII lists OpenCL support
as planned.  This module provides the OpenCL vocabulary over the same
execution engine, so OpenCL-style kernels produce identical traces to
their CUDA-style twins:

    dev = CLDevice()
    buf = dev.buffer(np.arange(1024, dtype=np.float32))
    out = dev.buffer_like(buf)

    def vadd(cl, a, b):           # work-group at a time, like the DSL
        gid = cl.get_global_id(0)
        with cl.mask(gid < 1024):
            cl.write(b, gid, cl.read(a, gid) + 1)

    dev.enqueue_nd_range(vadd, global_size=1024, local_size=128,
                         args=(buf, out))
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.gpusim.config import GPUConfig
from repro.gpusim.dsl import BlockCtx
from repro.gpusim.gpu import GPU
from repro.gpusim.memory import DeviceArray
from repro.gpusim.trace import KernelTrace


class WorkGroupCtx:
    """OpenCL view of a thread block: work-items, NDRange ids, barrier.

    Thin adapter over :class:`~repro.gpusim.dsl.BlockCtx`; every memory
    and control-flow operation delegates to the underlying SIMT context,
    so statistics are identical to the CUDA-style DSL's.
    """

    def __init__(self, ctx: BlockCtx):
        self._ctx = ctx

    # --- NDRange geometry ------------------------------------------------
    def get_global_id(self, dim: int = 0) -> np.ndarray:
        if dim == 0:
            return self._ctx.gx if self._ctx.bdim[1] > 1 else self._ctx.gtid
        if dim == 1:
            return self._ctx.gy
        raise ValueError("only 1-D and 2-D NDRanges are supported")

    def get_local_id(self, dim: int = 0) -> np.ndarray:
        if dim == 0:
            return self._ctx.tx if self._ctx.bdim[1] > 1 else self._ctx.tidx
        if dim == 1:
            return self._ctx.ty
        raise ValueError("only 1-D and 2-D NDRanges are supported")

    def get_group_id(self, dim: int = 0) -> Union[int, np.ndarray]:
        """The work-group id: a ``(B, 1)`` column on the batch engine (an
        int on the per-block oracle), so a Python ``if`` on it raises."""
        if dim == 0:
            return self._ctx.bx
        if dim == 1:
            return self._ctx.by
        raise ValueError("only 1-D and 2-D NDRanges are supported")

    def get_local_size(self, dim: int = 0) -> int:
        return self._ctx.bdim[dim]

    # --- memory -----------------------------------------------------------
    def read(self, buf: DeviceArray, idx) -> np.ndarray:
        return self._ctx.load(buf, idx)

    def write(self, buf: DeviceArray, idx, values) -> None:
        self._ctx.store(buf, idx, values)

    def atomic_add(self, buf: DeviceArray, idx, values) -> None:
        self._ctx.atomic_add(buf, idx, values)

    def local_array(self, shape, dtype=np.float32) -> DeviceArray:
        """__local memory (CUDA __shared__)."""
        return self._ctx.shared(shape, dtype=dtype)

    # --- control flow -------------------------------------------------
    def mask(self, cond):
        return self._ctx.masked(cond)

    def loop(self, cond_fn):
        return self._ctx.while_(cond_fn)

    def barrier(self) -> None:
        """barrier(CLK_LOCAL_MEM_FENCE)."""
        self._ctx.sync()

    def compute(self, n: int = 1) -> None:
        """Charge n arithmetic operations (same as BlockCtx.alu)."""
        self._ctx.alu(n)

    def select(self, cond, a, b):
        return self._ctx.select(cond, a, b)


class CLDevice:
    """An OpenCL-style device/queue over the simulated GPU."""

    def __init__(self, config: Optional[GPUConfig] = None, name: str = ""):
        self._gpu = GPU(config, app_name=name)

    # --- buffers -------------------------------------------------------
    def buffer(self, host: np.ndarray, name: str = "") -> DeviceArray:
        """clCreateBuffer + clEnqueueWriteBuffer."""
        return self._gpu.to_device(host, name=name)

    def buffer_like(self, other: DeviceArray, name: str = "") -> DeviceArray:
        return self._gpu.alloc(other.shape, dtype=other.dtype, name=name)

    def alloc(self, shape, dtype=np.float32, name: str = "") -> DeviceArray:
        return self._gpu.alloc(shape, dtype=dtype, name=name)

    def image(self, host: np.ndarray, name: str = "") -> DeviceArray:
        """Read-only image object (maps to the texture path)."""
        return self._gpu.to_texture(host, name=name)

    def constant(self, host: np.ndarray, name: str = "") -> DeviceArray:
        """__constant buffer."""
        return self._gpu.to_const(host, name=name)

    def read_buffer(self, buf: DeviceArray) -> np.ndarray:
        """clEnqueueReadBuffer."""
        return buf.to_host()

    # --- execution -------------------------------------------------------
    def enqueue_nd_range(
        self,
        kernel: Callable,
        global_size,
        local_size,
        args: Tuple = (),
        name: Optional[str] = None,
    ) -> None:
        """clEnqueueNDRangeKernel: 1-D or 2-D NDRanges.

        ``global_size`` must be a multiple of ``local_size`` in each
        dimension (as OpenCL requires).
        """
        gs = global_size if isinstance(global_size, tuple) else (global_size,)
        ls = local_size if isinstance(local_size, tuple) else (local_size,)
        if len(gs) != len(ls):
            raise ValueError("global and local sizes must have equal rank")
        if any(g % l for g, l in zip(gs, ls)):
            raise ValueError("global_size must be a multiple of local_size")
        grid = tuple(g // l for g, l in zip(gs, ls))
        if len(grid) == 1:
            grid, block = grid[0], ls[0]
        else:
            block = ls

        def launcher(ctx, *inner_args):
            kernel(WorkGroupCtx(ctx), *inner_args)

        self._gpu.launch(
            launcher, grid, block, *args,
            name=name or getattr(kernel, "__name__", "cl_kernel"),
        )

    @property
    def trace(self) -> KernelTrace:
        return self._gpu.trace

    def finish(self) -> KernelTrace:
        """clFinish: returns the accumulated trace and starts fresh."""
        return self._gpu.reset_trace()
