"""The GPU device: memory management and kernel launching.

A :class:`GPU` owns the simulated address space, the small functional
texture/constant caches, and the :class:`~repro.gpusim.trace.KernelTrace`
being accumulated.  Kernels are launched with CUDA-like geometry::

    gpu = GPU()
    out = gpu.alloc(1024)
    gpu.launch(my_kernel, grid=8, block=128, out)
    result = out.to_host()
    trace = gpu.trace
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro import telemetry
# Tests patch ``run_blocks`` here to swap in the per-block oracle.
from repro.gpusim.batch import LAUNCH_ROUTES, run_blocks  # noqa: F401
from repro.gpusim.config import GPUConfig
from repro.gpusim.isa import Space
from repro.gpusim.memory import Allocator, CacheModel, DeviceArray
from repro.gpusim.trace import KernelTrace

Dim = Union[int, Tuple[int, int]]

#: Functional texture/constant cache geometry.  Real GPUs have small
#: per-SM read-only caches shared by that SM's resident CTAs; since our
#: blocks execute sequentially, a single modest cache approximates the
#: per-CTA share of one SM's cache.
_TEX_CACHE_BYTES = 16 * 1024
_CONST_CACHE_BYTES = 16 * 1024


def _as_2d(dim: Dim) -> Tuple[int, int]:
    if isinstance(dim, tuple):
        if len(dim) == 1:
            return (int(dim[0]), 1)
        if len(dim) != 2:
            raise ValueError("only 1-D or 2-D geometry is supported")
        return (int(dim[0]), int(dim[1]))
    return (int(dim), 1)


class GPU:
    """A simulated GPU device."""

    def __init__(self, config: Optional[GPUConfig] = None, app_name: str = ""):
        self.config = config or GPUConfig.sim_default()
        self._allocator = Allocator()
        self.trace = KernelTrace(app_name)
        self.tex_cache = CacheModel(_TEX_CACHE_BYTES, assoc=4, hash_sets=True)
        self.const_cache = CacheModel(_CONST_CACHE_BYTES, assoc=4)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def alloc(
        self,
        shape,
        dtype=np.float32,
        space: Space = Space.GLOBAL,
        name: str = "",
    ) -> DeviceArray:
        """Allocate a zero-initialized device array."""
        data = np.zeros(shape, dtype=dtype)
        base = self._allocator.alloc(data.nbytes, space)
        return DeviceArray(data, base, space, name)

    def to_device(
        self,
        host: np.ndarray,
        space: Space = Space.GLOBAL,
        name: str = "",
    ) -> DeviceArray:
        """Copy a host array into device memory."""
        data = np.array(host)  # defensive copy, keeps dtype
        base = self._allocator.alloc(data.nbytes, space)
        return DeviceArray(data, base, space, name)

    def to_texture(self, host: np.ndarray, name: str = "") -> DeviceArray:
        """Bind a host array to cached texture memory."""
        return self.to_device(host, Space.TEX, name)

    def to_const(self, host: np.ndarray, name: str = "") -> DeviceArray:
        """Copy a host array into cached constant memory."""
        return self.to_device(host, Space.CONST, name)

    def params(self, host: np.ndarray, name: str = "") -> DeviceArray:
        """Kernel-call parameter memory (always treated as cache hits)."""
        return self.to_device(host, Space.PARAM, name)

    def _alloc_shared(self, shape, dtype, name: str) -> DeviceArray:
        data = np.zeros(shape, dtype=dtype)
        base = self._allocator.alloc(data.nbytes, Space.SHARED)
        return DeviceArray(data, base, Space.SHARED, name)

    # ------------------------------------------------------------------
    # Kernel launch
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: Callable,
        grid: Dim,
        block: Dim,
        *args,
        regs_per_thread: int = 16,
        name: Optional[str] = None,
    ) -> None:
        """Launch ``kernel(ctx, *args)`` over the given geometry.

        ``grid`` and ``block`` may be ints or 2-tuples.  Semantically,
        blocks execute sequentially in lockstep (functionally safe for
        race-free kernels) with a fresh shared-memory arena each; the
        block-batched engine (:mod:`repro.gpusim.batch`) performs that
        execution many blocks at a time with bit-identical traces.  A
        kernel outside its DSL contract raises, naming the kernel and
        the contract.
        """
        grid2 = _as_2d(grid)
        block2 = _as_2d(block)
        threads = block2[0] * block2[1]
        if threads < 1 or threads > 1024:
            raise ValueError(f"block size {threads} out of range [1, 1024]")
        launch = self.trace.new_launch(
            name or getattr(kernel, "__name__", "kernel"),
            grid2,
            block2,
            regs_per_thread,
        )
        n_blocks = grid2[0] * grid2[1]
        with telemetry.span(
            "kernel_launch", kernel=launch.kernel_name, blocks=n_blocks,
            threads=threads,
        ):
            run_blocks(self, launch, kernel, grid2, block2, args, n_blocks)

    def reset_trace(self, app_name: str = "") -> KernelTrace:
        """Return the accumulated trace and start a fresh one."""
        done = self.trace
        self.trace = KernelTrace(app_name or done.app_name)
        self.tex_cache = self.tex_cache.clone_empty()
        self.const_cache = self.const_cache.clone_empty()
        return done
