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

from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry
from repro.common.config import config as runtime_config
from repro.gpusim.config import GPUConfig
from repro.gpusim.dsl import BlockCtx
from repro.gpusim.isa import Space
from repro.gpusim.memory import Allocator, CacheModel, DeviceArray
from repro.gpusim.trace import KernelTrace

Dim = Union[int, Tuple[int, int]]

#: Route log: one entry per launch, ``(kernel_name, "batch" | "scalar",
#: n_blocks)`` — which engine produced the launch's trace.  Importers
#: (``repro.gpusim``, ``repro.gpusim.plans.PLAN_ROUTES``) hold this same
#: list object, so clear it in place and never rebind it.
LAUNCH_ROUTES: List[Tuple[str, str, int]] = []


def batch_enabled() -> bool:
    """Whether launches use the block-batched engine (``REPRO_GPU_BATCH``).

    On by default; set ``REPRO_GPU_BATCH=off`` (or ``0``/``false``) —
    or ``repro.common.config.override(gpu_batch=False)`` — to force
    every launch onto the sequential per-block oracle.
    """
    return runtime_config().gpu_batch

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
        # Kernels whose host-side control flow needs per-block scalars;
        # once a batch attempt fails the kernel goes straight to the
        # scalar engine on later launches.
        self._batch_fallbacks: set = set()

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
        race-free kernels) with a fresh shared-memory arena each; by
        default the block-batched engine (:mod:`repro.gpusim.batch`)
        performs that execution many blocks at a time with bit-identical
        traces, falling back to the per-block loop for kernels that need
        per-block host scalars.
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
            if batch_enabled() and kernel not in self._batch_fallbacks:
                if self._launch_batched(
                    kernel, launch, grid2, block2, args, n_blocks
                ):
                    return
            LAUNCH_ROUTES.append((launch.kernel_name, "scalar", n_blocks))
            telemetry.count("gpusim.batch.launches.scalar")
            telemetry.count("gpusim.batch.blocks.scalar", n_blocks)
            # Masked-off lanes legitimately compute garbage (e.g. x/0);
            # the DSL discards those values, so the warnings are
            # suppressed.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for bidx in range(n_blocks):
                    self._allocator.reset(Space.SHARED)
                    ctx = BlockCtx(self, launch, bidx, grid2, block2)
                    kernel(ctx, *args)

    def _launch_batched(
        self,
        kernel: Callable,
        launch,
        grid2: Tuple[int, int],
        block2: Tuple[int, int],
        args: tuple,
        n_blocks: int,
    ) -> bool:
        """Try the block-batched engine; True on success.

        On any failure — typically a kernel whose Python-level control
        flow needs per-block scalars and trips over ``(B, 1)`` arrays —
        device memory is restored from copy-on-first-write backups, the
        untouched launch trace is handed back to the scalar loop, and the
        kernel is remembered as scalar-only.
        """
        from repro.gpusim.batch import BatchLaunch

        runner = BatchLaunch(self, launch, grid2, block2)
        try:
            runner.run(kernel, args, n_blocks)
        except Exception:
            runner.restore()
            self._batch_fallbacks.add(kernel)
            telemetry.count("gpusim.batch.launches.fallback")
            return False
        runner.commit()
        LAUNCH_ROUTES.append((launch.kernel_name, "batch", n_blocks))
        telemetry.count("gpusim.batch.launches.batched")
        telemetry.count("gpusim.batch.blocks.batched", n_blocks)
        return True

    def reset_trace(self, app_name: str = "") -> KernelTrace:
        """Return the accumulated trace and start a fresh one."""
        done = self.trace
        self.trace = KernelTrace(app_name or done.app_name)
        self.tex_cache = self.tex_cache.clone_empty()
        self.const_cache = self.const_cache.clone_empty()
        return done
