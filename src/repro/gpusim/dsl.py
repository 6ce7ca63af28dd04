"""Warp-masked SIMT kernel DSL.

Kernels are Python functions ``kernel(ctx, *args)`` invoked once per
thread block.  ``ctx`` carries one numpy lane per thread; divergent
control flow is expressed with structured constructs that maintain an
active-lane mask exactly as a SIMT reconvergence stack would for
structured code:

    with ctx.masked(cond):          # if (cond) { ... }
        ...
    for _ in ctx.while_(lambda: i < n):   # while (i < n) { ... }
        ...

Host branches on a block-uniform value -- a persistent block's strip
range, LUD's row/column split -- use ``ctx.block_if`` on a value derived
from ``ctx.bidx``; it charges nothing, because the branch is the host's:

    for _ in ctx.block_if(ctx.bidx < rem):    # if (blockIdx.x < rem)
        ...

Executing a whole block in lockstep is functionally safe for race-free
kernels (it is strictly *more* synchronized than hardware), which makes
``ctx.sync()`` a pure accounting event.  Every charged instruction is
sliced into 32-lane warp chunks for occupancy and issue accounting.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Union

import numpy as np

from repro.gpusim.isa import Category, Space, TRANSACTION_BYTES
from repro.gpusim.memory import DeviceArray, bank_conflict_degree, coalesce
from repro.gpusim.trace import LaunchTrace

ArrayLike = Union[np.ndarray, int, float, bool]


class KernelFault(RuntimeError):
    """Raised when an active lane accesses an array out of bounds."""


class BlockCtx:
    """Execution context of one thread block.

    Lane-wise values are numpy arrays of length ``nthreads`` (the flat
    block size); scalars broadcast.  Loads return full-length arrays with
    inactive lanes zeroed; stores ignore inactive lanes.
    """

    WARP = 32

    def __init__(
        self,
        gpu: "repro.gpusim.gpu.GPU",
        launch: LaunchTrace,
        block_idx: int,
        grid: tuple,
        block: tuple,
    ):
        self._gpu = gpu
        self._launch = launch
        self._grid = grid
        self._block = block
        self.nthreads = block[0] * block[1]
        self.bidx = block_idx
        self.bx = block_idx % grid[0]
        self.by = block_idx // grid[0]
        self.tidx = np.arange(self.nthreads)
        self.tx = self.tidx % block[0]
        self.ty = self.tidx // block[0]
        self.gtid = block_idx * self.nthreads + self.tidx
        self.mask = np.ones(self.nthreads, dtype=bool)
        self._n_warps = (self.nthreads + self.WARP - 1) // self.WARP
        self._pad = self._n_warps * self.WARP - self.nthreads
        self._shared_bytes = 0

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def gdim(self) -> tuple:
        return self._grid

    @property
    def bdim(self) -> tuple:
        return self._block

    @property
    def gx(self) -> np.ndarray:
        """Global x coordinate for 2-D grids/blocks."""
        return self.bx * self._block[0] + self.tx

    @property
    def gy(self) -> np.ndarray:
        return self.by * self._block[1] + self.ty

    # ------------------------------------------------------------------
    # Accounting primitives
    # ------------------------------------------------------------------
    def _warp_actives(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        m = self.mask if mask is None else mask
        if self._pad:
            m = np.concatenate([m, np.zeros(self._pad, dtype=bool)])
        return m.reshape(self._n_warps, self.WARP).sum(axis=1)

    def _charge(self, category: Category, repeat: int = 1) -> np.ndarray:
        """Charge one instruction at the current mask; returns warp actives."""
        actives = self._warp_actives()
        self._launch.charge_warps(category, actives, repeat)
        return actives

    def alu(self, n: int = 1) -> None:
        """Charge ``n`` arithmetic instructions at the current mask."""
        if n > 0 and self.mask.any():
            self._charge(Category.ALU, repeat=n)

    def branch(self) -> None:
        if self.mask.any():
            self._charge(Category.BRANCH)

    def sync(self) -> None:
        """__syncthreads(): accounting only (blocks run in lockstep)."""
        self._launch.charge_warps(
            Category.SYNC, self._warp_actives(np.ones(self.nthreads, dtype=bool))
        )

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def const(self, value: ArrayLike, dtype=None) -> np.ndarray:
        """Broadcast a scalar (or pass through an array) to lane width."""
        arr = np.asarray(value, dtype=dtype)
        if arr.ndim == 0:
            arr = np.full(self.nthreads, arr)
        if arr.shape != (self.nthreads,):
            raise ValueError(f"lane value must have shape ({self.nthreads},)")
        return arr

    def select(self, cond: np.ndarray, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Predicated select (charges one ALU instruction)."""
        self.alu(1)
        return np.where(cond, a, b)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    @contextmanager
    def masked(self, cond: np.ndarray):
        """Structured if: body executes with ``mask & cond`` active."""
        cond = np.asarray(cond, dtype=bool)
        self.branch()
        saved = self.mask
        self.mask = saved & cond
        try:
            yield self.mask.any()
        finally:
            self.mask = saved

    def if_else(self, cond: np.ndarray, then_fn: Callable, else_fn: Callable) -> None:
        """If/else with both sides serialized, as SIMT hardware does."""
        cond = np.asarray(cond, dtype=bool)
        with self.masked(cond):
            then_fn()
        with self.masked(~cond):
            else_fn()

    def while_(self, cond_fn: Callable[[], np.ndarray]) -> Iterator[int]:
        """Structured loop: iterate while any lane's condition holds.

        Lanes whose condition becomes false are masked off for the rest
        of the loop (no ``continue``-style re-entry), matching structured
        SIMT reconvergence.
        """
        saved = self.mask.copy()
        active = saved.copy()
        iteration = 0
        try:
            while True:
                self.mask = active
                self.branch()
                cond = np.asarray(cond_fn(), dtype=bool)
                active = active & cond
                if not active.any():
                    break
                self.mask = active
                yield iteration
                active = active & self.mask  # lanes may self-mask via break_()
                iteration += 1
        finally:
            self.mask = saved

    def block_if(self, cond) -> Iterator[None]:
        """Host-level ``if`` on a block-uniform value.

        Used as ``for _ in ctx.block_if(cond): ...``: the body runs once
        iff ``cond`` holds for this block, and nothing is charged (the
        branch is taken by the host code, not by a warp).  Write ``cond``
        as lane arithmetic on ``ctx.bidx`` (or other block-uniform
        values) so the batch engine can evaluate it for many blocks.
        """
        if cond:
            yield None

    def range_(self, n: Union[int, np.ndarray]) -> Iterator[int]:
        """Counted loop with a per-lane (or scalar) trip count."""
        counts = self.const(n, dtype=np.int64)
        i = {"v": 0}

        def cond():
            return i["v"] < counts

        for it in self.while_(cond):
            yield it
            i["v"] += 1

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def shared(self, shape, dtype=np.float32, name: str = "") -> DeviceArray:
        """Allocate per-block shared memory (zero-initialized)."""
        arr = self._gpu._alloc_shared(shape, dtype, name)
        self._shared_bytes += arr.nbytes
        self._launch.shared_bytes_per_block = max(
            self._launch.shared_bytes_per_block, self._shared_bytes
        )
        return arr

    def _active_addrs(self, arr: DeviceArray, idx: np.ndarray) -> tuple:
        """Validated lane indices: (full idx, active mask, active indices).

        Byte addresses are *not* computed here — accounting derives them
        per 32-lane warp in :meth:`_warp_addr_chunks`.
        """
        idx = self.const(idx, dtype=np.int64)
        active = self.mask
        act_idx = idx[active]
        if act_idx.size and (act_idx.min() < 0 or act_idx.max() >= arr.size):
            bad = act_idx[(act_idx < 0) | (act_idx >= arr.size)][0]
            raise KernelFault(
                f"lane index {bad} out of bounds for {arr.name} (size {arr.size})"
            )
        return idx, active, act_idx

    def _warp_addr_chunks(
        self, arr: DeviceArray, idx: np.ndarray, active: np.ndarray
    ) -> Iterator[np.ndarray]:
        """Active lane addresses, one array per live 32-lane warp."""
        for w in range(self._n_warps):
            lo = w * self.WARP
            hi = min(lo + self.WARP, self.nthreads)
            m = active[lo:hi]
            if m.any():
                yield arr.base + idx[lo:hi][m] * arr.itemsize

    def _account_mem(
        self, arr: DeviceArray, idx: np.ndarray, active: np.ndarray, is_store: bool
    ) -> None:
        """Charge one memory instruction; coalescing, bank conflicts, and
        broadcast detection all operate per 32-lane warp, as hardware does."""
        launch = self._launch
        # Address generation: real kernels spend roughly one integer
        # instruction computing each access's address.
        self._charge(Category.ALU)
        actives = self._charge(Category.MEM)
        n_warps = int((actives > 0).sum())
        launch.charge_mem_space(arr.space, n_warps)
        space = arr.space
        if space in (Space.GLOBAL, Space.LOCAL):
            for wa in self._warp_addr_chunks(arr, idx, active):
                launch.record_transactions(coalesce(wa), self.bidx, is_store)
        elif space == Space.SHARED:
            for wa in self._warp_addr_chunks(arr, idx, active):
                degree = bank_conflict_degree(wa)
                if degree > 1:
                    launch.shared_replays += degree - 1
        elif space == Space.CONST:
            for wa in self._warp_addr_chunks(arr, idx, active):
                launch.const_accesses += wa.size
                uniq = np.unique(wa // 64)
                if uniq.size > 1:
                    launch.const_serializations += uniq.size - 1
                hits = self._gpu.const_cache.access(uniq * 64)
                misses = int((~hits).sum())
                launch.const_hits += wa.size - misses
                launch.record_transactions((uniq * 64)[~hits], self.bidx, False)
        elif space == Space.TEX:
            for wa in self._warp_addr_chunks(arr, idx, active):
                tx = coalesce(wa)
                launch.tex_accesses += wa.size
                hits = self._gpu.tex_cache.access(tx)
                launch.tex_hits += wa.size - int((~hits).sum())
                launch.record_transactions(tx[~hits], self.bidx, False)
        # PARAM: always treated as a cache hit (paper, Fig. 2 caption).

    def load(self, arr: DeviceArray, idx: ArrayLike) -> np.ndarray:
        """Per-lane gather from a device array (masked)."""
        if not self.mask.any():
            return np.zeros(self.nthreads, dtype=arr.dtype)
        idx, active, act_idx = self._active_addrs(arr, idx)
        self._account_mem(arr, idx, active, is_store=False)
        out = np.zeros(self.nthreads, dtype=arr.dtype)
        out[active] = arr.data.flat[act_idx]
        return out

    def store(self, arr: DeviceArray, idx: ArrayLike, values: ArrayLike) -> None:
        """Per-lane scatter to a device array (masked)."""
        if not self.mask.any():
            return
        idx, active, act_idx = self._active_addrs(arr, idx)
        self._account_mem(arr, idx, active, is_store=True)
        vals = self.const(values, dtype=arr.dtype)
        arr.data.flat[act_idx] = vals[active]

    def atomic_add(self, arr: DeviceArray, idx: ArrayLike, values: ArrayLike) -> None:
        """Atomic add (correct under duplicate lane indices)."""
        if not self.mask.any():
            return
        idx, active, act_idx = self._active_addrs(arr, idx)
        self._account_mem(arr, idx, active, is_store=True)
        vals = self.const(values, dtype=arr.dtype)
        np.add.at(arr.data.reshape(-1), act_idx, vals[active])

    # ------------------------------------------------------------------
    # Common kernel idioms
    # ------------------------------------------------------------------
    def block_reduce_sum(self, values: np.ndarray, smem: DeviceArray) -> float:
        """Tree reduction over the block through shared memory.

        Reproduces the classic halving pattern whose shrinking active set
        the paper highlights for Back Propagation (Section III-B).
        Returns the block total (a host scalar); ``smem`` must have at
        least ``nthreads`` elements.
        """
        self.store(smem, self.tidx, values)
        stride = self.nthreads // 2
        while stride >= 1:
            self.sync()
            with self.masked(self.tidx < stride):
                a = self.load(smem, self.tidx)
                b = self.load(smem, self.tidx + stride)
                self.alu(1)
                self.store(smem, self.tidx, a + b)
            stride //= 2
        return float(smem.data.flat[0])


def run_blocks_scalar(gpu, launch: LaunchTrace, kernel: Callable,
                      grid: tuple, block: tuple, args: tuple,
                      n_blocks: int) -> None:
    """The reference semantics of a launch: ``kernel(ctx, *args)`` once
    per block, in block order.  The oracle of the batch engine
    (:func:`repro.gpusim.batch.run_blocks`, same signature), which tests
    swap in for ``GPU.launch``; it logs no route."""
    # Masked-off lanes legitimately compute garbage (e.g. x/0); the DSL
    # discards those values, so the warnings are suppressed.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for bidx in range(n_blocks):
            gpu._allocator.reset(Space.SHARED)
            kernel(BlockCtx(gpu, launch, bidx, grid, block), *args)
