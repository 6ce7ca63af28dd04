"""The instrumented machine and thread contexts.

The paper collects its CPU metrics with Pin over 8-thread runs sharing a
single cache.  Here, workloads are written against :class:`ThreadCtx`
(loads, stores, ALU/branch accounting, barriers); the :class:`Machine`
runs the logical threads of a parallel region one after another —
functionally identical for fork-join data-parallel code — and then
interleaves their recorded access batches round-robin in fixed quanta so
the merged trace approximates the concurrent order seen by a shared
cache.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.common.chunkstore import ChunkStore

IndexLike = Union[int, np.ndarray, Sequence[int]]

#: Accesses per thread per interleaving quantum.
DEFAULT_QUANTUM = 64

#: Column layout of the merged machine trace.
TRACE_DTYPES = (np.dtype(np.int64), np.dtype(np.int16), np.dtype(bool))


class HostArray:
    """A typed array in the instrumented address space."""

    def __init__(self, data: np.ndarray, base: int, name: str = ""):
        self.data = data
        self.base = base
        self.name = name or f"arr@{base:#x}"

    @property
    def itemsize(self) -> int:
        return self.data.dtype.itemsize

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def to_host(self) -> np.ndarray:
        return self.data.copy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"HostArray({self.name}, shape={self.shape})"


@dataclasses.dataclass
class OpCounts:
    """Element-level dynamic operation counts (instruction mix)."""

    alu: int = 0
    branch: int = 0
    load: int = 0
    store: int = 0

    @property
    def total(self) -> int:
        return self.alu + self.branch + self.load + self.store

    @property
    def mem(self) -> int:
        return self.load + self.store

    def mix(self) -> Dict[str, float]:
        t = self.total or 1
        return {
            "alu": self.alu / t,
            "branch": self.branch / t,
            "load": self.load / t,
            "store": self.store / t,
        }

    def add(self, other: "OpCounts") -> None:
        self.alu += other.alu
        self.branch += other.branch
        self.load += other.load
        self.store += other.store


class ThreadCtx:
    """One logical thread of a parallel region."""

    def __init__(self, machine: "Machine", tid: int, nthreads: int):
        self.machine = machine
        self.tid = tid
        self.nthreads = nthreads
        self.counts = OpCounts()
        self._addr_chunks: List[np.ndarray] = []
        self._write_chunks: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def alu(self, n: int = 1) -> None:
        """Charge ``n`` arithmetic/logic operations."""
        self.counts.alu += int(n)

    def branch(self, n: int = 1) -> None:
        """Charge ``n`` conditional branches."""
        self.counts.branch += int(n)

    def _record(self, addrs: np.ndarray, is_write: bool) -> None:
        self._addr_chunks.append(addrs)
        self._write_chunks.append(np.full(addrs.size, is_write, dtype=bool))

    def _flat_index(self, arr: HostArray, idx: IndexLike) -> np.ndarray:
        """``idx`` as a flat int64 array, bounds-checked against ``arr``."""
        flat = np.asarray(idx, dtype=np.int64).reshape(-1)
        if flat.size and (flat.min() < 0 or flat.max() >= arr.size):
            bad = flat[(flat < 0) | (flat >= arr.size)][0]
            raise IndexError(
                f"thread {self.tid}: index {bad} out of bounds for "
                f"{arr.name} (size {arr.size})"
            )
        return flat

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def load(self, arr: HostArray, idx: IndexLike) -> np.ndarray:
        """Instrumented gather; returns the loaded values."""
        flat = self._flat_index(arr, idx)
        self.counts.load += flat.size
        self._record(arr.base + flat * arr.itemsize, False)
        vals = arr.data.reshape(-1)[flat]
        shape = np.shape(idx)
        return vals.reshape(shape) if shape else vals[0]

    def store(self, arr: HostArray, idx: IndexLike, values) -> None:
        """Instrumented scatter."""
        flat = self._flat_index(arr, idx)
        self.counts.store += flat.size
        self._record(arr.base + flat * arr.itemsize, True)
        vals = np.broadcast_to(
            np.asarray(values, dtype=arr.data.dtype), flat.shape
        ).reshape(-1)
        arr.data.reshape(-1)[flat] = vals

    def update(self, arr: HostArray, idx: IndexLike, fn: Callable) -> None:
        """Read-modify-write: ``arr[idx] = fn(arr[idx])``."""
        vals = self.load(arr, idx)
        self.alu(np.asarray(idx).size if np.ndim(idx) else 1)
        self.store(arr, idx, fn(vals))

    # ------------------------------------------------------------------
    # Work partitioning
    # ------------------------------------------------------------------
    def chunk(self, n: int) -> range:
        """This thread's block-partitioned slice of ``range(n)``."""
        per = (n + self.nthreads - 1) // self.nthreads
        lo = min(n, self.tid * per)
        hi = min(n, lo + per)
        return range(lo, hi)

    def strided(self, n: int) -> range:
        """This thread's cyclic (round-robin) slice of ``range(n)``."""
        return range(self.tid, n, self.nthreads)


class Machine:
    """Instrumented shared-memory machine (default 8 threads)."""

    def __init__(
        self,
        n_threads: int = 8,
        line_size: int = 64,
        quantum: int = DEFAULT_QUANTUM,
    ):
        self.n_threads = n_threads
        self.line_size = line_size
        self.quantum = quantum
        self._next_addr = 0x1000_0000
        self.counts = OpCounts()
        # Per-thread dynamic instruction totals (for load-balance analysis).
        self.thread_insts = np.zeros(n_threads, dtype=np.int64)
        # Merged (addr, tid, is_write) trace as fixed-size column chunks
        # that spill to compressed segments past the trace budget.
        self._trace = ChunkStore(TRACE_DTYPES, label="cpu")

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def array(self, data: np.ndarray, name: str = "") -> HostArray:
        buf = np.array(data)
        base = self._next_addr
        self._next_addr += (buf.nbytes + 255) // 256 * 256
        return HostArray(buf, base, name)

    def alloc(self, shape, dtype=np.float64, name: str = "") -> HostArray:
        return self.array(np.zeros(shape, dtype=dtype), name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def parallel(self, fn: Callable, *args, n_threads: Optional[int] = None) -> list:
        """Run ``fn(thread_ctx, *args)`` on each logical thread.

        Threads execute sequentially (fork-join semantics); their access
        batches are interleaved round-robin in ``quantum``-sized slices
        into the machine trace.  Returns the per-thread return values.
        """
        nt = n_threads or self.n_threads
        ctxs = [ThreadCtx(self, tid, nt) for tid in range(nt)]
        results = [fn(ctx, *args) for ctx in ctxs]
        self._merge_region(ctxs)
        return results

    def serial(self, fn: Callable, *args):
        """Run a sequential phase on thread 0."""
        ctx = ThreadCtx(self, 0, 1)
        result = fn(ctx, *args)
        self._merge_region([ctx])
        return result

    def _merge_region(self, ctxs: List[ThreadCtx]) -> None:
        per_thread = []
        for ctx in ctxs:
            self.counts.add(ctx.counts)
            if ctx.tid < self.n_threads:
                self.thread_insts[ctx.tid] += ctx.counts.total
            if ctx._addr_chunks:
                per_thread.append(
                    (
                        ctx.tid,
                        np.concatenate(ctx._addr_chunks),
                        np.concatenate(ctx._write_chunks),
                    )
                )
        if not per_thread:
            return
        if len(per_thread) == 1:
            tid, addrs, writes = per_thread[0]
            self._trace.append(
                addrs, np.full(addrs.size, tid, dtype=np.int16), writes
            )
            return
        q = self.quantum
        cursors = [0] * len(per_thread)
        sizes = [t[1].size for t in per_thread]
        out_a, out_t, out_w = [], [], []
        remaining = sum(sizes)
        while remaining > 0:
            for i, (tid, addrs, writes) in enumerate(per_thread):
                c = cursors[i]
                if c >= sizes[i]:
                    continue
                hi = min(sizes[i], c + q)
                out_a.append(addrs[c:hi])
                out_t.append(np.full(hi - c, tid, dtype=np.int16))
                out_w.append(writes[c:hi])
                remaining -= hi - c
                cursors[i] = hi
        self._trace.append(
            np.concatenate(out_a),
            np.concatenate(out_t),
            np.concatenate(out_w),
        )

    # ------------------------------------------------------------------
    # Trace access
    # ------------------------------------------------------------------
    def trace(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(addr, tid, is_write) arrays of the merged access trace.

        Dense materialization — the oracle/compat view.  Streaming
        consumers iterate :meth:`iter_trace_chunks` so spilled chunks
        never re-assemble in memory.
        """
        return self._trace.columns()

    def iter_trace_chunks(
        self,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(addr, tid, is_write) column chunks in merged-trace order."""
        return self._trace.iter_chunks()

    @property
    def n_accesses(self) -> int:
        return self._trace.n_rows

    def data_footprint_pages(self, page_bytes: int = 4096) -> int:
        """Distinct data pages touched (Figure 12)."""
        pages: np.ndarray = np.empty(0, dtype=np.int64)
        for addrs, _, _ in self.iter_trace_chunks():
            pages = np.union1d(pages, addrs // page_bytes)
        return int(pages.size)

    def load_imbalance(self) -> float:
        """Max/mean dynamic instructions across threads (1.0 = perfect).

        Bienia-style parallelization-quality measure: a value of 2.0
        means the busiest thread executed twice the average, i.e. the
        parallel section's critical path is ~2x the balanced optimum.
        """
        busy = self.thread_insts[self.thread_insts > 0]
        if busy.size == 0:
            return 1.0
        return float(busy.max() / busy.mean())
