"""The instrumented machine and thread contexts.

The paper collects its CPU metrics with Pin over 8-thread runs sharing a
single cache.  Here, workloads are written against :class:`ThreadCtx`
(loads, stores, ALU/branch accounting, barriers); the :class:`Machine`
runs the logical threads of a parallel region one after another —
functionally identical for fork-join data-parallel code — and then
interleaves their access tapes round-robin in fixed quanta so the merged
trace approximates the concurrent order seen by a shared cache.
"""

from __future__ import annotations

import dataclasses
from array import array
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

#: Index types of the scalar path: Python ints and numpy integer scalars.
#: An index out of bounds leaves that path for the vector one, which
#: converts it as ``np.asarray(idx, np.int64)`` before it raises.
_SCALAR_INDEX = frozenset(
    [int] + [np.dtype(c).type for c in np.typecodes["AllInteger"]]
)

#: Value types the scalar path stores with ``ndarray.put``, which casts
#: each exactly as ``np.asarray(value, dtype=arr.data.dtype)`` does.
_SCALAR_VALUE = frozenset(
    [int, float, bool, complex]
    + [t for t in np.sctypeDict.values() if np.dtype(t).kind in "biufc"]
)

_INT64 = np.dtype(np.int64)
_UINT64 = np.dtype(np.uint64)


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
    """One logical thread of a parallel region.

    Every load and store appends to the thread's access tape: one int64
    per access, in program order, holding the byte address shifted left
    one bit with the write flag in bit 0.  A scalar index (a Python int
    or a numpy integer scalar) takes a path that builds no numpy array;
    a flat int64 index array is used as is; any other index is first
    converted the way ``np.asarray(idx, np.int64)`` does.
    """

    def __init__(self, machine: "Machine", tid: int, nthreads: int):
        self.machine = machine
        self.tid = tid
        self.nthreads = nthreads
        self.counts = OpCounts()
        self._tape = array("q")

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def alu(self, n: int = 1) -> None:
        """Charge ``n`` arithmetic/logic operations."""
        self.counts.alu += int(n)

    def branch(self, n: int = 1) -> None:
        """Charge ``n`` conditional branches."""
        self.counts.branch += int(n)

    def _index(self, arr: HostArray, idx: IndexLike):
        """``idx`` as a flat int64 array checked against ``arr``, and the
        shape a load of it returns (None when that is the flat shape)."""
        if type(idx) is np.ndarray and idx.ndim == 1 and idx.dtype == _INT64:
            flat, shape = idx, None
        else:
            flat = np.asarray(idx, dtype=np.int64)
            shape = flat.shape
            flat = flat.reshape(-1)
        if flat.size:
            # One unsigned max bounds both sides: a negative index
            # reads as a huge unsigned one.
            u = flat.view(_UINT64)
            if u[u.argmax()] >= arr.data.size:
                bad = flat[(flat < 0) | (flat >= arr.size)][0]
                raise IndexError(
                    f"thread {self.tid}: index {bad} out of bounds for "
                    f"{arr.name} (size {arr.size})"
                )
        return flat, shape

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def load(self, arr: HostArray, idx: IndexLike) -> np.ndarray:
        """Instrumented gather; returns the loaded values."""
        data = arr.data
        if type(idx) in _SCALAR_INDEX:
            i = int(idx)
            if 0 <= i < data.size:
                self._tape.append((arr.base + i * data.itemsize) << 1)
                self.counts.load += 1
                return data[i] if data.ndim == 1 else data.reshape(-1)[i]
        flat, shape = self._index(arr, idx)
        keys = flat * (data.itemsize << 1) + (arr.base << 1)
        self._tape.frombytes(keys.view(np.uint8))
        self.counts.load += flat.size
        vals = (data if data.ndim == 1 else data.reshape(-1))[flat]
        if shape is None:
            return vals
        return vals.reshape(shape) if shape else vals[0]

    def store(self, arr: HostArray, idx: IndexLike, values) -> None:
        """Instrumented scatter."""
        data = arr.data
        if type(idx) in _SCALAR_INDEX and type(values) in _SCALAR_VALUE:
            i = int(idx)
            if 0 <= i < data.size:
                self._tape.append(((arr.base + i * data.itemsize) << 1) | 1)
                self.counts.store += 1
                data.put(i, values)
                return
        flat, _ = self._index(arr, idx)
        keys = flat * (data.itemsize << 1) + ((arr.base << 1) | 1)
        self._tape.frombytes(keys.view(np.uint8))
        self.counts.store += flat.size
        vals = np.asarray(values, dtype=data.dtype)
        if vals.ndim and vals.shape != flat.shape:
            # Refuses any shape but (1,) that numpy's setitem would take.
            vals = np.broadcast_to(vals, flat.shape)
        (data if data.ndim == 1 else data.reshape(-1))[flat] = vals

    def update(self, arr: HostArray, idx: IndexLike, fn: Callable) -> None:
        """Read-modify-write: ``arr[idx] = fn(arr[idx])``."""
        vals = self.load(arr, idx)
        self.alu(np.size(idx))
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
        tapes are interleaved round-robin in ``quantum``-sized slices
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
        tids, tapes = [], []
        for ctx in ctxs:
            self.counts.add(ctx.counts)
            if ctx.tid < self.n_threads:
                self.thread_insts[ctx.tid] += ctx.counts.total
            if ctx._tape:
                tids.append(ctx.tid)
                tapes.append(np.frombuffer(ctx._tape, dtype=np.int64))
        if not tapes:
            return
        # Round r takes accesses [r*q, (r+1)*q) of every tape still that
        # long, thread by thread: lens[r, i] accesses of tape i, landing
        # at out[r, i] in the merged order.
        sizes = np.array([t.size for t in tapes])
        rounds = np.arange(0, sizes.max(), self.quantum)
        lens = np.clip(sizes - rounds[:, None], 0, self.quantum)
        if len(tapes) == 1:
            keys = tapes[0]
        else:
            out = (np.cumsum(lens) - lens.ravel()).reshape(lens.shape)
            keys = np.empty(sizes.sum(), dtype=np.int64)
            for i, tape in enumerate(tapes):
                dst = np.repeat(out[:, i] - rounds, lens[:, i])
                dst += np.arange(tape.size)
                keys[dst] = tape
        tid_col = np.repeat(
            np.tile(np.array(tids, dtype=np.int16), rounds.size), lens.ravel()
        )
        self._trace.append(keys >> 1, tid_col, (keys & 1).astype(bool))

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
