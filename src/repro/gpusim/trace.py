"""Dynamic execution traces.

A :class:`LaunchTrace` accumulates the statistics of one kernel launch;
a :class:`KernelTrace` is the ordered collection of launches from one
application run.  Traces are *timing independent*: they capture the
dynamic instruction stream (counts, occupancy, transaction addresses) so
that the timing model can price the same run under many configurations
(Figures 1, 4, 5 and the Plackett-Burman study all reuse one functional
execution per workload).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.common.chunkstore import ChunkStore
from repro.gpusim.isa import TRANSACTION_BYTES, Category, Space

#: Column layout of a launch's off-chip transaction stream.
TX_DTYPES = (np.dtype(np.int64), np.dtype(np.int32), np.dtype(bool))


class LaunchTrace:
    """Statistics of a single kernel launch."""

    def __init__(
        self,
        kernel_name: str,
        grid: Tuple[int, int],
        block: Tuple[int, int],
        regs_per_thread: int,
    ):
        self.kernel_name = kernel_name
        self.grid = grid
        self.block = block
        self.regs_per_thread = regs_per_thread
        self.shared_bytes_per_block = 0

        self.thread_insts = 0
        self.issued_warp_insts = 0
        self.category_warp_insts: Dict[Category, int] = {c: 0 for c in Category}
        self.mem_warp_insts: Dict[Space, int] = {s: 0 for s in Space}
        self.occupancy_hist = np.zeros(32, dtype=np.int64)
        self.shared_replays = 0
        self.const_serializations = 0

        # Off-chip transaction stream (global/local/texture-miss) as
        # fixed-size column chunks that spill past the trace budget.
        self._tx = ChunkStore(TX_DTYPES, label=f"gpu:{kernel_name}")

        self.tex_accesses = 0
        self.tex_hits = 0
        self.const_accesses = 0
        self.const_hits = 0

    # ------------------------------------------------------------------
    # Recording (called by the DSL)
    # ------------------------------------------------------------------
    def charge_warps(
        self, category: Category, active_per_warp: np.ndarray, repeat: int = 1
    ) -> None:
        """Charge one instruction over the given per-warp active-lane counts.

        ``active_per_warp`` holds the number of active lanes in each
        32-lane warp chunk of the block; zero-lane warps issue nothing.
        ``repeat`` charges the same instruction multiple times (loop-free
        accounting for vectorized kernel helpers).
        """
        live = active_per_warp[active_per_warp > 0]
        if live.size == 0:
            return
        n_warps = int(live.size) * repeat
        n_threads = int(live.sum()) * repeat
        self.issued_warp_insts += n_warps
        self.thread_insts += n_threads
        self.category_warp_insts[category] += n_warps
        np.add.at(self.occupancy_hist, live - 1, repeat)

    def charge_mem_space(self, space: Space, n_warps: int) -> None:
        self.mem_warp_insts[space] += n_warps

    def record_transactions(
        self, addrs: np.ndarray, block_idx: int, is_store: bool
    ) -> None:
        if addrs.size == 0:
            return
        self._tx.append(
            addrs,
            np.full(addrs.size, block_idx, dtype=np.int32),
            np.full(addrs.size, is_store, dtype=bool),
        )

    def record_transaction_stream(
        self, addrs: np.ndarray, blocks: np.ndarray, stores: np.ndarray
    ) -> None:
        """Append a pre-assembled (addr, block, store) transaction stream.

        Used by the batched execution engine, which reorders its per-batch
        events into sequential-block order before flushing; the resulting
        concatenated stream is bit-identical to per-warp recording.
        """
        if addrs.size == 0:
            return
        self._tx.append(addrs, blocks, stores)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def threads_per_block(self) -> int:
        return self.block[0] * self.block[1]

    def transactions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(addr, block, is_store) arrays of all off-chip transactions.

        Dense materialization — fine for short traces and oracles; the
        streaming consumers iterate :meth:`iter_transaction_chunks`
        instead so spilled chunks never re-assemble in memory.
        """
        return self._tx.columns()

    def iter_transaction_chunks(
        self,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(addr, block, is_store) column chunks in record order."""
        return self._tx.iter_chunks()

    @property
    def n_transactions(self) -> int:
        return self._tx.n_rows

    @property
    def dram_bytes(self) -> int:
        return self.n_transactions * TRANSACTION_BYTES

    @property
    def total_mem_warp_insts(self) -> int:
        return sum(self.mem_warp_insts.values())

    @property
    def global_warp_insts(self) -> int:
        """Warp-level accesses that target off-chip address spaces.

        GLOBAL plus LOCAL (register-spill) traffic — the denominator of
        the profiler's coalescing-efficiency counter: perfectly
        coalesced code issues one transaction per such access.
        """
        return (
            self.mem_warp_insts[Space.GLOBAL] + self.mem_warp_insts[Space.LOCAL]
        )


class KernelTrace:
    """All launches of one application run, with aggregate views.

    Each aggregate property reduces over every launch when read.
    """

    def __init__(self, app_name: str = ""):
        self.app_name = app_name
        self.launches: List[LaunchTrace] = []

    def new_launch(self, *args, **kwargs) -> LaunchTrace:
        lt = LaunchTrace(*args, **kwargs)
        self.launches.append(lt)
        return lt

    # Aggregates -------------------------------------------------------
    @property
    def thread_insts(self) -> int:
        return sum(lt.thread_insts for lt in self.launches)

    @property
    def issued_warp_insts(self) -> int:
        return sum(lt.issued_warp_insts for lt in self.launches)

    @property
    def n_launches(self) -> int:
        return len(self.launches)

    @property
    def occupancy_hist(self) -> np.ndarray:
        out = np.zeros(32, dtype=np.int64)
        for lt in self.launches:
            out += lt.occupancy_hist
        return out

    def occupancy_buckets(self) -> Dict[str, float]:
        """Figure 3's quartile buckets as fractions of issued warps."""
        hist = self.occupancy_hist
        total = hist.sum()
        if total == 0:
            return {"1-8": 0.0, "9-16": 0.0, "17-24": 0.0, "25-32": 0.0}
        return {
            "1-8": float(hist[0:8].sum() / total),
            "9-16": float(hist[8:16].sum() / total),
            "17-24": float(hist[16:24].sum() / total),
            "25-32": float(hist[24:32].sum() / total),
        }

    @property
    def mean_warp_occupancy(self) -> float:
        hist = self.occupancy_hist
        total = hist.sum()
        if total == 0:
            return 0.0
        return float((hist * np.arange(1, 33)).sum() / total)

    def mem_mix(self) -> Dict[str, float]:
        """Figure 2's memory-space instruction breakdown (fractions).

        Global and local are merged, as in the paper's plot.
        """
        totals: Dict[Space, int] = {s: 0 for s in Space}
        for lt in self.launches:
            for s, n in lt.mem_warp_insts.items():
                totals[s] += n
        grand = sum(totals.values())
        if grand == 0:
            return {k: 0.0 for k in ("shared", "tex", "const", "param", "global")}
        return {
            "shared": totals[Space.SHARED] / grand,
            "tex": totals[Space.TEX] / grand,
            "const": totals[Space.CONST] / grand,
            "param": totals[Space.PARAM] / grand,
            "global": (totals[Space.GLOBAL] + totals[Space.LOCAL]) / grand,
        }

    @property
    def dram_bytes(self) -> int:
        return sum(lt.dram_bytes for lt in self.launches)

    @property
    def n_transactions(self) -> int:
        return sum(lt.n_transactions for lt in self.launches)

    def category_mix(self) -> Dict[str, float]:
        totals: Dict[Category, int] = {c: 0 for c in Category}
        for lt in self.launches:
            for c, n in lt.category_warp_insts.items():
                totals[c] += n
        grand = sum(totals.values())
        if grand == 0:
            return {c.value: 0.0 for c in Category}
        return {c.value: totals[c] / grand for c in Category}
