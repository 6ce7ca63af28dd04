"""Device memory: arrays, address allocation, coalescing, bank conflicts,
and a set-associative LRU cache model.

Addresses are synthetic but stable: each memory space has its own region
of a flat 64-bit address space and a bump allocator, so coalescing,
channel interleaving, and cache behaviour are deterministic functions of
allocation order and access pattern.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.gpusim.isa import BANK_WORD_BYTES, SHARED_BANKS, TRANSACTION_BYTES, Space

_SPACE_BASE = {
    Space.GLOBAL: 0x1000_0000,
    Space.LOCAL: 0x4000_0000,
    Space.SHARED: 0x5000_0000,
    Space.CONST: 0x6000_0000,
    Space.TEX: 0x7000_0000,
    Space.PARAM: 0x8000_0000,
}

_ALLOC_ALIGN = 256


class DeviceArray:
    """A typed array resident in a simulated memory space.

    ``data`` is the backing numpy buffer (flattened access through
    ``data.flat`` by the DSL); ``base`` is the array's simulated byte
    address, used for coalescing and cache simulation.
    """

    def __init__(
        self,
        data: np.ndarray,
        base: int,
        space: Space,
        name: str = "",
    ):
        self.data = data
        self.base = base
        self.space = space
        self.name = name or f"{space.value}@{base:#x}"

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

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def to_host(self) -> np.ndarray:
        """Copy the device contents back to a host array."""
        return self.data.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceArray({self.name}, shape={self.shape}, space={self.space.value})"


class Allocator:
    """Bump allocator with one arena per memory space."""

    def __init__(self):
        self._next: Dict[Space, int] = dict(_SPACE_BASE)

    def alloc(self, nbytes: int, space: Space) -> int:
        base = self._next[space]
        aligned = (nbytes + _ALLOC_ALIGN - 1) // _ALLOC_ALIGN * _ALLOC_ALIGN
        self._next[space] = base + aligned
        return base

    def reset(self, space: Space) -> None:
        """Release an arena (used to reuse shared memory between blocks)."""
        self._next[space] = _SPACE_BASE[space]


def coalesce(addrs: np.ndarray, segment: int = TRANSACTION_BYTES) -> np.ndarray:
    """Group per-lane byte addresses into unique aligned segments.

    Models the hardware coalescer: one warp memory instruction issues one
    transaction per distinct ``segment``-byte-aligned region touched.
    Returns the sorted unique segment base addresses.
    """
    if addrs.size == 0:
        return addrs
    return np.unique(addrs // segment) * segment


def bank_conflict_degree(addrs: np.ndarray) -> int:
    """Conflict degree of a shared-memory warp access.

    The degree is the maximum number of *distinct* word addresses mapping
    to the same bank; identical addresses broadcast and do not conflict.
    A conflict-free access has degree 1 (and degree 0 means no lanes
    active).  The access replays ``degree`` times in hardware.
    """
    if addrs.size == 0:
        return 0
    words = np.unique(addrs // BANK_WORD_BYTES)
    banks = words % SHARED_BANKS
    return int(np.bincount(banks, minlength=1).max())


class CacheModel:
    """Set-associative LRU cache over byte addresses.

    Used for texture/constant caches during functional execution and for
    the Fermi L1/L2 hierarchy during timing.  Accesses are line-granular;
    eviction is strict LRU within a set.  Stores allocate (write-allocate)
    and mark lines dirty; ``access`` returns hit/miss per address.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int = 4,
        line_bytes: int = 64,
        hash_sets: bool = False,
    ):
        if size_bytes <= 0:
            raise ValueError("cache size must be positive")
        n_lines = max(assoc, size_bytes // line_bytes)
        self.n_sets = max(1, n_lines // assoc)
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.size_bytes = size_bytes
        # Texture caches (and Fermi's L2) swizzle the set index to avoid
        # power-of-2 stride aliasing; plain modulo models simple caches.
        self.hash_sets = hash_sets
        # Each set is an ordered dict substitute: list of tags, MRU last.
        self._sets: Dict[int, list] = {}
        self.hits = 0
        self.misses = 0

    def access_one(self, addr: int) -> bool:
        """Access one address; returns True on hit."""
        line = addr // self.line_bytes
        if self.hash_sets:
            set_idx = (line ^ (line >> 10) ^ (line >> 5)) % self.n_sets
        else:
            set_idx = line % self.n_sets
        tags = self._sets.get(set_idx)
        if tags is None:
            tags = []
            self._sets[set_idx] = tags
        if line in tags:
            tags.remove(line)
            tags.append(line)
            self.hits += 1
            return True
        tags.append(line)
        if len(tags) > self.assoc:
            tags.pop(0)
        self.misses += 1
        return False

    def access(self, addrs: np.ndarray) -> np.ndarray:
        """Access a sequence of addresses in order; returns hit mask.

        Long traces run on the batch way-matrix engine — warm caches
        seed the engine's initial state, and the final state is written
        back in full, so mixing batch and per-access calls stays exact.
        ``access_one`` is the scalar oracle.
        """
        if addrs.size >= 4096:
            hits = self._access_batch(np.asarray(addrs))
            if hits is not None:
                telemetry.count("gpusim.cache.dispatch.batch")
                return hits
        telemetry.count("gpusim.cache.dispatch.scalar")
        out = np.empty(addrs.size, dtype=bool)
        one = self.access_one
        for i, a in enumerate(addrs.tolist()):
            out[i] = one(a)
        return out

    def _access_batch(self, addrs: np.ndarray) -> Optional[np.ndarray]:
        from repro.analytics.cache import (
            EMPTY_LINE,
            batch_worthwhile,
            partition_by_set,
            simulate_lru_sets,
        )

        lines = (addrs.astype(np.int64)) // self.line_bytes
        if self.hash_sets:
            set_idx = (lines ^ (lines >> 10) ^ (lines >> 5)) % self.n_sets
        else:
            set_idx = lines % self.n_sets
        part = partition_by_set(set_idx)
        if not batch_worthwhile(lines.size, part.counts):
            return None
        init_ways = None
        init_lengths = None
        if self._sets:
            # Seed the way matrix with the warm per-set LRU lists
            # (scalar lists are MRU-last; way rows are MRU-first).
            init_ways = np.full(
                (part.n_groups, self.assoc), EMPTY_LINE, dtype=np.int64
            )
            init_lengths = np.zeros(part.n_groups, dtype=np.int64)
            for g, sid in enumerate(part.set_ids.tolist()):
                tags = self._sets.get(sid)
                if tags:
                    init_ways[g, : len(tags)] = tags[::-1]
                    init_lengths[g] = len(tags)
        res = simulate_lru_sets(
            lines[part.order], part.starts, part.counts, self.assoc,
            need_hits=True,
            init_ways=init_ways, init_lengths=init_lengths,
        )
        n_miss = int(res.miss_per_group.sum())
        self.misses += n_miss
        self.hits += int(lines.size) - n_miss
        for g in range(part.n_groups):
            length = int(res.lengths[g])
            if length:
                # Way rows are MRU-first; the scalar lists are MRU-last.
                self._sets[int(part.set_ids[g])] = [
                    int(line) for line in res.ways[g, :length][::-1]
                ]
        hits = np.empty(lines.size, dtype=bool)
        hits[part.order] = res.hits_sorted
        return hits

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.accesses
        return self.hits / n if n else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def clone_empty(self) -> "CacheModel":
        """A fresh cache of identical geometry."""
        return CacheModel(
            self.size_bytes, self.assoc, self.line_bytes, self.hash_sets
        )
