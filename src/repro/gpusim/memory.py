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

from repro.analytics.cache import SetLRU
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
    eviction is strict LRU within a set; ``access`` returns hit/miss per
    address.  ``n_caches`` identical caches (the per-SM L1s) share one
    model as groups of sets, so one ``access`` call serves all of them.
    Every call runs the LRU kernel of :mod:`repro.analytics.cache`.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int = 4,
        line_bytes: int = 64,
        hash_sets: bool = False,
        n_caches: int = 1,
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
        self.n_caches = n_caches
        self.lru = SetLRU(n_caches * self.n_sets, assoc)
        self.hits = 0
        self.misses = 0

    def set_index(self, lines: np.ndarray) -> np.ndarray:
        """Set of each line address within one cache."""
        if self.hash_sets:
            lines = lines ^ (lines >> 10) ^ (lines >> 5)
        return lines % self.n_sets

    def access(
        self, addrs: np.ndarray, cache: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Access a sequence of addresses in order; returns hit mask.

        ``cache`` names the cache (of ``n_caches``) each address goes
        to; each cache sees its own accesses in order.
        """
        lines = np.asarray(addrs).astype(np.int64) // self.line_bytes
        sets = self.set_index(lines)
        if cache is not None:
            sets = sets + cache * self.n_sets
        hits = self.lru.access(lines, sets)
        n_hit = int(np.count_nonzero(hits))
        self.hits += n_hit
        self.misses += int(lines.size) - n_hit
        return hits

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.accesses
        return self.hits / n if n else 0.0

    def clone_empty(self) -> "CacheModel":
        """A fresh cache of identical geometry."""
        return type(self)(
            self.size_bytes, self.assoc, self.line_bytes, self.hash_sets,
            self.n_caches,
        )
