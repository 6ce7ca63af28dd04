"""Benchmarks of the out-of-core columnar trace pipeline.

Two timings bound the costs the chunked design trades between:

- **Cold build** — recording a multi-million-record stream into a
  :class:`ChunkStore` with no budget pressure (the common case; must
  stay within a small factor of raw array concatenation).
- **Spill overhead** — the same build under a budget that forces most
  sealed chunks through compressed npz segments, plus one full streamed
  read-back.
"""

import time

import numpy as np
import pytest

from repro.common import config as cfgmod

N_ROWS = 2_000_000
DTYPES = (np.dtype(np.int64), np.dtype(np.int32), np.dtype(bool))


def _columns(n=N_ROWS, seed=0):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 1 << 20, n) * 64).astype(np.int64)
    blocks = rng.integers(0, 1024, n).astype(np.int32)
    stores = rng.random(n) < 0.25
    return addrs, blocks, stores


@pytest.fixture(scope="module")
def columns():
    return _columns()


def _build(columns, budget_bytes, piece=65_536):
    from repro.common.chunkstore import ChunkStore

    store = ChunkStore(DTYPES, chunk_rows=1 << 18, budget_bytes=budget_bytes)
    n = columns[0].size
    for i in range(0, n, piece):
        store.append(*(c[i : i + piece] for c in columns))
    return store


def test_cold_build_overhead(columns):
    """Chunked recording vs plain list-append + concatenate."""
    t0 = time.perf_counter()
    pieces = [[], [], []]
    n = columns[0].size
    for i in range(0, n, 65_536):
        for lst, c in zip(pieces, columns):
            lst.append(c[i : i + 65_536].copy())
    dense = tuple(np.concatenate(p) for p in pieces)
    dense_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    store = _build(columns, budget_bytes=0)
    chunked_s = time.perf_counter() - t0

    assert store.n_rows == dense[0].size
    ratio = chunked_s / dense_s if dense_s else 1.0
    print(
        f"\ncold build {N_ROWS:,} rows: dense {dense_s:.3f}s, "
        f"chunked {chunked_s:.3f}s ({ratio:.1f}x)"
    )
    # Recording must not cost more than 5x raw concatenation.
    assert ratio < 5.0, f"chunked build {ratio:.1f}x slower than dense"


def test_spill_and_streamed_readback(columns):
    """Budget-forced spill, then one full streamed pass."""
    rowbytes = sum(d.itemsize for d in DTYPES)
    budget = (1 << 18) * rowbytes  # one chunk resident at a time

    t0 = time.perf_counter()
    store = _build(columns, budget_bytes=budget)
    build_s = time.perf_counter() - t0

    spilled = sum(1 for c in store._sealed if not c.in_memory)
    assert spilled >= 5, "budget should have forced most chunks out"

    t0 = time.perf_counter()
    rows = 0
    checksum = 0
    for addrs, blocks, stores in store.iter_chunks():
        rows += addrs.size
        checksum += int(addrs[0]) + int(blocks[-1])
    read_s = time.perf_counter() - t0
    assert rows == N_ROWS
    assert checksum != 0

    print(
        f"\nspill build {N_ROWS:,} rows: {build_s:.3f}s "
        f"({spilled} chunks spilled), streamed read {read_s:.3f}s"
    )
    # Spilling is compressed-disk-bound but must stay usable.
    assert build_s < 60.0
    assert read_s < 30.0

