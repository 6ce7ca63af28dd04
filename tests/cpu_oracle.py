"""The per-call CPU recorder, swapped in for the access tape.

``Machine.parallel`` and ``Machine.serial`` build every thread context
through one module-level name, ``repro.cpusim.machine.ThreadCtx``, and
merge each region through ``Machine._merge_region``.
:func:`per_call_oracle` patches both.  Inside it every load and store
converts its index with ``np.asarray``, bounds-checks it with a min and
a max, and records its own address array and ``np.full`` write-flag
array; a region is merged one quantum of one thread at a time.  A test
runs the same program inside and outside the block and compares traces,
counts, returned values and memory.  It is a plain context manager:
hypothesis tests cannot use the function-scoped ``monkeypatch`` fixture.
"""

import contextlib
from typing import List
from unittest import mock

import numpy as np

from repro.cpusim import machine


class PerCallThreadCtx(machine.ThreadCtx):
    """A thread context that records one array pair per call."""

    def __init__(self, m, tid, nthreads):
        super().__init__(m, tid, nthreads)
        self._addr_chunks: List[np.ndarray] = []
        self._write_chunks: List[np.ndarray] = []

    def _record(self, addrs, is_write):
        self._addr_chunks.append(addrs)
        self._write_chunks.append(np.full(addrs.size, is_write, dtype=bool))

    def _flat_index(self, arr, idx):
        flat = np.asarray(idx, dtype=np.int64).reshape(-1)
        if flat.size and (flat.min() < 0 or flat.max() >= arr.size):
            bad = flat[(flat < 0) | (flat >= arr.size)][0]
            raise IndexError(
                f"thread {self.tid}: index {bad} out of bounds for "
                f"{arr.name} (size {arr.size})"
            )
        return flat

    def load(self, arr, idx):
        flat = self._flat_index(arr, idx)
        self.counts.load += flat.size
        self._record(arr.base + flat * arr.itemsize, False)
        vals = arr.data.reshape(-1)[flat]
        shape = np.shape(idx)
        return vals.reshape(shape) if shape else vals[0]

    def store(self, arr, idx, values):
        flat = self._flat_index(arr, idx)
        self.counts.store += flat.size
        self._record(arr.base + flat * arr.itemsize, True)
        vals = np.broadcast_to(
            np.asarray(values, dtype=arr.data.dtype), flat.shape
        ).reshape(-1)
        arr.data.reshape(-1)[flat] = vals

    def update(self, arr, idx, fn):
        vals = self.load(arr, idx)
        self.alu(np.asarray(idx).size if np.ndim(idx) else 1)
        self.store(arr, idx, fn(vals))


def merge_region_per_quantum(self, ctxs):
    """``Machine._merge_region`` one quantum of one thread at a time."""
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


@contextlib.contextmanager
def per_call_oracle():
    """Regions inside the block record per call and merge per quantum."""
    with mock.patch.object(machine, "ThreadCtx", PerCallThreadCtx), \
            mock.patch.object(
                machine.Machine, "_merge_region", merge_region_per_quantum
            ):
        yield
