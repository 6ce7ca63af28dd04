"""Kernel-trace serialization.

A :class:`~repro.gpusim.trace.KernelTrace` is the expensive artifact of
a characterization run (the functional execution); the timing model is
cheap.  Persisting traces lets a user collect once and explore
configurations offline — the same collect/analyze split GPGPU-Sim users
rely on:

    save_trace(gpu.trace, "bfs.npz")
    ...
    trace = load_trace("bfs.npz")
    TimingModel(my_config).time(trace)

The file is a plain ``.npz`` zip in a columnar layout (format 2) that
loads back bit-identically: the transaction streams of all launches
concatenate into one global record stream, cut into groups of
``~chunk_rows`` rows; each group stores delta-encoded addresses, block
ids, and bit-packed store flags as separate compressed members, plus a
JSON header with per-launch row counts.  Groups are written and read one
at a time, so saving or loading a spilled LARGE trace never materializes
the full stream.  A file in any other format (the dense per-launch
format 1 included) raises ``ValueError``, which the artifact cache
treats as a miss.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import List, Union

import numpy as np
from numpy.lib import format as npformat

from repro.gpusim.isa import Category, Space
from repro.gpusim.trace import KernelTrace

_FORMAT_VERSION = 2

_INT_FIELDS = (
    "thread_insts",
    "issued_warp_insts",
    "shared_replays",
    "const_serializations",
    "tex_accesses",
    "tex_hits",
    "const_accesses",
    "const_hits",
    "shared_bytes_per_block",
)


def _launch_meta(lt) -> dict:
    meta = {
        "kernel_name": lt.kernel_name,
        "grid": list(lt.grid),
        "block": list(lt.block),
        "regs_per_thread": lt.regs_per_thread,
        "category_warp_insts": {
            c.value: n for c, n in lt.category_warp_insts.items()
        },
        "mem_warp_insts": {s.value: n for s, n in lt.mem_warp_insts.items()},
    }
    for field in _INT_FIELDS:
        meta[field] = int(getattr(lt, field))
    return meta


def _restore_launch(trace: KernelTrace, meta: dict):
    lt = trace.new_launch(
        meta["kernel_name"],
        tuple(meta["grid"]),
        tuple(meta["block"]),
        meta["regs_per_thread"],
    )
    for field in _INT_FIELDS:
        setattr(lt, field, meta[field])
    lt.category_warp_insts = {
        Category(k): v for k, v in meta["category_warp_insts"].items()
    }
    lt.mem_warp_insts = {
        Space(k): v for k, v in meta["mem_warp_insts"].items()
    }
    return lt


def _write_member(zf: zipfile.ZipFile, name: str, arr: np.ndarray) -> None:
    with zf.open(name + ".npy", "w", force_zip64=True) as fh:
        npformat.write_array(
            fh, np.ascontiguousarray(arr), allow_pickle=False
        )


def save_trace(trace: KernelTrace, path: Union[str, "os.PathLike"]) -> None:
    """Write a trace to a ``.npz`` file."""
    from repro.common.config import config

    group_rows = config().trace_chunk_rows
    header = {
        "format": _FORMAT_VERSION,
        "app_name": trace.app_name,
        "launches": [],
        "groups": [],
    }
    with zipfile.ZipFile(
        os.fspath(path), "w", zipfile.ZIP_DEFLATED, allowZip64=True
    ) as zf:
        # Buffered pieces of the pending group (global record order).
        buf_a: List[np.ndarray] = []
        buf_b: List[np.ndarray] = []
        buf_s: List[np.ndarray] = []
        buffered = 0
        n_groups = 0

        def flush():
            nonlocal buffered, n_groups
            if not buffered:
                return
            addrs = np.concatenate(buf_a) if len(buf_a) > 1 else buf_a[0]
            blocks = np.concatenate(buf_b) if len(buf_b) > 1 else buf_b[0]
            stores = np.concatenate(buf_s) if len(buf_s) > 1 else buf_s[0]
            buf_a.clear(), buf_b.clear(), buf_s.clear()
            # Self-contained delta encoding: element 0 absolute, rest
            # first differences — transaction streams are largely
            # strided, so deltas deflate far better than raw addresses.
            delta = np.diff(addrs.astype(np.int64), prepend=np.int64(0))
            delta[0] = addrs[0]
            _write_member(zf, f"g{n_groups}_addr", delta)
            _write_member(zf, f"g{n_groups}_block", blocks)
            _write_member(
                zf, f"g{n_groups}_store", np.packbits(stores.view(np.uint8))
            )
            header["groups"].append(int(buffered))
            n_groups += 1
            buffered = 0

        for i, lt in enumerate(trace.launches):
            meta = _launch_meta(lt)
            meta["tx_rows"] = int(lt.n_transactions)
            header["launches"].append(meta)
            _write_member(zf, f"l{i}_occupancy", lt.occupancy_hist)
            for addrs, blocks, stores in lt.iter_transaction_chunks():
                pos = 0
                while pos < addrs.size:
                    take = min(addrs.size - pos, group_rows - buffered)
                    buf_a.append(addrs[pos : pos + take])
                    buf_b.append(blocks[pos : pos + take])
                    buf_s.append(stores[pos : pos + take])
                    buffered += take
                    pos += take
                    if buffered == group_rows:
                        flush()
        flush()
        _write_member(
            zf,
            "header",
            np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        )


def load_trace(path: Union[str, "os.PathLike"]) -> KernelTrace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
        version = header.get("format")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format {version!r}")
        trace = KernelTrace(header["app_name"])
        launches = []
        remaining = []
        for i, meta in enumerate(header["launches"]):
            lt = _restore_launch(trace, meta)
            lt.occupancy_hist = data[f"l{i}_occupancy"].copy()
            launches.append(lt)
            remaining.append(int(meta["tx_rows"]))
        # Stream groups back in global record order, handing each launch
        # its share; appends re-chunk (and re-spill) under the active
        # budget, so loading never materializes the full stream.
        cursor = 0
        for j, rows in enumerate(header["groups"]):
            delta = data[f"g{j}_addr"]
            addrs = np.cumsum(delta, dtype=np.int64)
            blocks = data[f"g{j}_block"]
            stores = (
                np.unpackbits(data[f"g{j}_store"], count=rows)
                .astype(bool)
            )
            pos = 0
            while pos < rows:
                while cursor < len(launches) and remaining[cursor] == 0:
                    cursor += 1
                if cursor >= len(launches):
                    raise ValueError("trace groups exceed launch rows")
                take = min(rows - pos, remaining[cursor])
                launches[cursor].record_transaction_stream(
                    addrs[pos : pos + take],
                    blocks[pos : pos + take],
                    stores[pos : pos + take],
                )
                remaining[cursor] -= take
                pos += take
        if any(remaining):
            raise ValueError("trace groups short of launch rows")
        return trace
