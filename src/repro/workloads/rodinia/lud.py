"""LU Decomposition (Rodinia) — Dense Linear Algebra dwarf.

Paper problem size: 256x256 data points.

Blocked Doolittle LU factorization, added to Rodinia for its row/column
interdependencies: each step k factors the diagonal 16x16 tile, solves
the perimeter row/column tiles against it, then updates the trailing
submatrix — three kernel launches per step whose grids *shrink* as k
advances.  The paper attributes LUD's limited 8-to-28-shader scaling to
exactly these dependencies (Section III-B), and its low channel
sensitivity to shared-memory locality (Fig. 4); both fall out of this
structure.  All tiles are staged in shared memory.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import SimScale
from repro.common.rng import make_rng
from repro.cpusim import Machine
from repro.gpusim import GPU
from repro.workloads.base import WorkloadDef, WorkloadMeta, register

META = WorkloadMeta(
    name="lud",
    suite="rodinia",
    dwarf="Dense Linear Algebra",
    domain="Linear Algebra",
    paper_size="256x256 data points",
    short="LUD",
    description="Blocked in-place LU factorization with shared-memory tiles",
)

_B = 16


def gpu_sizes(scale: SimScale) -> dict:
    n = {SimScale.TINY: 64, SimScale.SMALL: 128, SimScale.MEDIUM: 256,
         SimScale.LARGE: 512}[scale]
    return {"n": n}


def cpu_sizes(scale: SimScale) -> dict:
    n = {SimScale.TINY: 48, SimScale.SMALL: 96, SimScale.MEDIUM: 192,
         SimScale.LARGE: 384}[scale]
    return {"n": n}


def _inputs(p: dict) -> np.ndarray:
    """Diagonally dominant matrix (stable without pivoting)."""
    n = p["n"]
    rng = make_rng("lud", n)
    a = rng.uniform(-1.0, 1.0, (n, n))
    a[np.arange(n), np.arange(n)] = np.abs(a).sum(axis=1) + 1.0
    return a.astype(np.float32)


def reference(p: dict) -> np.ndarray:
    """In-place Doolittle LU (L unit-diagonal below, U on/above)."""
    a = _inputs(p).astype(np.float64)
    n = p["n"]
    for i in range(n - 1):
        a[i + 1 :, i] /= a[i, i]
        a[i + 1 :, i + 1 :] -= np.outer(a[i + 1 :, i], a[i, i + 1 :])
    return a


# ----------------------------------------------------------------------
# GPU kernels (block = 16x16 lanes; lane (ty, tx) owns tile cell (ty, tx))
# ----------------------------------------------------------------------
def _load_tile(ctx, mat, n, tile_y, tile_x, smem):
    ctx.alu(4)
    gy = tile_y * _B + ctx.ty
    gx = tile_x * _B + ctx.tx
    ctx.store(smem, ctx.ty * _B + ctx.tx, ctx.load(mat, gy * n + gx))
    ctx.sync()


def _store_tile(ctx, mat, n, tile_y, tile_x, smem):
    ctx.alu(4)
    gy = tile_y * _B + ctx.ty
    gx = tile_x * _B + ctx.tx
    ctx.store(mat, gy * n + gx, ctx.load(smem, ctx.ty * _B + ctx.tx))


def _factor_tile(ctx, smem):
    """Doolittle elimination of the 16x16 shared tile."""
    lin = ctx.ty * _B + ctx.tx
    for i in range(_B - 1):
        ctx.alu(3)
        with ctx.masked((ctx.ty > i) & (ctx.tx == i)):
            dii = ctx.load(smem, i * _B + i)
            v = ctx.load(smem, lin)
            ctx.alu(1)
            ctx.store(smem, lin, v / dii)
        ctx.sync()
        with ctx.masked((ctx.ty > i) & (ctx.tx > i)):
            lji = ctx.load(smem, ctx.ty * _B + i)
            uik = ctx.load(smem, i * _B + ctx.tx)
            v = ctx.load(smem, lin)
            ctx.alu(2)
            ctx.store(smem, lin, v - lji * uik)
        ctx.sync()


def _lud_diagonal(ctx, mat, n, k):
    smem = ctx.shared((_B, _B), dtype=np.float32, name="diag")
    _load_tile(ctx, mat, n, k, k, smem)
    _factor_tile(ctx, smem)
    _store_tile(ctx, mat, n, k, k, smem)


def _lud_perimeter(ctx, mat, n, k):
    """Each block solves one perimeter tile (rows first, then columns)."""
    nb = n // _B
    rem = nb - k - 1
    diag = ctx.shared((_B, _B), dtype=np.float32, name="diag")
    work = ctx.shared((_B, _B), dtype=np.float32, name="work")
    _load_tile(ctx, mat, n, k, k, diag)
    lin = ctx.ty * _B + ctx.tx
    for _ in ctx.block_if(ctx.bidx < rem):
        # Row tile (k, k+1+bidx): solve L * U_tile = A_tile.
        tx_tile = k + 1 + ctx.bidx
        _load_tile(ctx, mat, n, k, tx_tile, work)
        for i in range(_B - 1):
            ctx.alu(1)
            with ctx.masked(ctx.ty > i):
                lji = ctx.load(diag, ctx.ty * _B + i)
                a = ctx.load(work, i * _B + ctx.tx)
                v = ctx.load(work, lin)
                ctx.alu(2)
                ctx.store(work, lin, v - lji * a)
            ctx.sync()
        _store_tile(ctx, mat, n, k, tx_tile, work)
    for _ in ctx.block_if(ctx.bidx >= rem):
        # Column tile (k+1+bidx-rem, k): solve L_tile * U = A_tile.
        ty_tile = k + 1 + ctx.bidx - rem
        _load_tile(ctx, mat, n, ty_tile, k, work)
        for i in range(_B):
            ctx.alu(1)
            with ctx.masked(ctx.tx == i):
                uii = ctx.load(diag, i * _B + i)
                v = ctx.load(work, lin)
                ctx.alu(1)
                ctx.store(work, lin, v / uii)
            ctx.sync()
            with ctx.masked(ctx.tx > i):
                lti = ctx.load(work, ctx.ty * _B + i)
                u = ctx.load(diag, i * _B + ctx.tx)
                v = ctx.load(work, lin)
                ctx.alu(2)
                ctx.store(work, lin, v - lti * u)
            ctx.sync()
        _store_tile(ctx, mat, n, ty_tile, k, work)


def _lud_internal(ctx, mat, n, k):
    """Trailing update: C_tile -= L_tile @ U_tile."""
    nb = n // _B
    rem = nb - k - 1
    by = k + 1 + ctx.bidx // rem
    bx = k + 1 + ctx.bidx % rem
    ltile = ctx.shared((_B, _B), dtype=np.float32, name="ltile")
    utile = ctx.shared((_B, _B), dtype=np.float32, name="utile")
    _load_tile(ctx, mat, n, by, k, ltile)
    _load_tile(ctx, mat, n, k, bx, utile)
    ctx.alu(4)
    gy = by * _B + ctx.ty
    gx = bx * _B + ctx.tx
    acc = ctx.load(mat, gy * n + gx)
    for t in range(_B):
        l = ctx.load(ltile, ctx.ty * _B + t)
        u = ctx.load(utile, t * _B + ctx.tx)
        ctx.alu(2)
        acc = acc - l * u
    ctx.store(mat, gy * n + gx, acc)


def gpu_run(gpu: GPU, scale: SimScale = SimScale.SMALL) -> np.ndarray:
    """Version 2 (released): blocked, shared-memory tiled factorization."""
    p = gpu_sizes(scale)
    n = p["n"]
    mat = gpu.to_device(_inputs(p), name="matrix")
    nb = n // _B
    for k in range(nb):
        gpu.launch(_lud_diagonal, 1, (_B, _B), mat, n, k,
                   regs_per_thread=18, name="lud_diagonal")
        rem = nb - k - 1
        if rem == 0:
            break
        gpu.launch(_lud_perimeter, 2 * rem, (_B, _B), mat, n, k,
                   regs_per_thread=24, name="lud_perimeter")
        gpu.launch(_lud_internal, rem * rem, (_B, _B), mat, n, k,
                   regs_per_thread=20, name="lud_internal")
    return mat.to_host().reshape(n, n)


# ----------------------------------------------------------------------
# Version 1: naive unblocked elimination, all accesses to global memory
# (the paper's "incremental code versions of ... LUD" starting point).
# ----------------------------------------------------------------------
def _scale_column_kernel(ctx, mat, n, i):
    """L(:, i) = A(:, i) / A(i, i) for rows below the pivot."""
    row = i + 1 + ctx.gtid
    with ctx.masked(row < n):
        ctx.alu(3)
        pivot = ctx.load(mat, ctx.const(i * n + i, np.int64))
        v = ctx.load(mat, row * n + i)
        ctx.alu(1)
        ctx.store(mat, row * n + i, v / pivot)


def _rank1_update_kernel(ctx, mat, n, i):
    """A(i+1:, i+1:) -= L(i+1:, i) * U(i, i+1:), one thread per element."""
    rem = n - i - 1
    idx = ctx.gtid
    with ctx.masked(idx < rem * rem):
        ctx.alu(6)
        r = i + 1 + idx // rem
        c = i + 1 + idx % rem
        l = ctx.load(mat, r * n + i)
        u = ctx.load(mat, i * n + c)
        v = ctx.load(mat, r * n + c)
        ctx.alu(2)
        ctx.store(mat, r * n + c, v - l * u)


def gpu_run_v1(gpu: GPU, scale: SimScale = SimScale.SMALL) -> np.ndarray:
    p = gpu_sizes(scale)
    n = p["n"]
    mat = gpu.to_device(_inputs(p), name="matrix")
    block = 256
    for i in range(n - 1):
        rows = n - i - 1
        gpu.launch(_scale_column_kernel, (rows + block - 1) // block, block,
                   mat, n, i, regs_per_thread=10, name="lud_scale_v1")
        elems = rows * rows
        gpu.launch(_rank1_update_kernel, (elems + block - 1) // block, block,
                   mat, n, i, regs_per_thread=12, name="lud_update_v1")
    return mat.to_host().reshape(n, n)


# ----------------------------------------------------------------------
# CPU implementation: right-looking blocked LU with row-parallel updates
# ----------------------------------------------------------------------
def cpu_run(machine: Machine, scale: SimScale = SimScale.SMALL) -> np.ndarray:
    p = cpu_sizes(scale)
    n = p["n"]
    mat = machine.array(_inputs(p), name="matrix")

    def eliminate(t, i):
        cols = np.arange(i + 1, n)
        pivot_row = t.load(mat, i * n + cols)
        pivot = t.load(mat, np.array([i * n + i]))[0]
        rows = np.arange(i + 1, n)
        for r in rows[t.tid :: t.nthreads]:
            lri = t.load(mat, np.array([r * n + i]))[0]
            t.alu(1)
            m = lri / pivot
            t.store(mat, r * n + i, m)
            v = t.load(mat, r * n + cols)
            t.alu(2 * cols.size)
            t.store(mat, r * n + cols, v - m * pivot_row)

    for i in range(n - 1):
        machine.parallel(eliminate, i)
    return mat.to_host().reshape(n, n)


def check_gpu(result: np.ndarray, scale: SimScale) -> None:
    np.testing.assert_allclose(result, reference(gpu_sizes(scale)), atol=2e-2, rtol=2e-3)


def check_cpu(result: np.ndarray, scale: SimScale) -> None:
    np.testing.assert_allclose(result, reference(cpu_sizes(scale)), atol=2e-2, rtol=2e-3)


register(
    WorkloadDef(
        META, cpu_fn=cpu_run, gpu_fn=gpu_run,
        gpu_versions={1: gpu_run_v1, 2: gpu_run},
        check_cpu=check_cpu, check_gpu=check_gpu,
    )
)
