"""End-to-end tests of every Rodinia workload on both substrates."""

import numpy as np
import pytest

from repro.common.config import SimScale
from repro.cpusim import Machine
from repro.gpusim import GPU
from repro.workloads import base as wl

wl.load_all()
RODINIA = [d.meta.name for d in wl.all_rodinia()]


@pytest.mark.parametrize("name", RODINIA)
def test_cpu_implementation_correct(name):
    defn = wl.get(name)
    machine = Machine()
    result = defn.cpu_fn(machine, SimScale.TINY)
    defn.check_cpu(result, SimScale.TINY)
    assert machine.n_accesses > 0, "CPU run must produce a memory trace"
    assert machine.counts.total > 0


@pytest.mark.parametrize("name", RODINIA)
def test_gpu_implementation_correct(name):
    defn = wl.get(name)
    gpu = GPU()
    result = defn.gpu_fn(gpu, SimScale.TINY)
    defn.check_gpu(result, SimScale.TINY)
    tr = gpu.trace
    assert tr.thread_insts > 0
    assert tr.n_launches > 0


@pytest.mark.parametrize("name", RODINIA)
def test_gpu_occupancy_histogram_consistent(name):
    gpu = GPU()
    wl.get(name).gpu_fn(gpu, SimScale.TINY)
    buckets = gpu.trace.occupancy_buckets()
    assert sum(buckets.values()) == pytest.approx(1.0)
    assert 1.0 <= gpu.trace.mean_warp_occupancy <= 32.0


@pytest.mark.parametrize("name", RODINIA)
def test_gpu_mem_mix_is_distribution(name):
    gpu = GPU()
    wl.get(name).gpu_fn(gpu, SimScale.TINY)
    mix = gpu.trace.mem_mix()
    assert sum(mix.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in mix.values())


class TestRegistry:
    def test_twelve_rodinia_workloads(self):
        assert len(RODINIA) == 12

    def test_table1_dwarfs(self):
        expected = {
            "kmeans": "Dense Linear Algebra",
            "nw": "Dynamic Programming",
            "hotspot": "Structured Grid",
            "backprop": "Unstructured Grid",
            "srad": "Structured Grid",
            "leukocyte": "Structured Grid",
            "bfs": "Graph Traversal",
            "streamcluster": "Dense Linear Algebra",
            "mummer": "Graph Traversal",
            "cfd": "Unstructured Grid",
            "lud": "Dense Linear Algebra",
            "heartwall": "Structured Grid",
        }
        for name, dwarf in expected.items():
            assert wl.get(name).meta.dwarf == dwarf

    def test_all_have_both_implementations(self):
        for d in wl.all_rodinia():
            assert d.gpu_fn is not None, d.meta.name
            assert d.cpu_fn is not None, d.meta.name
            assert d.check_gpu is not None and d.check_cpu is not None

    def test_incremental_versions_registered(self):
        # The paper's Section III-C: versions of Leukocyte, LUD,
        # Needleman-Wunsch and SRAD.
        for bench in ("srad", "leukocyte", "lud", "nw"):
            assert set(wl.get(bench).gpu_versions) == {1, 2}, bench


class TestVersions:
    @pytest.mark.parametrize("bench", ["srad", "leukocyte", "lud", "nw"])
    def test_v1_functionally_equivalent(self, bench):
        defn = wl.get(bench)
        gpu = GPU()
        result = defn.gpu_versions[1](gpu, SimScale.TINY)
        defn.check_gpu(result, SimScale.TINY)

    def test_srad_v2_uses_more_shared_memory(self):
        defn = wl.get("srad")
        g1, g2 = GPU(), GPU()
        defn.gpu_versions[1](g1, SimScale.TINY)
        defn.gpu_versions[2](g2, SimScale.TINY)
        assert g2.trace.mem_mix()["shared"] > g1.trace.mem_mix()["shared"]

    def test_leukocyte_v2_removes_global_traffic(self):
        defn = wl.get("leukocyte")
        g1, g2 = GPU(), GPU()
        defn.gpu_versions[1](g1, SimScale.TINY)
        defn.gpu_versions[2](g2, SimScale.TINY)
        assert g2.trace.mem_mix()["global"] < g1.trace.mem_mix()["global"]


class TestSignatureBehaviours:
    """Per-workload characteristics the paper calls out by name."""

    def test_bfs_divergent_warps(self):
        gpu = GPU()
        wl.get("bfs").gpu_fn(gpu, SimScale.TINY)
        buckets = gpu.trace.occupancy_buckets()
        assert buckets["1-8"] > 0.3

    def test_nw_never_fills_a_warp(self):
        gpu = GPU()
        wl.get("nw").gpu_fn(gpu, SimScale.TINY)
        buckets = gpu.trace.occupancy_buckets()
        assert buckets["25-32"] == 0.0
        assert buckets["17-24"] == 0.0

    def test_kmeans_uses_texture_and_const(self):
        gpu = GPU()
        wl.get("kmeans").gpu_fn(gpu, SimScale.TINY)
        mix = gpu.trace.mem_mix()
        assert mix["tex"] > 0.3 and mix["const"] > 0.3

    def test_heartwall_uses_constant_memory(self):
        gpu = GPU()
        wl.get("heartwall").gpu_fn(gpu, SimScale.TINY)
        assert gpu.trace.mem_mix()["const"] > 0.2

    def test_hotspot_is_shared_memory_heavy(self):
        gpu = GPU()
        wl.get("hotspot").gpu_fn(gpu, SimScale.TINY)
        assert gpu.trace.mem_mix()["shared"] > 0.5

    def test_mummer_touches_texture_tree(self):
        gpu = GPU()
        wl.get("mummer").gpu_fn(gpu, SimScale.TINY)
        assert gpu.trace.mem_mix()["tex"] > 0.4

    def test_bfs_cfd_all_global(self):
        for name in ("bfs", "cfd"):
            gpu = GPU()
            wl.get(name).gpu_fn(gpu, SimScale.TINY)
            assert gpu.trace.mem_mix()["global"] == pytest.approx(1.0), name

    def test_nw_wavefront_launch_count(self):
        gpu = GPU()
        wl.get("nw").gpu_fn(gpu, SimScale.TINY)
        from repro.workloads.rodinia import nw
        nb = nw.gpu_sizes(SimScale.TINY)["n"] // 16
        assert gpu.trace.n_launches == 2 * nb - 1

    def test_lud_grids_shrink(self):
        gpu = GPU()
        wl.get("lud").gpu_fn(gpu, SimScale.TINY)
        internal = [lt for lt in gpu.trace.launches
                    if lt.kernel_name == "lud_internal"]
        sizes = [lt.n_blocks for lt in internal]
        assert sizes == sorted(sizes, reverse=True)


def _heartwall_track_scalar(p: dict) -> np.ndarray:
    """Pure-Python heartwall tracker: the oracle of ``heartwall.reference``.

    Scans each point's search window offset by offset in row-major
    (oy, ox) order, accumulating the float32 SSD pixel by pixel and
    keeping the first strict minimum.
    """
    from repro.workloads.rodinia import heartwall as hw

    frames, _, _ = hw._inputs(p)
    points, tasks = hw._initial_points(p, *hw.detect_radii(frames[0]))
    templates = hw._extract_templates(frames[0], points)
    h, w = p["h"], p["w"]
    r = hw._TPL // 2
    out = np.empty((p["frames"], points.shape[0], 2), dtype=np.int64)
    out[0] = points
    pos = points.copy()
    for f in range(1, p["frames"]):
        frame = frames[f]
        for k in range(pos.shape[0]):
            search = hw._SEARCH if tasks[k] == 0 else hw._SEARCH - 1
            py, px = pos[k]
            best = (np.float32(np.inf), 0, 0)
            for oy in range(-search, search + 1):
                for ox in range(-search, search + 1):
                    ssd = np.float32(0.0)
                    for ty in range(hw._TPL):
                        for tx in range(hw._TPL):
                            sy = min(max(py + oy + ty - r, 0), h - 1)
                            sx = min(max(px + ox + tx - r, 0), w - 1)
                            d = (np.float32(frame[sy, sx])
                                 - templates[k, ty, tx])
                            ssd = np.float32(ssd + d * d)
                    if ssd < best[0]:
                        best = (ssd, oy, ox)
            pos[k, 0] += best[1]
            pos[k, 1] += best[2]
        out[f] = pos
    return out


class TestHeartwallReference:
    """The vectorized reference tracker equals the scalar scan exactly."""

    @pytest.mark.parametrize("scale", list(SimScale))
    @pytest.mark.parametrize("sizes", ["gpu_sizes", "cpu_sizes"])
    def test_matches_scalar_tracker(self, scale, sizes):
        from repro.workloads.rodinia import heartwall as hw

        p = getattr(hw, sizes)(scale)
        np.testing.assert_array_equal(
            hw.reference(p), _heartwall_track_scalar(p)
        )
