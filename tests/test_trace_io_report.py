"""Tests for trace serialization, the report generator, and load balance."""

import numpy as np
import pytest

from repro.common.config import SimScale
from repro.cpusim import Machine
from repro.gpusim import GPU, GPUConfig, TimingModel
from repro.gpusim.trace_io import load_trace, save_trace
from repro.workloads import get


class TestTraceIO:
    def _trace(self):
        gpu = GPU()
        get("hotspot").gpu_fn(gpu, SimScale.TINY)
        return gpu.trace

    def test_roundtrip_preserves_aggregates(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "hs.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.app_name == trace.app_name
        assert loaded.n_launches == trace.n_launches
        assert loaded.thread_insts == trace.thread_insts
        assert loaded.issued_warp_insts == trace.issued_warp_insts
        assert loaded.mem_mix() == trace.mem_mix()
        np.testing.assert_array_equal(loaded.occupancy_hist,
                                      trace.occupancy_hist)

    def test_roundtrip_preserves_timing_exactly(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "hs.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        for cfg in (GPUConfig.sim_default(), GPUConfig.gtx480_l1_bias()):
            a = TimingModel(cfg).time(trace)
            b = TimingModel(cfg).time(loaded)
            assert a.cycles == b.cycles, cfg.name
            assert a.dram_bytes == b.dram_bytes, cfg.name

    def test_transactions_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "hs.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        for a, b in zip(trace.launches, loaded.launches):
            aa, ab, ast = a.transactions()
            ba, bb, bst = b.transactions()
            np.testing.assert_array_equal(aa, ba)
            np.testing.assert_array_equal(ab, bb)
            np.testing.assert_array_equal(ast, bst)

    def test_bad_format_rejected(self, tmp_path):
        import json
        path = tmp_path / "bad.npz"
        header = np.frombuffer(
            json.dumps({"format": 99, "app_name": "x", "launches": []}).encode(),
            dtype=np.uint8,
        )
        np.savez(path, header=header)
        with pytest.raises(ValueError):
            load_trace(path)


class TestTraceIOVersions:
    """The columnar layout (format 2) round-trips at any group size."""

    def _trace(self):
        gpu = GPU()
        get("hotspot").gpu_fn(gpu, SimScale.TINY)
        return gpu.trace

    @staticmethod
    def _assert_equal(a, b):
        assert a.n_launches == b.n_launches
        assert a.thread_insts == b.thread_insts
        for la, lb in zip(a.launches, b.launches):
            assert la.kernel_name == lb.kernel_name
            assert la.grid == lb.grid and la.block == lb.block
            for ca, cb in zip(la.transactions(), lb.transactions()):
                np.testing.assert_array_equal(ca, cb)

    def test_v2_roundtrip_with_split_groups(self, tmp_path):
        from repro.common import config as cfgmod

        trace = self._trace()
        path = tmp_path / "v2.npz"
        # Tiny group size forces many column groups, each spanning
        # partial launches; the loader redistributes rows by count.
        with cfgmod.override(trace_chunk_rows=777):
            save_trace(trace, path)
        self._assert_equal(trace, load_trace(path))


class TestLoadBalance:
    def test_balanced_chunks(self):
        m = Machine(n_threads=4)
        a = m.alloc(400)

        def w(t):
            for i in t.chunk(400):
                t.load(a, i)

        m.parallel(w)
        assert m.load_imbalance() == pytest.approx(1.0, abs=0.05)

    def test_skewed_work_detected(self):
        m = Machine(n_threads=4)
        a = m.alloc(400)

        def w(t):
            reps = 10 if t.tid == 0 else 1
            for _ in range(reps):
                t.load(a, np.arange(100))

        m.parallel(w)
        assert m.load_imbalance() > 2.0

    def test_no_work_is_neutral(self):
        assert Machine().load_imbalance() == 1.0


class TestReport:
    def test_report_covers_requested_workloads(self):
        from repro.core.report import build_report
        text = build_report(SimScale.TINY, names=["hotspot", "blackscholes"])
        assert "### hotspot(R)" in text
        assert "### blackscholes(P)" in text
        assert "GPU (CUDA-style) profile" in text      # hotspot has a GPU side
        assert "Instruction mix" in text
        assert "Suite similarity" in text

    def test_parsec_only_card_has_no_gpu_section(self):
        from repro.core.report import build_report
        text = build_report(SimScale.TINY, names=["vips", "bfs"])
        card = text.split("### vips(P)")[1].split("###")[0]
        assert "GPU (CUDA-style) profile" not in card
        assert "Miss rate @ 4 MB" in card

    def test_runner_report_command(self, capsys):
        from repro.experiments.runner import main
        assert main(["report", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "# Workload characterization report" in out
        assert "streamcluster(R, P)" in out
