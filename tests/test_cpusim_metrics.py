"""Tests for the assembled CPU metrics and the feature-extraction layer."""

import numpy as np
import pytest

from repro.common.config import SimScale
from repro.core.features import (
    clear_caches,
    cpu_metrics_for,
    display_label,
    feature_matrix,
    gpu_trace_for,
    suite_workloads,
)
from repro.core.artifacts import ArtifactCache
from repro.cpusim import CodeFootprintTracer, Machine, characterize_trace
from repro.cpusim.coherence import simulate_coherent_caches_chunked
from repro.cpusim.metrics import SHARING_SIZES
from repro.cpusim.sharing import sharing_at_size_chunked
from repro.cpusim.workingset import fine_miss_curve_chunked
from repro.workloads import base as wl


class TestCharacterizeTrace:
    def _machine(self):
        m = Machine(n_threads=2)
        a = m.array(np.arange(1000.0))

        def w(t):
            v = t.load(a, np.arange(t.tid, 1000, 2))
            t.alu(v.size)
            t.branch(10)

        m.parallel(w)
        return m

    def test_metrics_complete(self):
        met = characterize_trace(self._machine(), "demo",
                                 code_footprint_64b=7)
        assert met.name == "demo"
        assert met.code_footprint_64b == 7
        assert met.mem_refs == 1000
        assert len(met.miss_curve) == 8
        assert 0.0 <= met.miss_rate_4mb <= 1.0

    def test_feature_dicts_disjoint_keys(self):
        met = characterize_trace(self._machine(), "demo")
        mix = set(met.mix_features())
        ws = set(met.working_set_features())
        sh = set(met.sharing_features())
        assert not (mix & ws) and not (mix & sh) and not (ws & sh)
        assert set(met.all_features()) == mix | ws | sh

    def test_exact_vs_curve_close(self):
        met = characterize_trace(self._machine(), "demo")
        # Interleaved stride-2 reads: both estimators nearly agree.
        assert met.miss_rate_4mb == pytest.approx(
            met.miss_curve[4 * 1024 * 1024], abs=0.02)

    def test_interleaved_halves_share_everything(self):
        met = characterize_trace(self._machine(), "demo")
        # Threads 0/1 touch alternating doubles of the same lines.
        assert met.sharing.frac_lines_shared > 0.9


@pytest.mark.parametrize("name", ["dedup", "hotspot", "canneal"])
def test_extension_metrics_equal_standalone_passes(name, tmp_path):
    """The folded extension metrics are exactly the standalone analyses
    over the same machine, and survive the artifact round trip."""
    wl.load_all()
    machine = Machine()
    wl.get(name).cpu_fn(machine, SimScale.TINY)
    met = characterize_trace(machine, name)
    chunks = machine.iter_trace_chunks
    assert met.fine_miss_curve == fine_miss_curve_chunked(chunks)
    assert met.sharing_by_size == {
        size: sharing_at_size_chunked(chunks, size) for size in SHARING_SIZES
    }
    assert met.coherence == simulate_coherent_caches_chunked(chunks)

    cache = ArtifactCache(tmp_path)
    cache.put_cpu(name, SimScale.TINY, "key", met)
    loaded = cache.get_cpu(name, SimScale.TINY, "key")
    assert loaded == met
    assert list(loaded.fine_miss_curve) == list(met.fine_miss_curve)
    assert list(loaded.sharing_by_size) == list(SHARING_SIZES)


class TestCodeFootprintTracer:
    def test_counts_only_workload_frames(self):
        tracer = CodeFootprintTracer()
        from repro.workloads.rodinia import hotspot
        with tracer:
            hotspot.cpu_sizes(SimScale.TINY)
        assert tracer.n_functions >= 1
        assert tracer.footprint_blocks() >= 1

    def test_excludes_foreign_frames(self):
        tracer = CodeFootprintTracer(path_filter="no-such-path")
        with tracer:
            sum(range(100))
        assert tracer.n_functions == 0

    def test_matches_the_package_directory_not_a_substring(self, tmp_path):
        # A checkout under a directory named "workloads" must not count
        # frames outside the repro.workloads package.
        ns = {}
        path = str(tmp_path / "workloads" / "f.py")
        exec(compile("def f():\n    return 1\n", path, "exec"), ns)
        tracer = CodeFootprintTracer()
        with tracer:
            ns["f"]()
        assert tracer.n_functions == 0
        from repro.workloads.rodinia import hotspot
        with tracer:
            hotspot.cpu_sizes(SimScale.TINY)
        assert tracer.n_functions >= 1

    def test_nested_restore(self):
        import sys
        before = sys.getprofile()
        with CodeFootprintTracer():
            pass
        assert sys.getprofile() is before


class TestFeatureLayer:
    def test_suite_workloads_dedupes(self):
        names = suite_workloads()
        assert len(names) == 24
        assert names.count("streamcluster") == 1

    def test_suite_workloads_keep_twin_if_asked(self):
        names = suite_workloads(dedupe_shared=False)
        assert "streamcluster_p" in names

    def test_suite_order_independent_of_import_order(self):
        """Importing one workload module before the registry loads the
        rest (as an outside-in tracer does) moves no table row."""
        import json
        import os
        import subprocess
        import sys

        probe = (
            "import json, sys\n"
            "if sys.argv[1] == 'early':\n"
            "    import repro.workloads.parsec.raytrace\n"
            "from repro.core.features import suite_workloads\n"
            "print(json.dumps(suite_workloads(dedupe_shared=False)))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        orders = [
            json.loads(subprocess.run(
                [sys.executable, "-c", probe, mode], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
            for mode in ("early", "plain")
        ]
        assert orders[0] == orders[1]
        assert orders[1].index("blackscholes") < orders[1].index("raytrace")
        assert orders[1] == suite_workloads(dedupe_shared=False)

    def test_display_labels(self):
        assert display_label("bfs") == "bfs(R)"
        assert display_label("vips") == "vips(P)"
        assert display_label("streamcluster") == "streamcluster(R, P)"

    def test_cpu_metrics_memoized(self):
        a = cpu_metrics_for("hotspot", SimScale.TINY)
        b = cpu_metrics_for("hotspot", SimScale.TINY)
        assert a is b

    def test_gpu_trace_memoized_per_version(self):
        t_default = gpu_trace_for("srad", SimScale.TINY)
        t_v1 = gpu_trace_for("srad", SimScale.TINY, version=1)
        assert t_default is not t_v1
        assert gpu_trace_for("srad", SimScale.TINY) is t_default

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            gpu_trace_for("bfs", SimScale.TINY, version=2)

    def test_parsec_has_no_gpu(self):
        with pytest.raises(ValueError):
            gpu_trace_for("vips", SimScale.TINY)

    def test_feature_matrix_shapes(self):
        names = ["hotspot", "bfs"]
        for subset, n_feats in (("mix", 4), ("workingset", 8), ("sharing", 5)):
            x, feats = feature_matrix(names, subset=subset,
                                      scale=SimScale.TINY)
            assert x.shape == (2, n_feats)
            assert len(feats) == n_feats

    def test_feature_matrix_all_is_union(self):
        x, feats = feature_matrix(["hotspot"], subset="all",
                                  scale=SimScale.TINY)
        assert x.shape == (1, 17)

    def test_invalid_subset(self):
        with pytest.raises(ValueError):
            feature_matrix(["bfs"], subset="bogus", scale=SimScale.TINY)
