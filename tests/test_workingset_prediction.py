"""Tests for working-set detection, sharing-vs-size, and prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import PredictionResult, knn_predict, leave_one_out
from repro.cpusim.sharing import (
    sharing_at_size_chunked,
    sharing_at_size_scalar,
)
from repro.cpusim.workingset import (
    WorkingSet,
    detect_working_sets,
    fine_miss_curve_chunked,
)
from tests.chunks import one_chunk, two_chunks


def _loop_trace(n_lines, repeats, line=64, offset=0):
    """Cyclic sweep over n_lines cache lines, `repeats` times."""
    return np.tile(np.arange(n_lines) * line + offset, repeats)


def _working_sets(addrs):
    """Fine curve + knee detection in one call."""
    return detect_working_sets(fine_miss_curve_chunked(one_chunk(addrs)))


def _sharing_at_size(addrs, tids, size_bytes):
    """The scalar oracle's result, asserted equal to the streaming
    engine's on one chunk and on two."""
    want = sharing_at_size_scalar(addrs, tids, size_bytes)
    for chunks in (one_chunk(addrs, tids), two_chunks(addrs, tids)):
        assert sharing_at_size_chunked(chunks, size_bytes) == want
    return want


class TestFineCurve:
    def test_matches_loop_footprint(self):
        # 1000 lines = 64,000 B footprint: misses collapse once the
        # cache exceeds it.
        addrs = _loop_trace(1000, 20)
        curve = fine_miss_curve_chunked(one_chunk(addrs))
        small = curve[min(s for s in curve if s >= 16 * 1024)]
        big = curve[max(curve)]
        assert small > 0.9
        assert big < 0.06  # only cold misses remain

    def test_monotone(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 22, 20000) // 64 * 64
        curve = fine_miss_curve_chunked(one_chunk(addrs))
        vals = [curve[s] for s in sorted(curve)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_grid_density(self):
        addrs = _loop_trace(100, 2)
        curve = fine_miss_curve_chunked(one_chunk(addrs), points_per_octave=2)
        sizes = sorted(curve)
        # Two points per octave over 16 kB..32 MB: 11 octaves -> ~22.
        assert len(sizes) >= 20


class TestKneeDetection:
    def test_single_working_set(self):
        addrs = _loop_trace(1000, 20)   # 64 kB working set
        sets = _working_sets(addrs)
        assert len(sets) >= 1
        assert 64 * 1024 <= sets[0].size_bytes <= 256 * 1024
        assert sets[0].drop > 0.5

    def test_two_working_sets(self):
        # A hot 32 kB inner loop (most accesses) interleaved with 2 MB
        # sweeps: knees at both footprints.
        inner = _loop_trace(512, 40)
        outer = _loop_trace(32768, 1, offset=1 << 26)
        addrs = np.concatenate([inner, outer, inner, outer, inner])
        sets = _working_sets(addrs)
        assert len(sets) == 2
        assert sets[0].size_bytes < 256 * 1024
        assert sets[1].size_bytes > 1024 * 1024

    def test_flat_curve_no_knees(self):
        assert detect_working_sets({1024: 0.5, 2048: 0.5, 4096: 0.5}) == []

    def test_empty_curve(self):
        assert detect_working_sets({}) == []

    def test_adjacent_knees_merged(self):
        curve = {1024: 1.0, 2048: 0.6, 4096: 0.2, 8192: 0.2}
        sets = detect_working_sets(curve, min_drop_fraction=0.2)
        assert len(sets) == 1
        assert sets[0].drop == pytest.approx(0.8)


class TestSharingAtSize:
    def _trace(self, triples):
        a = np.array([t[0] for t in triples], dtype=np.int64)
        t = np.array([t[1] for t in triples], dtype=np.int16)
        return a, t

    def test_shared_hit_counted(self):
        a, t = self._trace([(0, 0), (0, 1), (0, 0)])
        s = _sharing_at_size(a, t, 4096)
        assert s.shared_accesses == 2  # t1's hit and t0's re-hit
        assert s.shared_lifetimes == 1

    def test_private_stream(self):
        a, t = self._trace([(i * 64, i % 2) for i in range(100)])
        s = _sharing_at_size(a, t, 64 * 1024)
        assert s.shared_accesses == 0
        assert s.frac_lifetimes_shared == 0.0

    def test_small_cache_hides_sharing(self):
        # Thread 0 sweeps 64 lines, then thread 1 sweeps the same lines.
        sweep0 = [(i * 64, 0) for i in range(64)]
        sweep1 = [(i * 64, 1) for i in range(64)]
        a, t = self._trace(sweep0 + sweep1)
        tiny = _sharing_at_size(a, t, 1024)      # 16 lines: evicted first
        big = _sharing_at_size(a, t, 64 * 1024)  # all resident
        assert big.shared_access_ratio > tiny.shared_access_ratio
        assert tiny.shared_accesses == 0

    def test_monotone_with_size_on_random_trace(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2048, 5000) * 64
        t = rng.integers(0, 4, 5000).astype(np.int16)
        r_small = _sharing_at_size(a, t, 16 * 1024).shared_access_ratio
        r_big = _sharing_at_size(a, t, 1 << 22).shared_access_ratio
        assert r_big >= r_small


class TestPrediction:
    def test_knn_exact_on_duplicate(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        targets = np.array([10.0, 20.0, 30.0])
        pred = knn_predict(coords, targets, np.array([0.0, 0.0]), k=1)
        assert pred == pytest.approx(10.0, rel=1e-6)

    def test_loo_recovers_smooth_function(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (30, 3))
        y = np.exp(x[:, 0])           # monotone in feature 0
        res = leave_one_out(x, y, [f"w{i}" for i in range(30)], k=3)
        assert res.rank_correlation > 0.7

    def test_loo_rejects_tiny_suites(self):
        with pytest.raises(ValueError):
            leave_one_out(np.zeros((3, 2)), np.ones(3), ["a", "b", "c"], k=3)

    def test_metrics_sane(self):
        res = PredictionResult(["a", "b"], np.array([1.0, 2.0]),
                               np.array([2.0, 1.0]))
        assert -1.0 <= res.rank_correlation <= 1.0
        assert res.mean_abs_log_error == pytest.approx(1.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_loo_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (10, 4))
        y = rng.uniform(1, 100, 10)
        names = [f"w{i}" for i in range(10)]
        a = leave_one_out(x, y, names, k=3)
        b = leave_one_out(x, y, names, k=3)
        np.testing.assert_array_equal(a.predicted, b.predicted)


class TestExtensionExperiments:
    def test_workingsets_driver(self):
        from repro.common.config import SimScale
        from repro.experiments import get_driver
        res = get_driver("ext_workingsets")(SimScale.TINY)
        assert len(res.data) == 24
        # Canneal's big netlist must show a detected working set.
        assert len(res.data["canneal"]) >= 1

    def test_sharing_size_driver(self):
        from repro.common.config import SimScale
        from repro.experiments import get_driver
        res = get_driver("ext_sharing_size")(SimScale.TINY)
        for name, d in res.data.items():
            ratios = [d["by_size"][s] for s in sorted(d["by_size"])]
            # Residency-windowed sharing never exceeds whole-run sharing
            # and does not decrease with cache size.
            assert all(r <= d["whole_run"] + 1e-9 for r in ratios), name
            assert all(a <= b + 1e-9 for a, b in zip(ratios, ratios[1:])), name

    def test_prediction_driver(self):
        from repro.common.config import SimScale
        from repro.experiments import get_driver
        res = get_driver("ext_prediction")(SimScale.TINY)
        d = res.data
        assert d["Combined"]["rho"] >= d["CPU features only"]["rho"]
        assert len(d["per_workload"]) == 12
