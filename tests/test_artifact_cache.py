"""Persistent artifact cache: round-trips, key invalidation, execution skip."""

import collections
import contextlib
import dataclasses
import io
import json
import re

import numpy as np
import pytest

from repro.common.config import SimScale
from repro.core import artifacts, features
from repro.core.artifacts import ArtifactCache, artifact_key
from repro.cpusim.coherence import CoherenceStats
from repro.cpusim.metrics import CPUMetrics
from repro.cpusim.sharing import SharingStats, SizeSharing


def _sample_metrics() -> CPUMetrics:
    return CPUMetrics(
        name="demo",
        inst_mix={"int": 0.5, "fp": 0.25, "branch": 0.25},
        total_insts=1000,
        mem_refs=300,
        miss_curve={131072: 0.5, 262144: 0.25},
        miss_rate_4mb=0.125,
        sharing=SharingStats(10, 4, 300, 120, 2, 30, 1.5),
        data_footprint_4kb=16,
        code_footprint_64b=9,
        fine_miss_curve={16384: 0.75, 23170: 0.5, 32768: 0.25},
        sharing_by_size={262144: SizeSharing(262144, 300, 90, 40, 12)},
        coherence=CoherenceStats(8, 300, 60, 20, 5, 7, 3, 4, 3),
    )


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def test_cpu_metrics_round_trip(cache):
    metrics = _sample_metrics()
    cache.put_cpu("demo", SimScale.TINY, "abc123", metrics)
    loaded = cache.get_cpu("demo", SimScale.TINY, "abc123")
    assert loaded is not None
    assert dataclasses.asdict(loaded) == dataclasses.asdict(metrics)
    # Dict keys survive the JSON round-trip as ints.
    for field in ("miss_curve", "fine_miss_curve", "sharing_by_size"):
        assert all(isinstance(k, int) for k in getattr(loaded, field))
    assert loaded.all_features() == metrics.all_features()


def test_reads_refresh_mtime_for_lru(cache):
    """A hit must touch the entry or LRU pruning evicts hot artifacts."""
    import os

    metrics = _sample_metrics()
    cache.put_cpu("demo", SimScale.TINY, "abc123", metrics)
    path = cache._path("cpu", "demo", SimScale.TINY, "abc123", ".json")
    stale = 1_000_000_000.0  # 2001 — long before any test run
    os.utime(path, (stale, stale))
    assert cache.get_cpu("demo", SimScale.TINY, "abc123") is not None
    assert path.stat().st_mtime > stale


def test_missing_and_corrupt_entries_miss(cache, tmp_path):
    assert cache.get_cpu("demo", SimScale.TINY, "nothere") is None
    path = cache._path("cpu", "demo", SimScale.TINY, "bad", ".json")
    cache.root.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json", encoding="utf-8")
    assert cache.get_cpu("demo", SimScale.TINY, "bad") is None
    assert cache.get_gpu("demo", SimScale.TINY, "nothere") is None
    # A trace in the retired dense layout (format 1) is a miss too.
    header = json.dumps({"format": 1, "app_name": "demo", "launches": []})
    np.savez(cache._path("gpu", "demo", SimScale.TINY, "v1", ".npz"),
             header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8))
    assert cache.get_gpu("demo", SimScale.TINY, "v1") is None


def test_gpu_trace_round_trip(cache):
    trace = features.gpu_trace_for("nw", SimScale.TINY)
    cache.put_gpu("nw", SimScale.TINY, "k1", trace)
    loaded = cache.get_gpu("nw", SimScale.TINY, "k1")
    assert loaded is not None
    assert loaded.app_name == trace.app_name
    assert len(loaded.launches) == len(trace.launches)
    for a, b in zip(loaded.launches, trace.launches):
        assert a.kernel_name == b.kernel_name
        ta, tb = a.transactions(), b.transactions()
        assert all(np.array_equal(x, y) for x, y in zip(ta, tb))


def test_key_changes_with_config_and_source():
    base = artifact_key("cpu", "bfs", SimScale.TINY, "src-v1", {"line": 64})
    assert base == artifact_key(
        "cpu", "bfs", SimScale.TINY, "src-v1", {"line": 64}
    )
    # Any ingredient change must produce a different key.
    assert base != artifact_key("cpu", "bfs", SimScale.TINY, "src-v2", {"line": 64})
    assert base != artifact_key("cpu", "bfs", SimScale.TINY, "src-v1", {"line": 128})
    assert base != artifact_key("cpu", "bfs", SimScale.SMALL, "src-v1", {"line": 64})
    assert base != artifact_key("gpu", "bfs", SimScale.TINY, "src-v1", {"line": 64})
    assert base != artifact_key("cpu", "nw", SimScale.TINY, "src-v1", {"line": 64})


def test_stale_entry_not_matched_after_config_change(cache):
    """A cached artifact under an old config hash is simply never hit."""
    metrics = _sample_metrics()
    key_old = artifact_key("cpu", "demo", SimScale.TINY, "src", {"quantum": 100})
    cache.put_cpu("demo", SimScale.TINY, key_old, metrics)
    key_new = artifact_key("cpu", "demo", SimScale.TINY, "src", {"quantum": 200})
    assert cache.get_cpu("demo", SimScale.TINY, key_new) is None
    assert cache.get_cpu("demo", SimScale.TINY, key_old) is not None


def test_warm_cache_skips_execution(tmp_path):
    """Second run of a workload comes entirely from disk: zero executions."""
    prev = artifacts.get_artifact_cache()
    artifacts.set_artifact_cache(ArtifactCache(tmp_path / "warm"))
    try:
        features.clear_caches()
        features.EXECUTIONS.clear()
        m1 = features.cpu_metrics_for("nw", SimScale.TINY)
        t1 = features.gpu_trace_for("nw", SimScale.TINY)
        assert ("cpu", "nw", "tiny") in features.EXECUTIONS
        assert ("gpu", "nw", "tiny") in features.EXECUTIONS

        # New process simulated by dropping the in-memory memo.
        features.clear_caches()
        features.EXECUTIONS.clear()
        m2 = features.cpu_metrics_for("nw", SimScale.TINY)
        t2 = features.gpu_trace_for("nw", SimScale.TINY)
        assert features.EXECUTIONS == []
        assert m2.all_features() == m1.all_features()
        assert t2.thread_insts == t1.thread_insts
    finally:
        artifacts.set_artifact_cache(prev)
        features.clear_caches()


def test_disabled_cache_always_executes(tmp_path):
    prev = artifacts.get_artifact_cache()
    artifacts.set_artifact_cache(None)  # force off
    try:
        features.clear_caches()
        features.EXECUTIONS.clear()
        features.cpu_metrics_for("nw", SimScale.TINY)
        features.clear_caches()
        features.cpu_metrics_for("nw", SimScale.TINY)
        assert features.EXECUTIONS.count(("cpu", "nw", "tiny")) == 2
    finally:
        artifacts.set_artifact_cache(prev)
        features.clear_caches()


def test_env_disable(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert artifacts.default_cache() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    c = artifacts.default_cache()
    assert c is not None and str(c.root) == "/tmp/somewhere"


def test_prune_plans_entry_budget_is_lru(tmp_path):
    import time

    cache = artifacts.ArtifactCache(tmp_path)
    for i in range(4):
        cache.put_plan_file(f"k{i}", "0" * 16,
                            lambda tmp: open(tmp, "wb").write(b"x" * 64))
        time.sleep(0.01)
    assert cache.prune_plans(max_entries=2) == 2
    kept = sorted(p.name for p in tmp_path.glob("plan-*.npz"))
    assert kept == [f"plan-k2-{'0' * 16}.npz", f"plan-k3-{'0' * 16}.npz"]


def test_prune_plans_byte_budget_keeps_newest(tmp_path):
    import time

    cache = artifacts.ArtifactCache(tmp_path)
    for i in range(3):
        cache.put_plan_file(f"b{i}", "1" * 16,
                            lambda tmp: open(tmp, "wb").write(b"x" * 100))
        time.sleep(0.01)
    # Budget fits one file: newest survives even though it alone
    # busts the budget check for subsequent entries.
    assert cache.prune_plans(max_entries=10, max_bytes=150) == 2
    kept = [p.name for p in tmp_path.glob("plan-*.npz")]
    assert kept == [f"plan-b2-{'1' * 16}.npz"]


def test_runner_warm_cache_skips_executions(capsys):
    """A runner invocation against a warm cache executes no workloads."""
    from repro.experiments import runner

    features.clear_caches()
    runner.main(["fig1", "--scale", "tiny"])  # fills the artifact cache

    # Fresh process simulated by dropping the in-memory memo.
    features.clear_caches()
    features.EXECUTIONS.clear()
    runner.main(["fig1", "--scale", "tiny"])
    capsys.readouterr()
    assert features.EXECUTIONS == []


def test_runner_no_cache_flag(tmp_path, capsys):
    """--no-cache turns persistence off for the run."""
    from repro.experiments import runner

    prev = artifacts.get_artifact_cache()
    artifacts.set_artifact_cache(ArtifactCache(tmp_path / "r"))
    try:
        features.clear_caches()
        features.EXECUTIONS.clear()
        runner.main(["table1", "--scale", "tiny", "--no-cache"])
        capsys.readouterr()
        assert artifacts.get_artifact_cache() is None
        assert not (tmp_path / "r").exists()
    finally:
        artifacts.set_artifact_cache(prev)
        features.clear_caches()


# ----------------------------------------------------------------------
# Each CPU workload executes once: every CPU experiment reads the artifact
# ----------------------------------------------------------------------
_EXT_ARGV = ["ext_sharing_size", "ext_workingsets", "ext_coherence", "fig10",
             "--scale", "tiny"]


@contextlib.contextmanager
def _fresh_process(cache):
    """Run against ``cache`` with an empty memo, as a new process would."""
    prev = artifacts.get_artifact_cache()
    artifacts.set_artifact_cache(cache)
    features.clear_caches()
    features.EXECUTIONS.clear()
    try:
        yield
    finally:
        artifacts.set_artifact_cache(prev)
        features.clear_caches()


def _run(argv):
    """Runner stdout with the wall-clock ``[... completed in Ns]`` lines cut."""
    from repro.experiments import runner

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert runner.main(list(argv)) == 0
    return re.sub(r"\[\w+ completed in [0-9.]+s\]", "", buf.getvalue())


@pytest.fixture(scope="module")
def ext_cold(tmp_path_factory):
    """One cold run of the CPU extension experiments plus Fig 10."""
    cache = ArtifactCache(tmp_path_factory.mktemp("ext-cache"))
    with _fresh_process(cache):
        out = _run(_EXT_ARGV)
        executions = list(features.EXECUTIONS)
    return cache, out, executions


def test_cold_run_executes_each_cpu_workload_once(ext_cold):
    _, _, executions = ext_cold
    runs = collections.Counter(e for e in executions if e[0] == "cpu")
    assert {name for _, name, _ in runs} == set(features.suite_workloads())
    assert set(runs.values()) == {1}


def test_warm_run_executes_nothing(ext_cold):
    cache, cold_out, _ = ext_cold
    with _fresh_process(cache):
        assert _run(_EXT_ARGV) == cold_out
        assert features.EXECUTIONS == []


def test_stale_or_truncated_cpu_entry_reexecutes_once(ext_cold):
    """An older-layout or torn ``cpu-*.json`` is a miss: the runner
    re-executes that workload once, rewrites the entry, and renders the
    same tables."""
    cache, cold_out, _ = ext_cold
    argv = ["ext_sharing_size", "--scale", "tiny"]
    with _fresh_process(cache):
        expected = _run(argv)
    assert expected in cold_out
    paths = {name: next(cache.root.glob(f"cpu-{name}-tiny-*.json"))
             for name in ("dedup", "hotspot")}
    old = json.loads(paths["dedup"].read_text(encoding="utf-8"))
    for field in ("fine_miss_curve", "sharing_by_size", "coherence"):
        del old[field]
    with pytest.raises(TypeError):
        artifacts._metrics_from_dict(old)
    paths["dedup"].write_text(json.dumps(old), encoding="utf-8")
    text = paths["hotspot"].read_text(encoding="utf-8")
    paths["hotspot"].write_text(text[: len(text) // 2], encoding="utf-8")

    with _fresh_process(cache):
        assert _run(argv) == expected
        assert sorted(features.EXECUTIONS) == [
            ("cpu", "dedup", "tiny"), ("cpu", "hotspot", "tiny"),
        ]
    for name, path in paths.items():
        key = path.stem.rsplit("-", 1)[-1]
        assert cache.get_cpu(name, SimScale.TINY, key) is not None
    with _fresh_process(cache):
        assert _run(argv) == expected
        assert features.EXECUTIONS == []


def test_cold_gpu_run_writes_no_plan_files(tmp_path):
    """Every launch runs on the batch (or scalar) engine: a cold GPU run
    persists kernel traces and nothing else."""
    cache = ArtifactCache(tmp_path / "gpu-cache")
    with _fresh_process(cache):
        _run(["run", "fig1", "ext_parsec_ports", "--scale", "tiny",
              "--registry", "off"])
    assert list(cache.root.glob("gpu-*.npz"))
    assert list(cache.root.glob("plan-*.npz")) == []
