"""Tests of the end-to-end benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
e2e = sys.modules["e2e_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e)


# ----------------------------------------------------------------------
# Block splitting and digesting
# ----------------------------------------------------------------------
STDOUT = (
    "Table A\n=======\nx  y\n----\n1  2\n"
    "\n[fig1 completed in 4.8s]\n\n"
    "Table B\n=======\nz\n-\n3\n"
    "\n[table1 completed in 0.0s]\n\n"
    "Table C\n=======\npartial, no marker"
)


def test_split_blocks_drops_markers_and_unfinished_output():
    blocks = e2e.split_blocks(STDOUT)
    assert list(blocks) == ["fig1", "table1"]
    assert blocks["fig1"] == "Table A\n=======\nx  y\n----\n1  2"
    assert blocks["table1"] == "Table B\n=======\nz\n-\n3"


def test_digest_ignores_the_duration_line():
    slower = STDOUT.replace("4.8s", "61.0s").replace("0.0s", "12.3s")
    assert e2e.split_blocks(slower) == e2e.split_blocks(STDOUT)
    digests = {k: e2e.digest(v) for k, v in e2e.split_blocks(STDOUT).items()}
    assert len(set(digests.values())) == 2
    assert all(len(d) == 64 for d in digests.values())


def test_check_blocks_reports_each_kind_of_failure():
    blocks = e2e.split_blocks(STDOUT)
    expected = {"fig1": e2e.digest(blocks["fig1"]), "fig3": "1" * 64}
    failures = e2e.check_blocks(blocks, ["fig1", "table1", "fig3"], expected)
    assert sorted(failures) == ["fig3", "table1"]
    assert "no reference" in failures["table1"]
    assert "no completion marker" in failures["fig3"]
    expected["fig1"] = "0" * 64
    assert "differs" in e2e.check_blocks(blocks, ["fig1"], expected)["fig1"]


# ----------------------------------------------------------------------
# Self-time accounting
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_layers():
    clock = FakeClock()
    trace = layertrace.LayerTrace(clock)

    inner = trace.wrap("b", lambda: clock.work(2.0))

    def outer_fn():
        clock.work(1.0)
        inner()
        inner()
        clock.work(3.0)

    outer = trace.wrap("a", outer_fn)
    outer()
    assert trace.calls == {"a": 1, "b": 2}
    assert trace.self_s == {"a": 4.0, "b": 4.0}
    assert sum(trace.self_s.values()) == clock.now


def test_self_time_under_recursion_sums_to_outermost_elapsed():
    clock = FakeClock()
    trace = layertrace.LayerTrace(clock)

    def fact(n):
        clock.work(1.0)
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = trace.wrap("rec", fact)
    leaf = trace.wrap("leaf", lambda: clock.work(0.5))
    top = trace.wrap("top", lambda: (leaf(), wrapped(5), leaf()))
    top()
    assert trace.calls == {"rec": 5, "leaf": 2, "top": 1}
    assert trace.self_s == {"rec": 5.0, "leaf": 1.0, "top": 0.0}
    assert sum(trace.self_s.values()) == clock.now == 6.0


def test_self_time_is_charged_when_the_call_raises():
    clock = FakeClock()
    trace = layertrace.LayerTrace(clock)

    def boom():
        clock.work(1.5)
        raise ValueError("x")

    wrapped = trace.wrap("a", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert trace.calls["a"] == 1 and trace.self_s["a"] == 1.5
    assert trace._stack == []


# ----------------------------------------------------------------------
# Alias sweep
# ----------------------------------------------------------------------
def _artifact_keys():
    from repro.common.config import SimScale
    from repro.core.artifacts import ArtifactCache
    from repro.core.features import _machine_config
    from repro.workloads import base as wl

    cache = ArtifactCache("unused")
    keys = {}
    for name, defn in sorted(wl.load_all().items()):
        keys[f"cpu/{name}"] = cache.cpu_key(name, SimScale.TINY, defn.cpu_fn,
                                            _machine_config())
        if defn.gpu_fn is not None:
            keys[f"gpu/{name}"] = cache.gpu_key(name, SimScale.TINY, 0,
                                                defn.gpu_fn)
        for version, fn in (defn.gpu_versions or {}).items():
            keys[f"gpu/{name}/v{version}"] = cache.gpu_key(
                name, SimScale.TINY, version, fn)
    return keys


def test_alias_sweep_wraps_every_copy_and_keeps_artifact_keys():
    from repro.core import artifacts, features
    from repro.cpusim import metrics
    from repro.experiments import runner
    from repro.workloads import base as wl

    before = _artifact_keys()
    original = metrics.characterize_trace
    kmeans = wl.get("kmeans")
    cpu_fn, check = kmeans.cpu_fn, kmeans.check_cpu
    trace = layertrace.LayerTrace().install()
    try:
        assert metrics.characterize_trace is not original
        assert metrics.characterize_trace.__wrapped__ is original
        # The ``from ... import`` copies are the same wrapper object.
        assert features.characterize_trace is metrics.characterize_trace
        assert runner.run_experiment.__wrapped__.__module__ == "repro.experiments"
        assert kmeans.cpu_fn.__wrapped__ is cpu_fn
        assert kmeans.check_cpu.__wrapped__ is check
        assert sys.modules[cpu_fn.__module__].__dict__[cpu_fn.__name__] \
            is kmeans.cpu_fn
        assert artifacts.load_trace.__wrapped__ is not None
        assert _artifact_keys() == before
    finally:
        trace.uninstall()
    assert metrics.characterize_trace is original
    assert features.characterize_trace is original
    assert kmeans.cpu_fn is cpu_fn and kmeans.check_cpu is check
    assert not hasattr(artifacts.load_trace, "__wrapped__")


# ----------------------------------------------------------------------
# Regression bounds
# ----------------------------------------------------------------------
def test_bound_is_a_share_with_an_absolute_floor():
    # 10% of 20 s is 2 s: 21.9 passes, 22.1 regresses.
    assert not e2e.regressed(20.0, 21.9, 0.10, 1.0)
    assert e2e.regressed(20.0, 22.1, 0.10, 1.0)
    # On a 2 s metric the 1 s floor is wider than 10%.
    assert not e2e.regressed(2.0, 2.9, 0.10, 1.0)
    assert e2e.regressed(2.0, 3.1, 0.10, 1.0)
    # Getting better never regresses.
    assert not e2e.regressed(2.0, 0.5, 0.0, 0.0)


def _result(failed=0, **values):
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in values.items()}}


def test_compare_uses_the_metric_bound_and_floor_and_fail_ratio():
    bounds = {"wall_s": 0.10, "peak_rss_mb": 0.05, "setup_s": 0.25}
    base = _result(wall_s=5.0, peak_rss_mb=200.0, setup_s=0.4)
    assert e2e.compare(base, _result(wall_s=5.4, peak_rss_mb=215.0,
                                     setup_s=0.59), bounds) == []
    worse = e2e.compare(base, _result(wall_s=5.6, peak_rss_mb=217.0,
                                      setup_s=0.61, failed=1), bounds)
    assert [line.split(":")[0] for line in worse] == [
        "peak_rss_mb", "setup_s", "wall_s", "fail_ratio"]
    # Keys qualified by workload take the bound of their metric.
    multi = e2e.compare(_result(**{"w/wall_s": 5.0}),
                        _result(**{"w/wall_s": 5.6}), bounds)
    assert multi and multi[0].startswith("w/wall_s")


# ----------------------------------------------------------------------
# Through the harness
# ----------------------------------------------------------------------
def test_benchmark_spec_matches_the_harness():
    spec = json.loads(e2e.SPEC.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(e2e.WORKLOADS)
    outcome = e2e.Outcome("x", "tiny", [1.0], [e2e.Sample(1.0, 1.0, 0, "", "")])
    assert {m["name"] for m in spec["end_to_end"]} <= set(outcome.e2e())
    assert spec["paths"] == ["benchmarks/e2e"]


def test_smoke_run_through_the_harness(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--experiments", "table1",
         "fig3", "--scale", "tiny", "--reps", "1", "--traced",
         "--history", "off", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == json.loads(out.read_text())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4  # one rep and one traced rep
    spec = json.loads(e2e.SPEC.read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["experiments.calls"] == 2
    assert metrics["workloads.gpu.calls"] == 12
    assert metrics["workloads.cpu.calls"] == 0
    assert metrics["gpusim.launch.calls"] > 0
    for line in ("e2e    adhoc            wall_s", "setup_s", "n=3"):
        assert line in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(e2e.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "gpu-tiny-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
