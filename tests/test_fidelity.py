"""Fidelity layer: run registry, golden drift gate, runner integration.

Pins the contracts ISSUE 4 introduces: records are content-keyed and
round-trip; the drift checker classifies pass/warn/fail/missing/new
correctly and names offenders; the paper goldens match a fresh run
exactly (the simulators are deterministic); and the runner CLI gates a
SMALL-scale experiment end-to-end through registry + drift with the
right exit codes.
"""

import json

import pytest

from repro import telemetry
from repro.api import ExperimentRequest
from repro.common.config import SimScale, config
from repro.fidelity import (
    DriftReport,
    RunRecord,
    RunRegistry,
    Tolerance,
    check_drift,
    flatten_metrics,
    golden_scales,
    paper_goldens,
    record_from_results,
    tolerance_for,
)
from repro.fidelity.goldens import GOLDEN_EXPERIMENTS


# ----------------------------------------------------------------------
# Metric flattening
# ----------------------------------------------------------------------
class TestFlatten:
    def test_nested_numeric_leaves(self):
        data = {
            "backprop": {"ipc8": 1.5, "ipc28": 3, "bound": "bandwidth"},
            "curve": [1, 2.5],
            "note": "text",
        }
        assert flatten_metrics("fig1", data) == {
            "fig1/backprop/ipc8": 1.5,
            "fig1/backprop/ipc28": 3.0,
            "fig1/curve/0": 1.0,
            "fig1/curve/1": 2.5,
        }

    def test_booleans_and_strings_skipped(self):
        assert flatten_metrics("x", {"flag": True, "s": "y"}) == {}

    def test_scalar_root(self):
        assert flatten_metrics("x", 2) == {"x": 2.0}


# ----------------------------------------------------------------------
# RunRecord / RunRegistry
# ----------------------------------------------------------------------
def _record(**overrides):
    base = dict(
        kind="run", scale="tiny", experiments=["fig1"],
        metrics={"fig1/a/ipc8": 1.0}, counters={"c": 2},
        span_stats={"experiment": [1, 0.5]}, durations={"fig1": 0.5},
        meta={"argv": ["fig1"]},
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRegistry:
    def test_content_key_ignores_provenance(self):
        a = _record().stamp()
        b = _record(counters={}, durations={}, meta={}).stamp()
        assert a.run_id == b.run_id  # timing/provenance excluded
        c = _record(metrics={"fig1/a/ipc8": 2.0}).stamp()
        assert c.run_id != a.run_id  # metrics included

    def test_save_load_roundtrip(self, tmp_path):
        reg = RunRegistry(tmp_path / "reg")
        path = reg.save(_record())
        assert path.name.startswith("run-")
        loaded = reg.load(path)
        assert loaded == reg.load(loaded.run_id)  # by path and by id
        assert loaded.metrics == {"fig1/a/ipc8": 1.0}
        assert loaded.span_stats == {"experiment": [1, 0.5]}
        assert loaded.timestamp

    def test_identical_rerun_dedupes(self, tmp_path):
        reg = RunRegistry(tmp_path)
        reg.save(_record())
        reg.save(_record())
        assert len(reg.records()) == 1
        reg.save(_record(metrics={"fig1/a/ipc8": 9.0}))
        assert len(reg.records()) == 2

    def test_kind_filter_and_latest(self, tmp_path):
        reg = RunRegistry(tmp_path)
        reg.save(_record(timestamp="2026-01-01T00:00:00"))
        reg.save(_record(kind="experiment", metrics={"fig1/a/ipc8": 7.0},
                         timestamp="2026-01-02T00:00:00"))
        assert [r.kind for r in reg.records("experiment")] == ["experiment"]
        assert reg.latest().timestamp == "2026-01-02T00:00:00"
        assert reg.latest("run").kind == "run"

    def test_empty_registry(self, tmp_path):
        reg = RunRegistry(tmp_path / "nonexistent")
        assert reg.records() == []
        assert reg.latest() is None
        with pytest.raises(FileNotFoundError):
            reg.load("deadbeef")

    def test_version_refusal(self, tmp_path):
        body = json.loads(_record().stamp().to_json())
        body["v"] = 99
        path = tmp_path / "run-x.json"
        path.write_text(json.dumps(body))
        with pytest.raises(ValueError, match="version"):
            RunRegistry(tmp_path).load(path)

    def test_record_from_results(self):
        from repro.experiments import ExperimentResult

        result = ExperimentResult(
            "fig1", [], {"bp": {"ipc8": 5.0}},
            metadata={"duration_s": 1.25},
        )
        rec = record_from_results([result], "small", counters={"k": 1})
        assert rec.metrics == {"fig1/bp/ipc8": 5.0}
        assert rec.durations == {"fig1": 1.25}
        assert rec.experiments == ["fig1"]
        assert rec.run_id and rec.timestamp


# ----------------------------------------------------------------------
# Drift checker
# ----------------------------------------------------------------------
class TestDrift:
    def test_statuses(self):
        baseline = {"fig1/a/ipc8": 100.0, "fig1/b/ipc8": 100.0,
                    "fig1/c/ipc8": 100.0, "fig1/d/ipc8": 100.0}
        metrics = {
            "fig1/a/ipc8": 100.0,        # pass (exact)
            "fig1/b/ipc8": 107.0,        # warn (5% < 7% <= 10%)
            "fig1/c/ipc8": 150.0,        # fail (50%)
            # fig1/d missing -> fail
            "fig1/e/ipc8": 1.0,          # new
        }
        report = check_drift(metrics, baseline, "b", "tiny")
        by = {e.metric: e.status for e in report.entries}
        assert by == {
            "fig1/a/ipc8": "pass", "fig1/b/ipc8": "warn",
            "fig1/c/ipc8": "fail", "fig1/d/ipc8": "missing",
            "fig1/e/ipc8": "new",
        }
        assert (report.n_pass, report.n_warn, report.n_fail,
                report.n_new) == (1, 1, 2, 1)
        assert not report.ok and report.exit_code == 1
        assert {e.metric for e in report.failures} == {
            "fig1/c/ipc8", "fig1/d/ipc8"
        }

    def test_all_pass_exit_zero(self):
        report = check_drift({"fig1/a/ipc8": 1.0}, {"fig1/a/ipc8": 1.0})
        assert report.ok and report.exit_code == 0
        assert "PASS" in report.summary_line()

    def test_uncovered_experiments_skipped_not_failed(self):
        baseline = {"fig1/a/ipc8": 1.0}
        metrics = {"fig3/a/mean": 9.0}  # baseline knows nothing of fig3
        report = check_drift(metrics, baseline)
        assert report.entries == []
        assert report.skipped == ["fig3"]
        assert report.ok

    def test_abs_floor_protects_near_zero(self):
        # An empty occupancy bucket moving by 1e-3 is within the floor.
        report = check_drift({"fig3/a/1-8": 0.001}, {"fig3/a/1-8": 0.0})
        assert report.entries[0].status == "pass"

    def test_tolerance_rules(self):
        assert tolerance_for("fig1/a/ipc8").abs_floor == 0.5
        assert tolerance_for("fig10/a").abs_floor == pytest.approx(5e-4)
        assert tolerance_for("unknown/x") == Tolerance()

    def test_worst_orders_by_budget_ratio(self):
        baseline = {"fig1/a/ipc8": 100.0, "fig1/b/ipc8": 100.0}
        report = check_drift(
            {"fig1/a/ipc8": 103.0, "fig1/b/ipc8": 130.0}, baseline
        )
        assert [e.metric for e in report.worst(2)] == [
            "fig1/b/ipc8", "fig1/a/ipc8"
        ]

    def test_table_and_render(self):
        report = check_drift({"fig1/a/ipc8": 150.0}, {"fig1/a/ipc8": 100.0})
        text = report.to_table().render()
        assert "fig1/a/ipc8" in text and "fail" in text
        from repro.core.report import render_drift

        rendered = render_drift(report)
        assert "FAIL" in rendered and "fig1/a/ipc8" in rendered


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------
class TestGoldens:
    def test_scales_pinned(self):
        assert set(golden_scales()) == {"tiny", "small"}
        with pytest.raises(ValueError, match="medium"):
            paper_goldens(SimScale.MEDIUM)

    def test_golden_metrics_cover_expected_families(self):
        goldens = paper_goldens("small")
        prefixes = {m.split("/", 1)[0] for m in goldens}
        assert prefixes == set(GOLDEN_EXPERIMENTS)
        assert any(m.endswith("/ipc28") for m in goldens)      # fig1
        assert any("/25-32" in m for m in goldens)             # fig3 buckets
        assert any(m.startswith("fig10/") for m in goldens)    # miss rates

    def test_tiny_fig3_matches_goldens_exactly(self):
        """The simulators are deterministic: a fresh run IS the golden."""
        from repro.experiments import run_experiment

        result = run_experiment(ExperimentRequest("fig3", SimScale.TINY))
        metrics = flatten_metrics("fig3", result.data)
        report = check_drift(metrics, paper_goldens("tiny"),
                             "paper", "tiny")
        assert report.experiments == ["fig3"]
        assert report.ok
        assert all(e.error == 0.0 for e in report.entries
                   if e.status == "pass")


# ----------------------------------------------------------------------
# run_experiment registry hook + runner CLI end-to-end
# ----------------------------------------------------------------------
class TestRunExperimentRegistry:
    def test_invocation_recorded(self, tmp_path):
        from repro.common.config import override
        from repro.experiments import run_experiment

        reg_dir = tmp_path / "reg"
        with override(registry_dir=str(reg_dir)):
            result = run_experiment(ExperimentRequest("fig3", SimScale.TINY))
        assert "registry_record" in result.metadata
        records = RunRegistry(reg_dir).records("experiment")
        assert len(records) == 1
        assert records[0].experiments == ["fig3"]
        assert records[0].metrics["fig3/bfs/mean"] == pytest.approx(
            result.data["bfs"]["mean"]
        )

    def test_registry_off_by_default_outside_cli(self, monkeypatch):
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        assert config().registry_dir is None

    def test_registry_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY", "off")
        assert config().registry_dir is None
        monkeypatch.setenv("REPRO_REGISTRY", "/tmp/somewhere")
        assert config().registry_dir == "/tmp/somewhere"


class TestRunnerGate:
    """The SMALL-scale smoke: registry + drift gate end-to-end."""

    def test_small_run_through_registry_and_paper_gate(
        self, tmp_path, capsys
    ):
        from repro.experiments.runner import main

        reg = tmp_path / "reg"
        rc = main([
            "run", "fig3", "--scale", "small",
            "--registry", str(reg),
            "--baseline", "paper",
            "--save-baseline", str(tmp_path / "base.json"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "drift vs paper @ small [fig3]: PASS" in out
        kinds = sorted(r.kind for r in RunRegistry(reg).records())
        assert kinds == ["experiment", "run"]
        assert (tmp_path / "base.json").is_file()

    def test_perturbed_baseline_fails_and_names_metric(
        self, tmp_path, capsys
    ):
        from repro.experiments.runner import main

        base = tmp_path / "base.json"
        rc = main(["run", "fig3", "--scale", "small", "--registry", "off",
                   "--save-baseline", str(base)])
        assert rc == 0
        body = json.loads(base.read_text())
        body["metrics"]["fig3/bfs/mean"] *= 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        capsys.readouterr()
        rc = main(["run", "fig3", "--scale", "small", "--registry", "off",
                   "--baseline", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "fig3/bfs/mean" in out  # the offending metric is named

    def test_scale_mismatch_is_an_error(self, tmp_path, capsys):
        from repro.experiments.runner import main

        base = tmp_path / "base.json"
        assert main(["run", "fig3", "--scale", "tiny", "--registry", "off",
                     "--save-baseline", str(base)]) == 0
        assert main(["run", "fig3", "--scale", "small", "--registry", "off",
                     "--baseline", str(base)]) == 2

    def test_no_session_leaks(self):
        assert not telemetry.active()
