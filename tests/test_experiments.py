"""Integration tests: every experiment driver runs at TINY scale and
reproduces the paper's qualitative claims (the 'shape' checks)."""

import numpy as np
import pytest

from repro.api import ExperimentRequest
from repro.common.config import SimScale
from repro.experiments import ALL_EXPERIMENTS, ExperimentResult, get_driver

SCALE = SimScale.TINY


@pytest.fixture(scope="module")
def results():
    """Run every experiment once (workload runs are memoized)."""
    return {exp: get_driver(exp)(SCALE) for exp in ALL_EXPERIMENTS}


def test_all_experiments_render(results):
    for exp, res in results.items():
        assert isinstance(res, ExperimentResult)
        text = res.render()
        assert len(text) > 0, exp


class TestStaticTables:
    def test_table1_lists_twelve(self, results):
        assert len(results["table1"].data) == 12

    def test_table5_lists_thirteen(self, results):
        assert len(results["table5"].data) == 13

    def test_table4_counts(self, results):
        d = results["table4"].data
        assert d["rodinia_count"] == 12
        assert d["parsec_count"] == 13
        assert d["rodinia_has_versions"] == ["leukocyte", "lud", "nw", "srad"]


class TestFig1:
    def test_compute_workloads_scale_with_sms(self, results):
        # TINY grids are smaller than 28 SMs, so full scaling only shows
        # at SMALL (asserted in the benchmark harness); here: no
        # regression from extra SMs.
        d = results["fig1"].data
        for name in ("hotspot", "kmeans"):
            assert d[name]["ipc28"] >= d[name]["ipc8"] * 0.95, name

    def test_bandwidth_workloads_do_not_scale(self, results):
        d = results["fig1"].data
        assert d["bfs"]["ipc28"] < d["bfs"]["ipc8"] * 1.4

    def test_extremes_ordering(self, results):
        """Paper: SRAD/HotSpot/Leukocyte high; MUMmer/NW/BFS low."""
        d = results["fig1"].data
        top = min(d[n]["ipc28"] for n in ("hotspot", "leukocyte"))
        bottom = max(d[n]["ipc28"] for n in ("mummer", "nw", "bfs"))
        assert top > 3 * bottom


class TestFig2:
    def test_mixes_are_distributions(self, results):
        for name, mix in results["fig2"].data.items():
            assert sum(mix.values()) == pytest.approx(1.0), name

    def test_paper_signatures(self, results):
        d = results["fig2"].data
        assert d["bfs"]["global"] == pytest.approx(1.0)
        assert d["kmeans"]["tex"] > 0.3
        assert d["heartwall"]["const"] > 0.2
        assert d["hotspot"]["shared"] > 0.5
        assert d["nw"]["shared"] > 0.4


class TestFig3:
    def test_buckets_are_distributions(self, results):
        for name, b in results["fig3"].data.items():
            total = b["1-8"] + b["9-16"] + b["17-24"] + b["25-32"]
            assert total == pytest.approx(1.0), name

    def test_bfs_low_occupancy(self, results):
        assert results["fig3"].data["bfs"]["1-8"] > 0.3

    def test_mummer_heavily_divergent(self, results):
        b = results["fig3"].data["mummer"]
        assert b["1-8"] + b["9-16"] > 0.4

    def test_streaming_kernels_full(self, results):
        assert results["fig3"].data["cfd"]["25-32"] == pytest.approx(1.0)


class TestFig4:
    def test_speedups_at_least_one(self, results):
        for name, s in results["fig4"].data.items():
            assert s[8] >= s[6] - 1e-9 >= s[4] - 2e-9, name
            assert s[4] == pytest.approx(1.0)

    def test_bandwidth_bound_benefit_most(self, results):
        d = results["fig4"].data
        sensitive = np.mean([d[n][8] for n in ("bfs", "mummer", "cfd")])
        insensitive = np.mean([d[n][8] for n in ("leukocyte", "lud")])
        assert sensitive >= insensitive


class TestTable3:
    def test_optimized_versions_faster(self, results):
        d = results["table3"].data
        assert d[("srad", 2)]["ipc"] > d[("srad", 1)]["ipc"]
        assert d[("leukocyte", 2)]["ipc"] > d[("leukocyte", 1)]["ipc"]

    def test_srad_shared_fraction_rises(self, results):
        d = results["table3"].data
        assert d[("srad", 2)]["shared"] > d[("srad", 1)]["shared"]

    def test_leukocyte_global_vanishes(self, results):
        d = results["table3"].data
        assert d[("leukocyte", 2)]["global"] < d[("leukocyte", 1)]["global"]


class TestFig5:
    def test_fermi_outperforms_gtx280(self, results):
        for name, r in results["fig5"].data.items():
            assert r["shared_bias"] < 1.0, name

    def test_global_heavy_prefer_l1_bias(self, results):
        d = results["fig5"].data
        assert d["mummer"]["l1_speedup"] > 1.0
        assert d["bfs"]["l1_speedup"] >= 1.0


class TestPB:
    def test_simd_and_channels_dominate(self, results):
        overall = results["pb"].data["overall"]
        top2 = sorted(overall, key=overall.get, reverse=True)[:3]
        assert "simd_width" in top2
        assert "n_mem_channels" in top2 or "bus_width_bytes" in top2

    def test_every_workload_ranked(self, results):
        per = results["pb"].data["per_workload"]
        assert len(per) == 12
        for name, ranked in per.items():
            shares = [s for _, _, s in ranked]
            assert sum(shares) == pytest.approx(1.0)


class TestSuiteComparison:
    def test_fig6_covers_both_suites_once(self, results):
        names = results["fig6"].data["names"]
        assert len(names) == 24  # 12 + 13 - shared streamcluster
        assert "streamcluster_p" not in names

    def test_fig6_clusters_mix_suites(self, results):
        """The paper: most clusters contain both Rodinia and Parsec apps."""
        from repro.workloads import base as wl
        clusters = results["fig6"].data["clusters"]
        suites_per_cluster = {}
        for name, c in clusters.items():
            suites_per_cluster.setdefault(c, set()).add(wl.get(name).meta.suite)
        mixed = sum(1 for s in suites_per_cluster.values() if len(s) == 2)
        assert mixed >= 1

    def test_fig6_dendrogram_lists_everyone(self, results):
        text = results["fig6"].data["dendrogram"]
        assert "streamcluster(R, P)" in text
        assert "mummer(R)" in text

    @pytest.mark.parametrize("fig", ["fig7", "fig8", "fig9"])
    def test_pca_coords_finite(self, results, fig):
        coords = results[fig].data["coords"]
        assert np.isfinite(coords).all()
        assert coords.shape[1] == 2

    def test_fig8_mummer_is_outlier(self, results):
        """Paper: 'MUMmer is a significant outlier' in the working-set plot."""
        assert "mummer" in results["fig8"].data["outliers"]

    def test_fig10_mummer_among_highest(self, results):
        d = results["fig10"].data
        rank = sorted(d, key=d.get, reverse=True)
        assert rank.index("mummer") < 6

    def test_fig11_mummer_biggest_rodinia_code(self, results):
        """Paper: Parsec code is larger except MUMmer (Rodinia's biggest).

        With the bytecode proxy, Heartwall's multi-stage pipeline
        competes; MUMmer must be in Rodinia's top two.
        """
        from repro.workloads import base as wl
        d = results["fig11"].data
        rodinia = {n: v for n, v in d.items()
                   if wl.get(n).meta.suite == "rodinia"}
        top2 = sorted(rodinia, key=rodinia.get, reverse=True)[:2]
        assert "mummer" in top2

    def test_fig12_footprints_positive(self, results):
        assert all(v > 0 for v in results["fig12"].data.values())


class TestTypedAPI:
    """run_experiment: the one entry point returning ExperimentResult."""

    def test_run_experiment_fills_provenance(self):
        from repro.experiments import run_experiment
        res = run_experiment(ExperimentRequest("table1", SCALE))
        assert isinstance(res, ExperimentResult)
        assert res.id == res.experiment == "table1"
        assert res.title.startswith("Table I")
        assert res.metadata["scale"] == "tiny"
        assert res.metadata["duration_s"] >= 0.0
        assert res.metadata["n_tables"] == len(res.tables)
        assert res.span_id is None  # telemetry off

    def test_rows_are_typed_dicts(self):
        from repro.experiments import run_experiment
        res = run_experiment(ExperimentRequest("table1", SCALE))
        assert len(res.rows) == 12
        assert all(row["_table"] == res.title for row in res.rows)
        assert {"Application", "Dwarf", "Domain"} <= set(res.rows[0])

    def test_run_experiment_attaches_span(self):
        from repro import telemetry
        from repro.experiments import run_experiment
        sink = telemetry.MemorySink()
        assert telemetry.start(sink)
        try:
            res = run_experiment(ExperimentRequest("table1", SCALE))
        finally:
            telemetry.stop()
        opens = [e for e in sink.events if e["ev"] == "span_open"]
        assert res.span_id == opens[0]["id"]
        assert opens[0]["name"] == "experiment"
        assert opens[0]["attrs"]["experiment"] == "table1"

    def test_report_is_a_driver(self):
        from repro.experiments import run_experiment
        res = run_experiment(ExperimentRequest("report", SCALE))
        assert res.id == "report"
        assert res.tables == []
        assert "# Workload characterization report" in res.render()
        assert res.data["markdown"] == res.text

    def test_fig6_render_includes_dendrogram(self, results):
        res = results["fig6"]
        assert res.text == res.data["dendrogram"]
        assert res.data["dendrogram"] in res.render()


class TestRunnerCLI:
    def test_cli_runs_one_experiment(self, capsys):
        from repro.experiments.runner import main
        assert main(["run", "table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_cli_rejects_unknown(self):
        from repro.experiments.runner import main
        with pytest.raises(KeyError):
            main(["run", "fig99", "--scale", "tiny"])

    def test_jobs_with_no_cache_is_parser_error(self, capsys):
        """--jobs would warm a cache --no-cache just disabled: refuse."""
        from repro.core import artifacts
        from repro.experiments.runner import main
        before = artifacts.get_artifact_cache()
        with pytest.raises(SystemExit):
            main(["run", "table1", "--scale", "tiny", "--jobs", "2",
                  "--no-cache"])
        err = capsys.readouterr().err
        assert "--no-cache" in err
        # The rejected invocation must not have touched global state.
        assert artifacts.get_artifact_cache() is before

    def test_no_cache_alone_disables_cache(self, capsys):
        from repro.core import artifacts
        from repro.experiments.runner import main
        before = artifacts.get_artifact_cache()
        try:
            assert main(["run", "table1", "--scale", "tiny",
                         "--no-cache"]) == 0
            assert artifacts.get_artifact_cache() is None
            assert "Table I" in capsys.readouterr().out
        finally:
            artifacts.set_artifact_cache(before)

    def test_trace_and_metrics_flags(self, capsys, tmp_path):
        from repro import telemetry
        from repro.experiments.runner import main
        path = str(tmp_path / "run.jsonl")
        assert main(
            ["run", "table1", "--scale", "tiny", "--trace", path, "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "Telemetry: spans" in out
        assert not telemetry.active()  # session closed on exit
        events = telemetry.parse_trace(path)
        names = [e["name"] for e in events if e["ev"] == "span_open"]
        assert "run" in names and "experiment" in names

    def test_repro_trace_env_fallback(self, monkeypatch, tmp_path, capsys):
        from repro import telemetry
        from repro.experiments.runner import main
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_TRACE", path)
        assert main(["run", "table1", "--scale", "tiny"]) == 0
        events = telemetry.parse_trace(path)
        assert any(e["ev"] == "span_open" and e["name"] == "run"
                   for e in events)
