"""The performance observatory: store, analysis, span diff, CLI.

Covers the acceptance contract end to end: a synthetic 10x regression
injected into a seeded history trips ``runner perf gate`` (nonzero
exit) while a clean replay of the same history passes, and span-diff
tables are bit-deterministic given identical inputs.
"""

import json

import pytest

from repro.perfwatch import (
    GateParams,
    PerfHistory,
    SessionRecord,
    detect_regressions,
    diff_spans,
    diff_traces,
    scan_changepoints,
    slower_spans,
    span_diff_table,
)
from repro.perfwatch.analysis import robust_sigma
from repro.perfwatch.store import SCHEMA_VERSION, environment_tags


def make_session(value, ts, metric="bench/t", source="bench",
                 extra=None, scale="small"):
    metrics = {metric: value}
    if extra:
        metrics.update(extra)
    return SessionRecord(source=source, metrics=metrics, ts=ts,
                         scale=scale).stamp()


def seed_history(path, values, metric="bench/t", **kwargs):
    history = PerfHistory(path)
    for i, value in enumerate(values):
        history.append(
            make_session(value, f"2026-07-{i + 1:02d}T00:00:00+0000",
                         metric=metric, **kwargs)
        )
    return history


CLEAN = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0]


class TestStore:
    def test_append_read_roundtrip(self, tmp_path):
        history = PerfHistory(tmp_path / "h.jsonl")
        record = SessionRecord(
            source="bench", metrics={"bench/a": 1.5, "bench/b": 2.0},
            ts="2026-08-01T00:00:00+0000", scale="small",
            git="abc123", host="ci", config="deadbeef",
            meta={"note": "seed"},
        ).stamp()
        assert history.append(record)
        [loaded] = history.sessions()
        assert loaded.metrics == {"bench/a": 1.5, "bench/b": 2.0}
        assert loaded.session == record.session
        assert loaded.git == "abc123"
        assert loaded.meta == {"note": "seed"}

    def test_append_is_idempotent_per_session(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", [1.0, 2.0])
        again = make_session(1.0, "2026-07-01T00:00:00+0000")
        assert not history.append(again)
        assert len(history.sessions()) == 2

    def test_content_key_ignores_environment_tags(self):
        a = make_session(1.0, "2026-07-01T00:00:00+0000")
        b = SessionRecord(source="bench", metrics={"bench/t": 1.0},
                          ts="2026-07-01T00:00:00+0000", scale="small",
                          git="other", host="elsewhere").stamp()
        assert a.session == b.session

    def test_unknown_schema_version_is_an_error(self, tmp_path):
        path = tmp_path / "h.jsonl"
        seed_history(path, [1.0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"v": SCHEMA_VERSION + 1,
                                 "session": "x", "metrics": {}}) + "\n")
            fh.write(json.dumps({"v": SCHEMA_VERSION, "session": "y",
                                 "source": "bench", "ts": "t",
                                 "metrics": {}}) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            PerfHistory(path).sessions()

    def test_torn_final_line_is_forgiven(self, tmp_path):
        path = tmp_path / "h.jsonl"
        seed_history(path, [1.0, 2.0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "session": "torn')  # writer died here
        assert len(PerfHistory(path).sessions()) == 2

    def test_malformed_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "h.jsonl"
        seed_history(path, [1.0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        seed_history(path, [2.0])  # valid line lands after the bad one
        with pytest.raises(ValueError, match="malformed"):
            PerfHistory(path).sessions()

    def test_missing_file_reads_empty(self, tmp_path):
        assert PerfHistory(tmp_path / "none.jsonl").sessions() == []

    def test_no_lock_litter_after_append(self, tmp_path):
        path = tmp_path / "h.jsonl"
        seed_history(path, [1.0])
        assert not (tmp_path / "h.jsonl.lock").exists()

    def test_series_prefix_filter(self, tmp_path):
        history = PerfHistory(tmp_path / "h.jsonl")
        history.append(make_session(
            1.0, "2026-07-01T00:00:00+0000",
            extra={"service/warm_p50_ms": 3.0},
        ))
        series = history.series("service/")
        assert list(series) == ["service/warm_p50_ms"]
        assert [v for _, v in series["service/warm_p50_ms"]] == [3.0]

    def test_environment_tags_shape(self):
        tags = environment_tags()
        assert set(tags) == {"git", "host", "config"}
        assert tags["host"]
        assert len(tags["config"]) == 8

    def test_config_fingerprint_tracks_config(self):
        from repro.common.config import override
        from repro.perfwatch.store import config_fingerprint

        base = config_fingerprint()
        with override(cache=False):
            assert config_fingerprint() != base
        assert config_fingerprint() == base


class TestRegressionDetection:
    def test_clean_history_passes(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", CLEAN + [1.01])
        report = detect_regressions(history)
        assert report.ok and report.exit_code == 0
        assert report.checked == 1

    def test_10x_injection_fails(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", CLEAN + [10.0])
        report = detect_regressions(history)
        assert not report.ok and report.exit_code == 1
        [bad] = report.regressions
        assert bad.metric == "bench/t" and bad.status == "fail"
        assert bad.actual == 10.0

    def test_improvement_passes(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", CLEAN + [0.1])
        assert detect_regressions(history).ok

    def test_missing_tracked_metric_fails_loudly(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", CLEAN)
        history.append(SessionRecord(
            source="bench", metrics={"bench/other": 1.0},
            ts="2026-08-01T00:00:00+0000", scale="small",
        ).stamp())
        report = detect_regressions(history)
        assert not report.ok
        [missing] = [e for e in report.drift.entries
                     if e.status == "missing"]
        assert missing.metric == "bench/t"

    def test_metric_absent_from_recent_sessions_not_required(
        self, tmp_path
    ):
        # bench/t has baseline depth but vanished from the recent
        # same-source sessions: retired, not regressed.
        history = seed_history(tmp_path / "h.jsonl", CLEAN[:4])
        for i in range(4):
            history.append(SessionRecord(
                source="bench", metrics={"bench/new": 1.0 + i / 100},
                ts=f"2026-08-{i + 1:02d}T00:00:00+0000", scale="small",
            ).stamp())
        assert detect_regressions(history).ok

    def test_other_sources_never_required_of_candidate(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", CLEAN,
                               metric="service/warm_p50_ms",
                               source="service")
        history.append(make_session(1.0, "2026-08-01T00:00:00+0000"))
        report = detect_regressions(history)
        assert report.ok  # a bench session owes no service metrics

    def test_thin_baseline_is_unchecked(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", [1.0, 1.0, 10.0])
        report = detect_regressions(history)
        assert report.ok and report.checked == 0
        assert report.unchecked == 1

    def test_zero_variance_baseline_uses_floors(self, tmp_path):
        flat = [1.0] * 8
        ok = detect_regressions(
            seed_history(tmp_path / "a.jsonl", flat + [1.1])
        )
        assert ok.ok  # 10% above median, within 4 * (5% rel floor)
        bad = detect_regressions(
            seed_history(tmp_path / "b.jsonl", flat + [1.5])
        )
        assert not bad.ok

    def test_metric_prefix_filter_scopes_the_gate(self, tmp_path):
        history = PerfHistory(tmp_path / "h.jsonl")
        for i, v in enumerate(CLEAN + [10.0]):
            history.append(make_session(
                v, f"2026-07-{i + 1:02d}T00:00:00+0000",
                extra={"benchrss/t": 1000.0},
            ))
        assert not detect_regressions(history).ok
        scoped = detect_regressions(history, metric_prefix="benchrss/")
        assert scoped.ok

    def test_single_session_history_trivially_passes(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", [1.0])
        report = detect_regressions(history)
        assert report.ok and report.sessions == 1

    def test_new_metric_is_informational(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", CLEAN)
        history.append(make_session(
            1.0, "2026-08-01T00:00:00+0000",
            extra={"bench/fresh": 5.0},
        ))
        report = detect_regressions(history)
        assert report.ok and report.drift.n_new == 1

    def test_robust_sigma_floors(self):
        params = GateParams()
        assert robust_sigma([1.0] * 5, params) == pytest.approx(0.05)
        assert robust_sigma([0.0] * 5, params) == pytest.approx(1e-4)


class TestChangepoints:
    def test_level_shift_is_found_at_the_split(self, tmp_path):
        values = [1.0, 1.02, 0.98, 1.01] + [3.0, 3.02, 2.98, 3.01]
        history = seed_history(tmp_path / "h.jsonl", values)
        [cp] = scan_changepoints(history.series(), GateParams())
        assert cp.metric == "bench/t"
        assert 3 <= cp.index <= 4  # the shift happens at sample 4
        assert cp.before == pytest.approx(1.0, abs=0.05)
        assert cp.after == pytest.approx(3.0, abs=0.05)
        assert cp.shift_sigma > GateParams().k_sigma

    def test_flat_series_has_no_changepoints(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", [1.0] * 10)
        assert scan_changepoints(history.series(), GateParams()) == []

    def test_short_series_is_skipped(self, tmp_path):
        history = seed_history(tmp_path / "h.jsonl", [1.0, 9.0, 1.0])
        assert scan_changepoints(history.series(), GateParams()) == []


def bench_session(ts, a, b):
    """A ``bench`` session shaped like ``BenchRecorder.session()``."""
    metrics = {
        "bench/benchmarks/test_bench_x.py::test_a": a,
        "bench/benchmarks/test_bench_x.py::test_b": b,
        "bench/total_s": round(a + b, 4),
    }
    return SessionRecord(source="bench", metrics=metrics, ts=ts,
                         scale="small").stamp()


def bench_history(path, n=6):
    """A history of ``n`` clean bench sessions (1% jitter)."""
    sessions = []
    for i in range(n):
        jitter = (i % 3 - 1) / 100.0
        sessions.append(bench_session(
            f"2026-07-{i + 1:02d}T00:00:00+0000",
            round(1.0 + jitter, 4), round(2.0 - jitter, 4),
        ))
    PerfHistory(path).append_many(sessions)
    return str(path)


class TestGateCLI:
    """The acceptance contract, through the real runner CLI."""

    def run(self, *argv):
        from repro.experiments.runner import main

        return main(list(argv))

    def test_clean_replay_passes_and_injected_10x_trips(
        self, tmp_path, capsys
    ):
        history = bench_history(tmp_path / "perf-history.jsonl")
        assert self.run("perf", "gate", "--history", history,
                        "--k-sigma", "4") == 0
        out = capsys.readouterr()
        assert "PASS" in out.out

        # Tamper: one more session, every timing 10x the median.
        assert PerfHistory(history).append(
            bench_session("2026-08-01T00:00:00+0000", 10.0, 20.0)
        )
        assert self.run("perf", "gate", "--history", history,
                        "--k-sigma", "4") == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out and "fail" in out.out

    def test_record_is_idempotent(self, tmp_path, capsys):
        from repro.fidelity import RunRecord, RunRegistry

        registry = tmp_path / "runs"
        RunRegistry(registry).save(RunRecord(
            kind="run", scale="small", experiments=["fig1"],
            metrics={"fig1/x": 1.0}, durations={"fig1": 2.5},
        ))
        history = str(tmp_path / "h.jsonl")
        assert self.run("perf", "record", "--registry", str(registry),
                        "--history", history) == 0
        before = (tmp_path / "h.jsonl").read_bytes()
        assert before
        self.run("perf", "record", "--registry", str(registry),
                 "--history", history)
        assert (tmp_path / "h.jsonl").read_bytes() == before

    def test_record_demands_a_source(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run("perf", "record", "--history",
                     str(tmp_path / "h.jsonl"))

    def test_gate_on_empty_history_passes(self, tmp_path, capsys):
        assert self.run("perf", "gate", "--history",
                        str(tmp_path / "none.jsonl")) == 0

    def test_unknown_subcommand_errors(self, capsys):
        assert self.run("perf", "bogus") == 2

    def test_trend_renders_sparklines(self, tmp_path, capsys):
        history = bench_history(tmp_path / "h.jsonl")
        assert self.run("perf", "trend", "--history", history) == 0
        out = capsys.readouterr().out
        assert "Perf trend: bench/*" in out
        assert any(ch in out for ch in "▁▂▃▄▅▆▇█")

    def test_report_markdown_is_deterministic(self, tmp_path, capsys):
        history = bench_history(tmp_path / "h.jsonl")
        out_a, out_b = tmp_path / "a.md", tmp_path / "b.md"
        assert self.run("perf", "report", "--history", history,
                        "--out", str(out_a)) == 0
        assert self.run("perf", "report", "--history", history,
                        "--out", str(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        text = out_a.read_text()
        assert "# Performance report" in text
        assert "## Regression gate" in text and "## Trend" in text

    def test_registry_and_trace_ingestion(self, tmp_path, capsys):
        from repro.fidelity import RunRecord, RunRegistry
        from repro.telemetry import JsonlSink

        registry = tmp_path / "runs"
        RunRegistry(registry).save(RunRecord(
            kind="run", scale="small", experiments=["fig1"],
            metrics={"fig1/x": 1.0}, durations={"fig1": 2.5},
            span_stats={"experiment": [1, 2.5], "inner": [9, 0.1]},
        ).stamp())
        trace = tmp_path / "t.jsonl"
        with JsonlSink(str(trace)) as sink:
            sink.emit({"v": 1, "ev": "span_open", "id": "s1",
                       "parent": None, "name": "run", "ts": 0.0})
            sink.emit({"v": 1, "ev": "span_close", "id": "s1",
                       "name": "run", "dur_s": 1.0, "ok": True})
        history = str(tmp_path / "h.jsonl")
        assert self.run("perf", "record", "--registry", str(registry),
                        "--trace", str(trace),
                        "--history", history) == 0
        series = PerfHistory(history).series()
        assert series["run/fig1/duration_s"][0][1] == 2.5
        assert "span/experiment/total_s" in series
        assert "span/inner/total_s" not in series  # not a tracked span
        assert series["span/run/self_s"][0][1] == 1.0

    def test_watch_once_flag_exists(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("watch", "--help")
        assert exc.value.code == 0
        assert "--once" in capsys.readouterr().out


def write_trace(path, spans):
    """A minimal well-formed telemetry JSONL trace."""
    lines = [{"v": 1, "ev": "meta", "clock": "perf_counter"}]
    for sid, (name, parent, dur) in enumerate(spans, 1):
        lines.append({"v": 1, "ev": "span_open", "id": f"s{sid}",
                      "parent": parent, "name": name, "ts": 0.0})
    for sid, (name, parent, dur) in reversed(
        list(enumerate(spans, 1))
    ):
        lines.append({"v": 1, "ev": "span_close", "id": f"s{sid}",
                      "name": name, "dur_s": dur, "ok": True})
    path.write_text(
        "".join(json.dumps(l, separators=(",", ":")) + "\n"
                for l in lines)
    )
    return str(path)


class TestSpanDiff:
    def test_ranking_and_alignment(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl",
                        [("run", None, 1.0), ("work", "s1", 0.6)])
        b = write_trace(tmp_path / "b.jsonl",
                        [("run", None, 3.0), ("work", "s1", 2.4)])
        deltas = diff_traces(a, b)
        assert [d.name for d in deltas] == ["work", "run"]
        work = deltas[0]
        assert work.self_a == pytest.approx(0.6)
        assert work.self_b == pytest.approx(2.4)
        assert work.d_self == pytest.approx(1.8)
        slower = slower_spans(deltas)
        assert [d.name for d in slower] == ["work", "run"]

    def test_span_only_on_one_side(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", [("run", None, 1.0)])
        b = write_trace(tmp_path / "b.jsonl",
                        [("run", None, 1.0), ("fresh", "s1", 0.5)])
        deltas = {d.name: d for d in diff_traces(a, b)}
        assert deltas["fresh"].count_a == 0
        assert deltas["fresh"].ratio == float("inf")
        assert "inf" in deltas["fresh"].row()

    def test_tables_are_bit_deterministic(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl",
                        [("run", None, 2.0), ("work", "s1", 1.5),
                         ("load", "s1", 0.25)])
        b = write_trace(tmp_path / "b.jsonl",
                        [("run", None, 2.5), ("work", "s1", 2.2),
                         ("load", "s1", 0.1)])
        renders = {
            span_diff_table(diff_traces(a, b), "a", "b").render()
            for _ in range(3)
        }
        assert len(renders) == 1

    def test_identical_traces_diff_to_zero(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl",
                        [("run", None, 1.0), ("work", "s1", 0.5)])
        deltas = diff_traces(a, a)
        assert all(d.d_self == 0.0 and d.ratio == 1.0 for d in deltas)
        assert slower_spans(deltas) == []

    def test_diff_spans_accepts_event_lists(self):
        events = [
            {"ev": "span_open", "id": "s1", "parent": None,
             "name": "run"},
            {"ev": "span_close", "id": "s1", "name": "run",
             "dur_s": 1.0},
        ]
        slower_events = [dict(e) for e in events]
        slower_events[1] = dict(events[1], dur_s=2.0)
        [delta] = diff_spans(events, slower_events)
        assert delta.d_self == pytest.approx(1.0)

    def test_diff_cli(self, tmp_path, capsys):
        from repro.experiments.runner import main

        a = write_trace(tmp_path / "a.jsonl", [("run", None, 1.0)])
        b = write_trace(tmp_path / "b.jsonl", [("run", None, 4.0)])
        assert main(["perf", "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "Span diff" in out and "slower: run" in out
