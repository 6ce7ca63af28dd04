"""The benchmark-session recorder behind benchmarks/conftest.py.

Outcome tracking, peak-RSS sampling, and the ``bench`` session that
``pytest benchmarks/ --update-bench`` appends to the perf history.
"""

from types import SimpleNamespace

from repro.perfwatch.bench import BenchRecorder
from repro.perfwatch.store import PerfHistory

TAGS = {"git": "abc", "host": "h", "config": "c0ffee00"}


def report(nodeid, when="call", outcome="passed", duration=1.0):
    return SimpleNamespace(
        nodeid=nodeid, when=when, duration=duration,
        passed=outcome == "passed",
        failed=outcome == "failed",
        skipped=outcome == "skipped",
    )


class TestBenchRecorder:
    def test_empty_until_observed(self):
        recorder = BenchRecorder(scale="small")
        assert recorder.empty
        recorder.observe(report("t::a"))
        assert not recorder.empty

    def test_passed_call_contributes_timing_and_rss(self):
        recorder = BenchRecorder(scale="small")
        recorder.observe(report("t::a", duration=1.23456))
        assert recorder.timings == {"t::a": 1.2346}
        assert recorder.outcomes == {"t::a": "passed"}
        assert recorder.rss_kb["t::a"] > 0

    def test_failed_and_skipped_counted_but_not_timed(self):
        recorder = BenchRecorder(scale="small")
        recorder.observe(report("t::bad", outcome="failed"))
        recorder.observe(report("t::skip", when="setup",
                                outcome="skipped"))
        assert recorder.timings == {}
        assert recorder.outcomes == {"t::bad": "failed",
                                     "t::skip": "skipped"}

    def test_outcome_precedence_is_worst_wins(self):
        recorder = BenchRecorder(scale="small")
        recorder.observe(report("t::a", when="setup"))
        recorder.observe(report("t::a"))
        recorder.observe(report("t::a", when="teardown",
                                outcome="failed"))
        assert recorder.outcomes == {"t::a": "failed"}
        # a timing was recorded at call time, but the verdict stands
        assert "t::a" in recorder.timings

    def test_rss_is_monotone_within_a_session(self):
        recorder = BenchRecorder(scale="small")
        recorder.observe(report("t::a"))
        ballast = bytearray(8 << 20)  # grow the high-water mark
        recorder.observe(report("t::b"))
        del ballast
        assert recorder.rss_kb["t::b"] >= recorder.rss_kb["t::a"]

    def test_session_metric_names_and_meta(self):
        recorder = BenchRecorder(scale="medium")
        recorder.observe(report("t::b", duration=2.0))
        recorder.observe(report("t::a", duration=1.0))
        recorder.observe(report("t::bad", outcome="failed"))
        recorder.observe(report("t::skip", when="setup",
                                outcome="skipped"))
        # Passed its call, failed its teardown: counted, not timed,
        # though its call time stays in the total.
        recorder.observe(report("t::td", duration=0.5))
        recorder.observe(report("t::td", when="teardown",
                                outcome="failed"))
        session = recorder.session(TAGS)
        assert session.source == "bench" and session.scale == "medium"
        assert (session.git, session.host, session.config) == (
            "abc", "h", "c0ffee00")
        assert session.ts and session.session == session.content_key()
        assert sorted(session.metrics) == [
            "bench/t::a", "bench/t::b", "bench/total_s",
            "benchrss/t::a", "benchrss/t::b", "benchrss/t::bad",
            "benchrss/t::td",
        ]
        assert session.metrics["bench/t::a"] == 1.0
        assert session.metrics["bench/total_s"] == 3.5
        assert session.meta == {"skipped": 1, "failed": 2}

    def test_session_defaults_to_environment_tags(self):
        recorder = BenchRecorder()
        recorder.observe(report("t::a"))
        session = recorder.session()
        assert session.host and len(session.config) == 8


class TestDualWrite:
    """The session ``--update-bench`` appends to the perf history."""

    def test_bench_session_lands_in_history(self, tmp_path):
        recorder = BenchRecorder(scale="small")
        recorder.observe(report("t::a", duration=1.5))
        history_path = tmp_path / "perf-history.jsonl"
        assert PerfHistory(history_path).append(recorder.session(TAGS))
        [session] = PerfHistory(history_path).sessions()
        assert session.source == "bench"
        assert session.metrics["bench/t::a"] == 1.5
        assert session.metrics["bench/total_s"] == 1.5
        assert session.metrics["benchrss/t::a"] > 0
        assert session.git == "abc" and session.scale == "small"

    def test_dual_write_is_idempotent(self, tmp_path):
        recorder = BenchRecorder(scale="small")
        recorder.observe(report("t::a"))
        session = recorder.session(TAGS)
        history = PerfHistory(tmp_path / "h.jsonl")
        assert history.append(session)
        assert not history.append(session)
        assert len(history.sessions()) == 1

    def test_failed_tests_ride_in_meta_not_metrics(self, tmp_path):
        recorder = BenchRecorder(scale="small")
        recorder.observe(report("t::ok", duration=1.0))
        recorder.observe(report("t::bad", outcome="failed"))
        recorder.observe(report("t::skip", when="setup",
                                outcome="skipped"))
        history_path = tmp_path / "h.jsonl"
        assert PerfHistory(history_path).append(recorder.session({}))
        [session] = PerfHistory(history_path).sessions()
        timed = [m for m in session.metrics
                 if m.startswith("bench/") and m != "bench/total_s"]
        assert timed == ["bench/t::ok"]
        assert session.meta == {"skipped": 1, "failed": 1}
