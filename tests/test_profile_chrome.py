"""Span profiling, Chrome-trace export, and sink hardening.

Covers the observability layer of ISSUE 4: live self-time attribution
(``start(profile=True)``) agrees with the offline rollup rebuilt from
the emitted trace; :func:`trace_to_chrome` produces structurally valid
Trace Event JSON; and :class:`JsonlSink` survives hostile lifecycles
(missing parent dirs, double close, interpreter-exit flush).
"""

import json
import time

import pytest

from repro import telemetry
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    aggregate_spans,
    hot_spans_table,
    profile_trace,
    trace_to_chrome,
)
from repro.telemetry.chrome import chrome_events
from repro.telemetry.profile import live_aggregate


@pytest.fixture(autouse=True)
def _clean_session():
    telemetry._STATE = None
    yield
    telemetry._STATE = None


def _nested_workload():
    """outer wraps two inner spans; sleeps make self-time measurable."""
    with telemetry.span("outer"):
        time.sleep(0.03)            # outer self time (> combined inner)
        with telemetry.span("inner"):
            time.sleep(0.01)
        with telemetry.span("inner"):
            time.sleep(0.01)
    telemetry.count("work.done", 2)


# ----------------------------------------------------------------------
# Live profiling
# ----------------------------------------------------------------------
class TestLiveProfile:
    def test_self_time_excludes_children(self):
        telemetry.start(profile=True)
        _nested_workload()
        snap = telemetry.stop()
        outer_n, outer_total = snap["span_stats"]["outer"]
        _, outer_self = snap["self_stats"]["outer"]
        _, inner_total = snap["span_stats"]["inner"]
        assert outer_n == 1
        # Self = total minus the time inside the two inner spans.
        assert outer_self == pytest.approx(outer_total - inner_total,
                                           abs=5e-3)
        assert 0.0 < outer_self < outer_total
        # Leaves have self == total.
        assert snap["self_stats"]["inner"][1] == pytest.approx(
            inner_total, abs=5e-3
        )

    def test_peak_memory_gauge(self):
        import resource
        import tracemalloc

        telemetry.start(profile=True)
        assert not tracemalloc.is_tracing()  # no allocation tracer
        snap = telemetry.stop()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert 0 < snap["gauges"]["profile.mem.peak_rss_kb"] <= peak

    def test_unprofiled_session_has_no_self_stats(self):
        telemetry.start()
        _nested_workload()
        snap = telemetry.stop()
        assert snap["self_stats"] == {}
        assert "profile.mem.peak_rss_kb" not in snap["gauges"]

    def test_summary_gains_hot_span_table_only_when_profiling(self):
        telemetry.start(profile=True)
        _nested_workload()
        titles = [t.title for t in telemetry.summary()]
        assert any("hot spans" in t for t in titles)
        telemetry.stop()


# ----------------------------------------------------------------------
# Offline rollup agrees with the live one
# ----------------------------------------------------------------------
class TestOfflineAggregate:
    def test_offline_matches_live(self):
        sink = MemorySink()
        telemetry.start(sink=sink, profile=True)
        _nested_workload()
        snap = telemetry.stop()
        offline = {a.name: a for a in aggregate_spans(sink.events)}
        live = {a.name: a
                for a in live_aggregate(snap["span_stats"],
                                        snap["self_stats"])}
        assert set(offline) == set(live) == {"outer", "inner"}
        for name in offline:
            assert offline[name].count == live[name].count
            assert offline[name].total_s == pytest.approx(
                live[name].total_s, abs=5e-3
            )
            assert offline[name].self_s == pytest.approx(
                live[name].self_s, abs=5e-3
            )

    def test_unclosed_spans_skipped_children_still_counted(self):
        events = [
            {"ev": "span_open", "id": "s1", "parent": None, "name": "crash",
             "ts": 0.0},
            {"ev": "span_open", "id": "s2", "parent": "s1", "name": "child",
             "ts": 0.1},
            {"ev": "span_close", "id": "s2", "name": "child", "dur_s": 0.5},
            # s1 never closes (crashed session)
        ]
        aggs = {a.name: a for a in aggregate_spans(events)}
        assert "crash" not in aggs
        assert aggs["child"].total_s == pytest.approx(0.5)
        assert aggs["child"].self_s == pytest.approx(0.5)

    def test_hot_spans_table_shape(self):
        sink = MemorySink()
        telemetry.start(sink=sink)
        _nested_workload()
        telemetry.stop()
        table = hot_spans_table(aggregate_spans(sink.events), n=1)
        assert "top 1" in table.title
        assert len(table.rows) == 1
        assert table.rows[0][0] == "outer"  # hottest by self time

    def test_profile_trace_convenience(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.start(trace_path=str(path))
        _nested_workload()
        telemetry.stop()
        table = profile_trace(str(path))
        assert {row[0] for row in table.rows} == {"outer", "inner"}


# ----------------------------------------------------------------------
# Chrome Trace Event export
# ----------------------------------------------------------------------
class TestChromeExport:
    def _trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        telemetry.start(trace_path=str(path),
                        meta={"scale": "tiny"})
        _nested_workload()
        telemetry.gauge("mem", 12.5)
        telemetry.stop()
        return str(path)

    def test_document_structure(self, tmp_path):
        out = trace_to_chrome(self._trace(tmp_path))
        assert out.endswith("run.chrome.json")
        doc = json.loads(open(out).read())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["schema_version"] == telemetry.SCHEMA_VERSION
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata first
        complete = [e for e in events if e["ph"] == "X"]
        assert sorted(e["name"] for e in complete) == [
            "inner", "inner", "outer"
        ]
        for e in complete:
            assert e["dur"] > 0 and e["ts"] >= 0  # microseconds
            assert "span_id" in e["args"]
        counters = {e["name"]: e["args"]["value"]
                    for e in events if e["ph"] == "C"}
        assert counters["work.done"] == 2
        assert counters["mem"] == 12.5

    def test_nesting_preserved_in_timestamps(self, tmp_path):
        doc = json.loads(open(trace_to_chrome(self._trace(tmp_path))).read())
        spans = {(e["name"], e["ts"]): e for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        outer = next(e for (n, _), e in spans.items() if n == "outer")
        for (name, ts), e in spans.items():
            if name == "inner":  # children nest inside the parent window
                assert outer["ts"] <= ts
                assert ts + e["dur"] <= outer["ts"] + outer["dur"] + 1.0

    def test_unclosed_span_becomes_begin_event(self):
        events = [
            {"ev": "span_open", "id": "s1", "parent": None,
             "name": "hung", "ts": 0.25},
        ]
        out = chrome_events(events)
        begin = [e for e in out if e["ph"] == "B"]
        assert len(begin) == 1
        assert begin[0]["name"] == "hung"
        assert begin[0]["ts"] == pytest.approx(0.25e6)

    def test_failed_span_flagged(self):
        events = [
            {"ev": "span_open", "id": "s1", "parent": None,
             "name": "boom", "ts": 0.0},
            {"ev": "span_close", "id": "s1", "name": "boom",
             "dur_s": 0.1, "ok": False},
        ]
        (x,) = [e for e in chrome_events(events) if e["ph"] == "X"]
        assert x["args"]["error"] is True

    def test_exports_truncated_trace(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        telemetry.start(trace_path=str(path))
        with telemetry.span("ok"):
            pass
        telemetry.stop()
        with open(path, "a") as fh:
            fh.write('{"v":1,"ev":"span_open","id":"s9","na')  # killed writer
        doc = json.loads(open(trace_to_chrome(str(path))).read())
        assert any(e["ph"] == "X" and e["name"] == "ok"
                   for e in doc["traceEvents"])


# ----------------------------------------------------------------------
# Counter evolution on the timeline (ISSUE 5 satellite)
# ----------------------------------------------------------------------
class TestCounterEvolution:
    def test_samples_become_timestamped_c_events(self, tmp_path):
        path = tmp_path / "evo.jsonl"
        telemetry.start(trace_path=str(path))
        with telemetry.span("run"):
            telemetry.count("items", 1)
            telemetry.sample_counters()
            time.sleep(0.01)
            telemetry.count("items", 2)
            telemetry.sample_counters()
        telemetry.stop()
        events = telemetry.parse_trace(str(path))
        samples = [e for e in events
                   if e["ev"] == "counter" and e["name"] == "items"]
        # Two mid-session samples (cumulative) plus the stop total.
        assert [s["value"] for s in samples] == [1, 3, 3]
        assert samples[0]["ts"] < samples[1]["ts"] <= samples[2]["ts"]
        cs = [e for e in chrome_events(events)
              if e["ph"] == "C" and e["name"] == "items"]
        assert [c["args"]["value"] for c in cs] == [1, 3, 3]
        assert cs[0]["ts"] < cs[1]["ts"]  # a stepped track, not one dot
        # Last-sample-wins semantics keep diff_counters unaffected.
        assert telemetry.diff_counters(events, events) == []

    def test_prefix_filter_and_disabled_noop(self):
        telemetry.sample_counters()  # disabled: must not raise
        sink = MemorySink()
        telemetry.start(sink=sink)
        telemetry.count("a.x", 1)
        telemetry.count("b.y", 1)
        telemetry.sample_counters(prefix="a.")
        telemetry.stop()
        names = [e["name"] for e in sink.events if e["ev"] == "counter"]
        assert names == ["a.x", "a.x", "b.y"]  # sample, then stop totals

    def test_legacy_counter_events_still_land_at_end(self):
        events = [
            {"ev": "span_open", "id": "s1", "parent": None,
             "name": "w", "ts": 0.0},
            {"ev": "span_close", "id": "s1", "name": "w", "dur_s": 2.0},
            {"ev": "counter", "name": "old", "value": 7},  # no ts
        ]
        (c,) = [e for e in chrome_events(events) if e["ph"] == "C"]
        assert c["ts"] == pytest.approx(2.0e6)


# ----------------------------------------------------------------------
# Simulated-cycles clock domain (GPU profiles)
# ----------------------------------------------------------------------
class TestGpuTimeline:
    @pytest.fixture(scope="class")
    def profile(self):
        from repro.common.config import SimScale
        from repro.gpusim import GPU, GPUConfig, TimingModel
        from repro.workloads import base as wl

        wl.load_all()
        gpu = GPU(app_name="backprop")
        wl.get("backprop").gpu_fn(gpu, SimScale.TINY)
        return TimingModel(GPUConfig.sim_default()).profile(gpu.trace)

    def test_launch_row_tiles_the_timeline(self, profile):
        from repro.telemetry.chrome import gpu_timeline_events

        evs = gpu_timeline_events(profile, pid=7)
        assert all(e["pid"] == 7 for e in evs)
        launches = [e for e in evs if e["ph"] == "X" and e["tid"] == 0]
        assert len(launches) == len(profile.counters)
        cursor = 0.0
        for e in launches:
            assert e["ts"] == pytest.approx(cursor)
            assert e["args"]["bound"] in ("issue", "bandwidth", "latency")
            cursor = e["ts"] + e["dur"]
        assert cursor == pytest.approx(profile.total_cycles)

    def test_sm_lanes_and_channel_rows(self, profile):
        from repro.telemetry.chrome import gpu_timeline_events

        evs = gpu_timeline_events(profile)
        sm_x = [e for e in evs if e["ph"] == "X" and 1 <= e["tid"] < 64]
        ch_x = [e for e in evs if e["ph"] == "X" and e["tid"] >= 64]
        assert sm_x and ch_x
        for cs in profile.counters:
            lanes = [e for e in sm_x if e["args"]["launch"] == cs.launch_index]
            assert len(lanes) == cs.effective_sms
            assert all(e["dur"] == pytest.approx(cs.body_cycles)
                       for e in lanes)
        names = {e["args"]["name"] for e in evs if e["ph"] == "M"}
        assert any(n.startswith("SM") for n in names)
        assert any(n.startswith("DRAM ch") for n in names)

    def test_counter_tracks_step_per_launch(self, profile):
        from repro.telemetry.chrome import gpu_timeline_events

        evs = gpu_timeline_events(profile)
        dram = [e for e in evs if e["ph"] == "C" and e["name"] == "dram_bytes"]
        assert len(dram) == len(profile.counters)
        assert [c["args"]["value"] for c in dram] == [
            cs.dram_bytes for cs in profile.counters
        ]

    def test_profiles_to_chrome_document(self, tmp_path, profile):
        from repro.telemetry.chrome import profiles_to_chrome

        out = profiles_to_chrome([profile, profile],
                                 str(tmp_path / "gpu.chrome.json"))
        doc = json.loads(open(out).read())
        assert doc["otherData"]["clock"].startswith("simulated_cycles")
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2}  # one Chrome process per app profile
        procs = [e for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert all("backprop" in p["args"]["name"] for p in procs)


# ----------------------------------------------------------------------
# JsonlSink hardening
# ----------------------------------------------------------------------
class TestJsonlSinkHardening:
    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.emit({"v": 1, "ev": "meta", "clock": "perf_counter"})
        assert telemetry.parse_trace(str(path))[0]["ev"] == "meta"

    def test_close_idempotent_and_emit_after_close_dropped(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.emit({"v": 1, "ev": "meta"})
        sink.close()
        sink.close()  # second close must not raise
        sink.emit({"v": 1, "ev": "meta"})  # silently dropped, no raise
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 1

    def test_append_extends_existing_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _ in range(2):
            telemetry.start(sink=JsonlSink(str(path), append=True))
            with telemetry.span("s"):
                pass
            telemetry.stop()
        events = telemetry.parse_trace(str(path))
        assert sum(1 for e in events if e["ev"] == "meta") == 2
        assert sum(1 for e in events if e["ev"] == "span_close") == 2

    def test_atexit_hook_stops_balanced_session(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.start(trace_path=str(path))
        telemetry.count("c", 3)
        telemetry._close_at_exit()  # what atexit would run
        assert not telemetry.active()
        events = telemetry.parse_trace(str(path))
        c = next(e for e in events
                 if e["ev"] == "counter" and e["name"] == "c")
        assert c["value"] == 3 and c["v"] == 1

    def test_atexit_hook_flushes_crashed_session(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.start(trace_path=str(path))
        span = telemetry.span("hung")
        span.__enter__()  # never exits: simulated crash mid-span
        telemetry._close_at_exit()
        events = telemetry.parse_trace(str(path), allow_truncated=True)
        assert any(e["ev"] == "span_open" and e["name"] == "hung"
                   for e in events)
        telemetry._STATE = None  # clean up the abandoned session

    def test_discard_leaves_sinks_usable_by_owner(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path))
        telemetry.start(sink=sink)
        telemetry.discard()
        assert not telemetry.active()
        assert not sink._fh.closed  # parent's descriptor untouched
        sink.close()


# ----------------------------------------------------------------------
# Parallel-runner worker path (in-process)
# ----------------------------------------------------------------------
class TestWarmWorkloadCollect:
    def test_collect_returns_counters_and_writes_pid_trace(self, tmp_path):
        import os

        from repro.core.features import clear_caches, warm_workload

        clear_caches()
        trace = tmp_path / "warm.jsonl"
        name, produced, counters = warm_workload(
            "backprop", "tiny", trace_path=str(trace), collect=True
        )
        assert name == "backprop" and produced
        assert counters  # the child session's totals came back
        child = tmp_path / f"warm.{os.getpid()}.jsonl"
        assert child.is_file()
        events = telemetry.parse_trace(str(child))
        metas = [e for e in events if e["ev"] == "meta"]
        assert metas[0]["attrs"]["workload"] == "backprop"
        assert not telemetry.active()  # child session fully stopped

    def test_collect_discards_inherited_session(self, tmp_path):
        from repro.core.features import clear_caches, warm_workload

        clear_caches()
        parent_sink = MemorySink()
        telemetry.start(sink=parent_sink)  # simulate the forked parent state
        n_parent_events = len(parent_sink.events)
        _, _, counters = warm_workload("backprop", "tiny", collect=True)
        # The worker abandoned the inherited session rather than writing
        # into the parent's sink, and ran its own.
        assert len(parent_sink.events) == n_parent_events
        assert counters
        assert not telemetry.active()
