"""Telemetry subsystem: spans, counters, JSONL schema, runtime config.

Covers the guarantees docs/TELEMETRY.md promises: every emitted event
parses and carries valid span parentage (round-trip), counters report
exact values for known workloads (a warm artifact-cache run scores
exactly one hit), and spans close in LIFO order under arbitrary nesting
(hypothesis).
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.common.config import (
    DEFAULT_TRACE_CHUNK_ROWS,
    RuntimeConfig,
    SimScale,
    config,
    override,
)
from repro.core import artifacts
from repro.core.features import clear_caches, gpu_trace_for
from repro.gpusim import GPU


@pytest.fixture(autouse=True)
def _clean_session():
    """No telemetry session leaks into or out of any test."""
    telemetry._STATE = None
    yield
    telemetry._STATE = None


# ----------------------------------------------------------------------
# Core span/counter mechanics
# ----------------------------------------------------------------------
class TestDisabled:
    def test_disabled_by_default(self):
        assert not telemetry.active()
        # Every primitive is a cheap no-op.
        telemetry.count("x")
        telemetry.gauge("y", 1.0)
        assert telemetry.counters() == {}
        assert telemetry.counter_value("x") == 0
        assert telemetry.summary() == []
        assert telemetry.current_span_id() is None

    def test_disabled_span_is_shared_noop(self):
        s1 = telemetry.span("a")
        s2 = telemetry.span("b", deep=True)
        assert s1 is s2  # the singleton: no allocation while disabled
        with s1 as sp:
            assert sp.id is None

    def test_stop_without_start_is_harmless(self):
        snap = telemetry.stop()
        assert snap["counters"] == {}


class TestSession:
    def test_start_is_exclusive(self):
        assert telemetry.start()
        assert not telemetry.start()  # second start refused, no clobber
        telemetry.count("k", 3)
        assert telemetry.counter_value("k") == 3
        snap = telemetry.stop()
        assert snap["counters"] == {"k": 3}
        assert not telemetry.active()

    def test_span_ids_and_parentage(self):
        sink = telemetry.MemorySink()
        telemetry.start(sink)
        with telemetry.span("outer") as outer:
            assert telemetry.current_span_id() == outer.id
            with telemetry.span("inner", name="attr-named") as inner:
                assert inner.parent_id == outer.id
        assert outer.parent_id is None
        telemetry.stop()
        opens = [e for e in sink.events if e["ev"] == "span_open"]
        assert [e["name"] for e in opens] == ["outer", "inner"]
        assert opens[1]["parent"] == opens[0]["id"]
        assert opens[1]["attrs"] == {"name": "attr-named"}

    def test_stop_with_open_span_raises(self):
        telemetry.start()
        sp = telemetry.span("dangling").__enter__()
        with pytest.raises(RuntimeError, match="still open"):
            telemetry.stop()
        sp.__exit__(None, None, None)
        telemetry.stop()

    def test_non_lifo_close_raises(self):
        telemetry.start()
        a = telemetry.span("a").__enter__()
        b = telemetry.span("b").__enter__()
        with pytest.raises(RuntimeError, match="LIFO"):
            a.__exit__(None, None, None)

    def test_spanned_decorator(self):
        @telemetry.spanned("decorated")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # disabled: plain call
        telemetry.start()
        assert fn(2) == 3
        snap = telemetry.stop()
        assert snap["span_stats"]["decorated"][0] == 1

    def test_summary_tables(self):
        telemetry.start()
        with telemetry.span("phase"):
            telemetry.count("events", 5)
            telemetry.gauge("ratio", 0.5)
        tables = telemetry.summary()
        titles = [t.title for t in tables]
        assert titles == [
            "Telemetry: spans", "Telemetry: counters", "Telemetry: gauges"
        ]
        counters = tables[1]
        assert counters.column("counter") == ["events"]
        assert counters.column("value") == ["5"]
        telemetry.stop()


# ----------------------------------------------------------------------
# Hypothesis: spans always close LIFO under arbitrary nesting
# ----------------------------------------------------------------------
nesting = st.recursive(
    st.just([]),
    lambda children: st.lists(children, min_size=1, max_size=4),
    max_leaves=12,
)


def _run_tree(tree, depth=0):
    for i, child in enumerate(tree):
        with telemetry.span(f"d{depth}"):
            _run_tree(child, depth + 1)


@settings(max_examples=40, deadline=None)
@given(tree=nesting)
def test_spans_close_lifo(tree):
    telemetry._STATE = None
    sink = telemetry.MemorySink()
    telemetry.start(sink)
    _run_tree(tree)
    telemetry.stop()
    # Replay the event stream against an explicit stack: every close must
    # match the innermost open span, and parentage must mirror the stack.
    stack = []
    for e in sink.events:
        if e["ev"] == "span_open":
            assert e["parent"] == (stack[-1] if stack else None)
            stack.append(e["id"])
        elif e["ev"] == "span_close":
            assert stack, "close without open"
            assert stack.pop() == e["id"], "non-LIFO close"
    assert stack == []


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
class TestJsonl:
    def test_every_line_parses_and_nests(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        telemetry.start(trace_path=path)
        with telemetry.span("run", scale="tiny"):
            with telemetry.span("experiment", experiment="x"):
                telemetry.count("hits", 2)
            telemetry.gauge("occupancy", 0.75)
        telemetry.stop()
        with open(path) as fh:
            lines = [l for l in fh.read().splitlines() if l]
        raw = [json.loads(l) for l in lines]  # every line is JSON
        events = telemetry.parse_trace(path)  # and schema-valid
        assert len(raw) == len(events)
        assert events[0]["ev"] == "meta"
        kinds = [e["ev"] for e in events]
        assert kinds.count("span_open") == kinds.count("span_close") == 2
        opens = {e["id"]: e for e in events if e["ev"] == "span_open"}
        child = next(e for e in opens.values() if e["name"] == "experiment")
        parent = next(e for e in opens.values() if e["name"] == "run")
        assert child["parent"] == parent["id"]
        # counter/gauge totals land at stop(), timestamped so the
        # Chrome exporter can place them on the timeline
        hits = next(e for e in events
                    if e["ev"] == "counter" and e["name"] == "hits")
        assert hits["value"] == 2
        assert hits["v"] == telemetry.SCHEMA_VERSION
        assert hits["ts"] >= 0.0
        assert any(e["ev"] == "gauge" and e["name"] == "occupancy"
                   for e in events)

    def test_parse_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 999, "ev": "meta"}\n')
        with pytest.raises(ValueError, match="schema version"):
            telemetry.parse_trace(str(path))

    def test_parse_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"v": telemetry.SCHEMA_VERSION, "ev": "mystery"})
            + "\n"
        )
        with pytest.raises(ValueError, match="unknown event kind"):
            telemetry.parse_trace(str(path))

    def test_diff_counters(self):
        a = [{"ev": "counter", "name": "x", "value": 1},
             {"ev": "counter", "name": "y", "value": 2}]
        b = [{"ev": "counter", "name": "y", "value": 2},
             {"ev": "counter", "name": "z", "value": 3}]
        assert telemetry.diff_counters(a, b) == [
            ("x", 1, 0), ("z", 0, 3)
        ]

    def test_diff_counters_empty_traces(self):
        assert telemetry.diff_counters([], []) == []
        a = [{"ev": "counter", "name": "x", "value": 1}]
        assert telemetry.diff_counters(a, []) == [("x", 1, 0)]
        assert telemetry.diff_counters([], a) == [("x", 0, 1)]


class TestParseTraceEdges:
    """Hostile trace files: truncation, mixed schemas, empty traces."""

    def _valid_line(self, **extra):
        event = {"v": telemetry.SCHEMA_VERSION, "ev": "meta"}
        event.update(extra)
        return json.dumps(event)

    def test_empty_file_is_an_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert telemetry.parse_trace(str(path)) == []
        path.write_text("\n\n")  # blank lines only
        assert telemetry.parse_trace(str(path)) == []

    def test_truncated_final_line_strict_vs_forgiving(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            self._valid_line() + "\n"
            + '{"v":1,"ev":"span_open","id":"s1","na'  # killed mid-write
        )
        with pytest.raises(ValueError, match="truncated trace"):
            telemetry.parse_trace(str(path))
        events = telemetry.parse_trace(str(path), allow_truncated=True)
        assert len(events) == 1  # good prefix survives, bad tail dropped
        assert events[0]["ev"] == "meta"

    def test_truncated_middle_line_always_errors(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            self._valid_line() + "\n"
            + '{"v":1,"ev":"span_open","id":"s1","na\n'
            + self._valid_line() + "\n"
        )
        # Corruption followed by valid lines is not truncation — the
        # forgiving mode must still refuse it.
        with pytest.raises(ValueError, match="corrupt line"):
            telemetry.parse_trace(str(path), allow_truncated=True)

    def test_mixed_schema_versions_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            self._valid_line() + "\n"
            + json.dumps({"v": telemetry.SCHEMA_VERSION + 1, "ev": "meta"})
            + "\n"
        )
        with pytest.raises(ValueError, match="schema version"):
            telemetry.parse_trace(str(path))

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._valid_line() + "\n" + '{"v": 2, "ev": "meta"}\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            telemetry.parse_trace(str(path))


# ----------------------------------------------------------------------
# Counter correctness on known executions
# ----------------------------------------------------------------------
def _fill_kernel(ctx, out):
    i = ctx.gtid
    with ctx.masked(i < out.size):
        ctx.store(out, i, ctx.const(2.0))


class TestCounterCorrectness:
    def test_known_kernel_launch(self):
        """One batched launch: routing and occupancy counters are exact."""
        telemetry.start()
        gpu = GPU()
        out = gpu.alloc(8 * 64, dtype=np.float32)
        gpu.launch(_fill_kernel, 8, 64, out)
        c = telemetry.counters()
        telemetry.stop()
        assert c["gpusim.batch.launches.batched"] == 1
        assert c["gpusim.batch.blocks.batched"] == 8
        launch = gpu.trace.launches[0]
        assert c["gpusim.batch.warp_insts"] == launch.issued_warp_insts
        assert c["gpusim.batch.active_lanes"] == launch.thread_insts

    def test_artifact_cache_exact_hit_count(self, tmp_path):
        """A warm second run scores exactly one disk hit, zero executes."""
        prev = artifacts.get_artifact_cache()
        artifacts.set_artifact_cache(artifacts.ArtifactCache(tmp_path))
        try:
            clear_caches()
            gpu_trace_for("backprop", SimScale.TINY)  # cold: execute+put
            clear_caches()  # drop the in-process memo, keep the disk
            telemetry.start()
            trace = gpu_trace_for("backprop", SimScale.TINY)
            again = gpu_trace_for("backprop", SimScale.TINY)  # memo hit
            c = telemetry.counters()
            snap_spans = telemetry.stop()["span_stats"]
            assert c["artifacts.gpu.hit"] == 1
            assert "artifacts.gpu.miss" not in c
            assert "artifacts.gpu.put" not in c
            assert c["features.memo.gpu.miss"] == 1
            assert c["features.memo.gpu.hit"] == 1
            assert again is trace
            # the warm path never opened a workload span: nothing ran
            assert "workload" not in snap_spans
        finally:
            artifacts.set_artifact_cache(prev)
            clear_caches()


# ----------------------------------------------------------------------
# RuntimeConfig
# ----------------------------------------------------------------------
class TestRuntimeConfig:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cfg = config()
        assert cfg.cache is True
        assert cfg.trace is None
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.setenv("REPRO_TRACE", "out.jsonl")
        cfg = config()
        assert cfg.cache is False
        assert cfg.trace == "out.jsonl"

    def test_override_nests_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_TRACE_CHUNK", raising=False)
        with override(cache=False):
            assert config().cache is False
            with override(trace_chunk_rows=4096):
                assert config().cache is False  # inherited from outer
                assert config().trace_chunk_rows == 4096
            assert config().trace_chunk_rows == DEFAULT_TRACE_CHUNK_ROWS
        assert config().cache is True

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        with override(cache=True):
            assert config().cache is True
        assert config().cache is False

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config().cache = False

    def test_default_cache_honors_config(self):
        with override(cache=False):
            assert artifacts.default_cache() is None
        with override(cache=True, cache_dir="/tmp/somewhere-else"):
            cache = artifacts.default_cache()
            assert str(cache.root) == "/tmp/somewhere-else"
