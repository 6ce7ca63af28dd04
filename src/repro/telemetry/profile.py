"""Span-time attribution and memory profiling for telemetry sessions.

Two consumers, one data model:

- **Live** — ``telemetry.start(profile=True)`` attaches a
  :class:`SessionProfile` to the session.  Span exits then additionally
  record *self* time (wall time minus the time spent in child spans),
  and ``stop()`` folds the process's peak RSS into the session gauges.
  The cost is confined to span close while profiling is on; the
  disabled telemetry path is untouched, and no allocation tracer runs.

- **Offline** — :func:`aggregate_spans` rebuilds the same self-vs-child
  rollup from any parsed JSONL trace (or :class:`MemorySink` event
  list), so traces captured without profiling can still be attributed
  after the fact.

:func:`hot_spans_table` renders either source as a top-N table ordered
by self time — the "where did the wall clock actually go" view.
"""

from __future__ import annotations

import dataclasses
import resource
from typing import Any, Dict, Iterable, List, Optional

from repro.common.tables import Table


class SessionProfile:
    """Per-session profiling state (attached by ``telemetry.start``)."""

    __slots__ = ("self_stats",)

    def __init__(self):
        #: name -> [count, self_seconds]
        self.self_stats: Dict[str, List[float]] = {}

    def record(self, name: str, self_s: float) -> None:
        stat = self.self_stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += self_s

    def finish(self) -> Dict[str, float]:
        """Final gauges: the process's peak RSS (Linux ``ru_maxrss``, kB)."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"profile.mem.peak_rss_kb": float(peak)}


@dataclasses.dataclass
class SpanAgg:
    """Aggregated timing of all spans sharing a name."""

    name: str
    count: int
    total_s: float    # inclusive wall time
    self_s: float     # total minus time inside child spans

    @property
    def mean_ms(self) -> float:
        return self.total_s / self.count * 1e3 if self.count else 0.0

    @property
    def self_ms(self) -> float:
        return self.self_s / self.count * 1e3 if self.count else 0.0


def aggregate_spans(events: Iterable[Dict[str, Any]]) -> List[SpanAgg]:
    """Self-vs-child rollup from a parsed trace, ordered by self time.

    Works on the event dicts of :func:`repro.telemetry.parse_trace` or a
    :class:`~repro.telemetry.MemorySink`.  Spans that never closed
    (crash, truncated trace) contribute nothing; their children still
    attribute normally.  Appended traces holding several sessions
    aggregate across all of them.
    """
    opens: Dict[str, Dict[str, Any]] = {}
    durs: Dict[str, float] = {}
    child_s: Dict[str, float] = {}
    for event in events:
        ev = event.get("ev")
        if ev == "span_open":
            opens[event["id"]] = event
        elif ev == "span_close" and event["id"] in opens:
            durs[event["id"]] = event["dur_s"]
    for span_id, dur in durs.items():
        parent = opens[span_id].get("parent")
        if parent is not None and parent in durs:
            child_s[parent] = child_s.get(parent, 0.0) + dur
    by_name: Dict[str, SpanAgg] = {}
    for span_id, dur in durs.items():
        name = opens[span_id]["name"]
        agg = by_name.setdefault(name, SpanAgg(name, 0, 0.0, 0.0))
        agg.count += 1
        agg.total_s += dur
        agg.self_s += max(0.0, dur - child_s.get(span_id, 0.0))
    return sorted(by_name.values(), key=lambda a: -a.self_s)


def live_aggregate(
    span_stats: Dict[str, Iterable[float]],
    self_stats: Dict[str, Iterable[float]],
) -> List[SpanAgg]:
    """Rollup from a live session's (span_stats, self_stats) pair."""
    out = []
    for name, (count, total_s) in span_stats.items():
        self_s = self_stats.get(name, (0, 0.0))[1]
        out.append(SpanAgg(name, int(count), total_s, self_s))
    return sorted(out, key=lambda a: -a.self_s)


def hot_spans_table(aggs: List[SpanAgg], n: int = 10) -> Table:
    """Top-N spans by self time as a renderable table."""
    total_self = sum(a.self_s for a in aggs) or 1.0
    table = Table(
        f"Telemetry: hot spans (top {min(n, len(aggs))} by self time)",
        ["span", "count", "total_s", "self_s", "self_ms/call", "self_%"],
    )
    for agg in aggs[:n]:
        table.add_row([
            agg.name, agg.count, agg.total_s, agg.self_s,
            agg.self_ms, agg.self_s / total_self * 100.0,
        ])
    return table


def profile_trace(path: str, n: int = 10) -> Table:
    """One-call convenience: parse a JSONL trace, return the hot-span table."""
    from repro.telemetry import parse_trace

    return hot_spans_table(aggregate_spans(parse_trace(path)), n)
