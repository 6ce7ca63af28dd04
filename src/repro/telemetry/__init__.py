"""Telemetry: hierarchical spans, named counters, and JSONL traces.

The simulator stack measures simulated machines all day; this module
lets it measure *itself*.  Three primitives, one module-level registry:

- **Spans** — nestable timed regions (``run`` → ``experiment`` →
  ``workload`` → ``kernel_launch`` → ``batch_pass``) opened with the
  :func:`span` context manager or the :func:`spanned` decorator.  Spans
  carry monotonic wall time, a stable id, and their parent's id.
- **Counters / gauges** — named monotonic tallies (:func:`count`) and
  last-value measurements (:func:`gauge`), incremented by the hot
  layers: artifact-cache hits, batched kernel launches and their lane
  occupancy, LRU evictions, committed transactions.
- **JSONL emission** — when a sink is attached, every span open/close
  becomes one JSON object per line (see :data:`SCHEMA_VERSION` and
  docs/TELEMETRY.md for the schema); counter totals are appended when
  the session stops.  ``runner --trace out.jsonl`` or ``REPRO_TRACE``
  attach a :class:`JsonlSink`; tests use :class:`MemorySink`.

Disabled is the default and costs one ``is None`` branch per call site:
every public function loads the module-level ``_STATE`` and returns
immediately when no session is active, and :func:`span` hands back a
shared no-op context manager.  Nothing is allocated, formatted, or
timed until :func:`start` installs a session.

In-process aggregation is always on while a session is active:
:func:`summary` renders the span/counter totals as
:class:`repro.common.tables.Table` rows without needing a trace file.

The registry is deliberately not thread-safe: the simulator is
single-threaded per process, and the parallel runner path uses
*processes* — each child runs its own session and writes its own
``<trace>.<pid>.jsonl``, with counter totals merged back into the
parent (see :func:`repro.core.features.warm_workload`).

Two companion modules build on the stream: :mod:`.profile` attributes
wall time to spans (self vs children, a peak-RSS gauge via
``start(profile=True)``) and :mod:`.chrome` exports any JSONL trace to
the Chrome Trace Event format (:func:`trace_to_chrome`).
"""

from __future__ import annotations

import atexit
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.common.tables import Table

#: Bump when the shape or meaning of emitted events changes.  Every
#: event line carries this as ``"v"`` so trace diffing tools can refuse
#: mixed-schema comparisons.
SCHEMA_VERSION = 1

#: Event kinds emitted to sinks, in the order they can appear.
EVENT_KINDS = ("meta", "span_open", "span_close", "counter", "gauge")


class JsonlSink:
    """Writes one JSON object per line to a file, compact separators.

    Missing parent directories are created; ``close()`` flushes and is
    idempotent, and the module registers an ``atexit`` hook so a
    session that never reaches :func:`stop` (crash, ``os._exit``-free
    interpreter teardown, pool worker shutdown) still lands its
    buffered events on disk.  ``append=True`` reopens an existing trace
    without truncating — the per-process sink of the parallel runner.
    """

    def __init__(self, path: str, append: bool = False):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "a" if append else "w", encoding="utf-8")

    def emit(self, event: Dict[str, Any]) -> None:
        if self._fh.closed:
            return
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class MemorySink:
    """Collects events in a list (tests, benchmarks)."""

    def __init__(self):
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class _State:
    """One active telemetry session."""

    __slots__ = (
        "sinks", "counters", "gauges", "span_stats", "stack",
        "next_id", "t0", "api_calls", "profile",
    )

    def __init__(self, sinks, profile=None):
        self.sinks = sinks
        #: Optional :class:`repro.telemetry.profile.SessionProfile`;
        #: None (the default) keeps span close on the original path.
        self.profile = profile
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        # name -> [count, total seconds]
        self.span_stats: Dict[str, List[float]] = {}
        self.stack: List["Span"] = []
        self.next_id = 0
        self.t0 = time.perf_counter()
        #: Total telemetry API invocations (spans count open+close).
        #: The overhead benchmark multiplies this by the disabled
        #: per-call cost to bound the cost of leaving the probes in.
        self.api_calls = 0

    def emit(self, event: Dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(event)


_STATE: Optional[_State] = None


class Span:
    """A timed region.  Use via :func:`span`; reentrant it is not."""

    __slots__ = ("name", "attrs", "id", "parent_id", "_start", "_child_s")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self._start = 0.0
        self._child_s = 0.0  # time spent in child spans (profiling only)

    def __enter__(self) -> "Span":
        s = _STATE
        if s is None:  # session stopped between creation and entry
            return self
        s.api_calls += 1
        s.next_id += 1
        self.id = f"s{s.next_id}"
        self.parent_id = s.stack[-1].id if s.stack else None
        s.stack.append(self)
        self._start = time.perf_counter()
        event = {
            "v": SCHEMA_VERSION,
            "ev": "span_open",
            "id": self.id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": round(self._start - s.t0, 6),
        }
        if self.attrs:
            event["attrs"] = self.attrs
        s.emit(event)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        s = _STATE
        if s is None or self.id is None:
            return False
        s.api_calls += 1
        dur = time.perf_counter() - self._start
        # Context managers exit innermost-first; a mismatch means a span
        # was entered without exiting (or exited twice) — a programming
        # error worth failing loudly on rather than emitting garbage
        # parentage.
        top = s.stack.pop()
        if top is not self:
            raise RuntimeError(
                f"span {self.name!r} closed out of LIFO order "
                f"(expected {top.name!r})"
            )
        stat = s.span_stats.setdefault(self.name, [0, 0.0])
        stat[0] += 1
        stat[1] += dur
        if s.profile is not None:
            s.profile.record(self.name, max(0.0, dur - self._child_s))
            if s.stack:
                s.stack[-1]._child_s += dur
        s.emit({
            "v": SCHEMA_VERSION,
            "ev": "span_close",
            "id": self.id,
            "name": self.name,
            "dur_s": round(dur, 6),
            "ok": exc_type is None,
        })
        return False


class _NullSpan:
    """Shared no-op span: what :func:`span` returns while disabled."""

    __slots__ = ()
    id = None
    parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def active() -> bool:
    """Whether a telemetry session is currently collecting."""
    return _STATE is not None


_ATEXIT_REGISTERED = False


def _close_at_exit() -> None:
    """Last-chance flush: a live session at interpreter exit loses nothing.

    With a balanced span stack this is a full graceful :func:`stop`
    (counter/gauge totals emitted); with spans still open (a crash mid
    run) the sinks are flushed and closed so every event already
    emitted survives — :func:`parse_trace` reads such traces with
    ``allow_truncated``.
    """
    s = _STATE
    if s is None:
        return
    if not s.stack:
        stop()
    else:
        for sink in s.sinks:
            sink.close()


def start(
    sink=None,
    trace_path: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
    profile: bool = False,
) -> bool:
    """Begin a session; returns False (and changes nothing) if one is active.

    ``sink`` is any object with ``emit(dict)``/``close()``;
    ``trace_path`` additionally attaches a :class:`JsonlSink`.  With
    neither, events are aggregated in-process only (for
    :func:`summary`).  ``profile=True`` attaches span self-time
    attribution and a peak-RSS gauge (see
    :mod:`repro.telemetry.profile`).
    """
    global _STATE, _ATEXIT_REGISTERED
    if _STATE is not None:
        return False
    sinks = []
    if sink is not None:
        sinks.append(sink)
    if trace_path:
        sinks.append(JsonlSink(trace_path))
    session_profile = None
    if profile:
        from repro.telemetry.profile import SessionProfile

        session_profile = SessionProfile()
    if not _ATEXIT_REGISTERED:
        atexit.register(_close_at_exit)
        _ATEXIT_REGISTERED = True
    _STATE = _State(sinks, profile=session_profile)
    event = {"v": SCHEMA_VERSION, "ev": "meta", "clock": "perf_counter"}
    if meta:
        event["attrs"] = meta
    _STATE.emit(event)
    return True


def stop() -> Dict[str, Any]:
    """End the session: emit counter/gauge totals, close sinks.

    Returns a plain snapshot dict (``counters``, ``gauges``,
    ``span_stats``, ``api_calls``) usable after the session is gone.
    """
    global _STATE
    s = _STATE
    if s is None:
        return {"counters": {}, "gauges": {}, "span_stats": {},
                "self_stats": {}, "api_calls": 0}
    if s.stack:
        raise RuntimeError(
            f"telemetry stopped with {len(s.stack)} span(s) still open "
            f"(innermost: {s.stack[-1].name!r})"
        )
    if s.profile is not None:
        s.gauges.update(s.profile.finish())
    ts = round(time.perf_counter() - s.t0, 6)
    for name in sorted(s.counters):
        s.emit({"v": SCHEMA_VERSION, "ev": "counter", "name": name,
                "value": s.counters[name], "ts": ts})
    for name in sorted(s.gauges):
        s.emit({"v": SCHEMA_VERSION, "ev": "gauge", "name": name,
                "value": s.gauges[name], "ts": ts})
    snapshot = {
        "counters": dict(s.counters),
        "gauges": dict(s.gauges),
        "span_stats": {k: tuple(v) for k, v in s.span_stats.items()},
        "self_stats": (
            {} if s.profile is None
            else {k: tuple(v) for k, v in s.profile.self_stats.items()}
        ),
        "api_calls": s.api_calls,
    }
    _STATE = None
    for sink in s.sinks:
        sink.close()
    return snapshot


def discard() -> None:
    """Abandon any active session: no totals emitted, sinks left unclosed.

    Fork hygiene.  A forked pool worker inherits the parent's live
    session, whose sinks wrap the *parent's* file descriptors — writing
    to or closing them from the child corrupts the parent's trace (and
    flushes duplicated buffered bytes).  Workers call this before
    starting their own session; see
    :func:`repro.core.features.warm_workload`.
    """
    global _STATE
    _STATE = None


def span(name: str, /, **attrs) -> Any:
    """A context manager timing one region; no-op while disabled.

    ``name`` is positional-only so attrs may freely use ``name=`` as an
    attribute key.  The returned object exposes ``id`` (``None`` while
    disabled) for correlating other records with the emitted events.
    """
    if _STATE is None:
        return _NULL_SPAN
    return Span(name, attrs)


def spanned(name: str):
    """Decorator form of :func:`span`."""
    def deco(fn):
        def wrapper(*args, **kwargs):
            if _STATE is None:
                return fn(*args, **kwargs)
            with Span(name, {}):
                return fn(*args, **kwargs)
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper
    return deco


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to a named counter (no-op while disabled)."""
    s = _STATE
    if s is None:
        return
    s.api_calls += 1
    s.counters[name] = s.counters.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Record the latest value of a named gauge (no-op while disabled)."""
    s = _STATE
    if s is None:
        return
    s.api_calls += 1
    s.gauges[name] = float(value)


def merge_counters(totals: Dict[str, int]) -> None:
    """Fold another session's counter totals into this one (no-op when off).

    Used by the parallel runner: each pool worker returns its session's
    counter snapshot, and the parent merges them so :func:`summary` and
    the emitted totals cover child work too.
    """
    s = _STATE
    if s is None:
        return
    for name, value in totals.items():
        s.api_calls += 1
        s.counters[name] = s.counters.get(name, 0) + value


def sample_counters(prefix: Optional[str] = None) -> None:
    """Emit the current cumulative counter totals as timestamped events.

    Counter events normally appear once, at :func:`stop`; sampling
    mid-session (the typed experiment runner does it after every
    experiment) gives the trace a *time series* of cumulative totals,
    which the Chrome exporter renders as counter tracks so evolution is
    visible on the timeline, not just the final value.  Each sample
    carries the session-relative ``ts``; the totals stay cumulative, so
    the last event per name still equals the :func:`stop` total and
    :func:`diff_counters` (which keeps the last value per name) is
    unaffected.  ``prefix`` restricts the sample to matching counters.
    No-op while disabled or when no sink is attached.
    """
    s = _STATE
    if s is None:
        return
    s.api_calls += 1
    if not s.sinks:
        return
    ts = round(time.perf_counter() - s.t0, 6)
    for name in sorted(s.counters):
        if prefix is not None and not name.startswith(prefix):
            continue
        s.emit({"v": SCHEMA_VERSION, "ev": "counter", "name": name,
                "value": s.counters[name], "ts": ts})


def counter_value(name: str) -> int:
    """Current value of a counter (0 when absent or disabled)."""
    s = _STATE
    return 0 if s is None else s.counters.get(name, 0)


def counters() -> Dict[str, int]:
    """Snapshot of all counters (empty when disabled)."""
    s = _STATE
    return {} if s is None else dict(s.counters)


def span_stats() -> Dict[str, Tuple[int, float]]:
    """Snapshot of span rollups ``name -> (count, total_s)`` so far.

    Covers only *closed* spans, like the session snapshot; empty while
    disabled.
    """
    s = _STATE
    return (
        {} if s is None
        else {k: (int(v[0]), v[1]) for k, v in s.span_stats.items()}
    )


def current_span_id() -> Optional[str]:
    """Id of the innermost open span, or None."""
    s = _STATE
    return s.stack[-1].id if s is not None and s.stack else None


def summary() -> List[Table]:
    """Aggregated session state as renderable tables.

    One table per populated primitive: spans (count, total, mean),
    counters, gauges.  Empty list while disabled.
    """
    s = _STATE
    if s is None:
        return []
    tables: List[Table] = []
    if s.span_stats:
        t = Table("Telemetry: spans",
                  ["span", "count", "total_s", "mean_ms"])
        for name in sorted(s.span_stats):
            n, total = s.span_stats[name]
            t.add_row([name, int(n), total, total / n * 1e3])
        tables.append(t)
    if s.counters:
        t = Table("Telemetry: counters", ["counter", "value"])
        for name in sorted(s.counters):
            t.add_row([name, s.counters[name]])
        tables.append(t)
    if s.gauges:
        t = Table("Telemetry: gauges", ["gauge", "value"])
        for name in sorted(s.gauges):
            t.add_row([name, s.gauges[name]])
        tables.append(t)
    if s.profile is not None and s.profile.self_stats:
        from repro.telemetry.profile import hot_spans_table, live_aggregate

        tables.append(
            hot_spans_table(live_aggregate(s.span_stats,
                                           s.profile.self_stats))
        )
    return tables


def parse_trace(path: str, allow_truncated: bool = False) -> List[Dict[str, Any]]:
    """Load a JSONL trace file back into event dicts, validating shape.

    Every line must parse as JSON, carry the schema version, and name a
    known event kind — the round-trip guarantee the test suite pins.
    An empty file is a valid empty trace.  ``allow_truncated`` forgives
    exactly one malformed *final* line (a writer killed mid-write);
    malformed JSON anywhere else is always an error.
    """
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    numbered = [(i, l.strip()) for i, l in enumerate(lines, 1) if l.strip()]
    for pos, (lineno, line) in enumerate(numbered):
        last = pos == len(numbered) - 1
        try:
            event = json.loads(line)
        except ValueError:
            if allow_truncated and last:
                break
            raise ValueError(
                f"{path}:{lineno}: malformed JSON "
                f"({'truncated trace?' if last else 'corrupt line'})"
            ) from None
        if event.get("v") != SCHEMA_VERSION:
            raise ValueError(
                f"{path}:{lineno}: schema version {event.get('v')!r}, "
                f"expected {SCHEMA_VERSION}"
            )
        if event.get("ev") not in EVENT_KINDS:
            raise ValueError(
                f"{path}:{lineno}: unknown event kind {event.get('ev')!r}"
            )
        events.append(event)
    return events


def diff_counters(
    a: List[Dict[str, Any]], b: List[Dict[str, Any]]
) -> List[Tuple[str, int, int]]:
    """Compare the counter totals of two parsed traces.

    Returns ``(name, value_a, value_b)`` for every counter that differs
    (missing counters read as 0) — the primitive behind "how did this
    run differ from that one".
    """
    ca = {e["name"]: e["value"] for e in a if e["ev"] == "counter"}
    cb = {e["name"]: e["value"] for e in b if e["ev"] == "counter"}
    out = []
    for name in sorted(set(ca) | set(cb)):
        va, vb = ca.get(name, 0), cb.get(name, 0)
        if va != vb:
            out.append((name, va, vb))
    return out


# Companion modules (import at the bottom: none import anything from
# this module at import time, so the package namespace stays one-stop).
from repro.telemetry.chrome import trace_to_chrome  # noqa: E402
from repro.telemetry.metrics import (  # noqa: E402
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)
from repro.telemetry.profile import (  # noqa: E402
    aggregate_spans,
    hot_spans_table,
    profile_trace,
)
