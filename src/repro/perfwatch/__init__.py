"""Performance observatory: a durable, analyzable perf trajectory.

The paper this repo reproduces is a characterization study; this
package lets the reproduction characterize *itself* over time instead
of discarding every measurement at session end:

- :mod:`.store` — the append-only, schema-versioned, lock-protected
  ``perf-history.jsonl`` of tagged measurement sessions.
- :mod:`.ingest` — adapters from the other measurement surfaces
  (run-registry records, telemetry traces, live service scrapes) into
  history sessions.
- :mod:`.analysis` — median/MAD k-sigma regression detection and a
  two-window changepoint scan, reported through the fidelity layer's
  :class:`~repro.fidelity.drift.DriftReport` so missing metrics fail
  loudly.
- :mod:`.spandiff` — cross-run span-tree diffing: aligned self-time
  tables with a "what got slower" ranking.
- :mod:`.bench` — the benchmark-harness session recorder behind
  ``benchmarks/conftest.py`` (timings, outcomes, peak RSS), whose
  sessions go straight into the history.
- :mod:`.cli` — ``runner perf record|gate|report|trend|diff``.

See docs/PERF.md.
"""

from repro.perfwatch.analysis import (
    Changepoint,
    GateParams,
    PerfReport,
    detect_regressions,
    scan_changepoints,
)
from repro.perfwatch.spandiff import (
    SpanDelta,
    diff_spans,
    diff_traces,
    slower_spans,
    span_diff_table,
)
from repro.perfwatch.store import (
    SCHEMA_VERSION,
    PerfHistory,
    SessionRecord,
    environment_tags,
)

__all__ = [
    "Changepoint",
    "GateParams",
    "PerfHistory",
    "PerfReport",
    "SCHEMA_VERSION",
    "SessionRecord",
    "SpanDelta",
    "detect_regressions",
    "diff_spans",
    "diff_traces",
    "environment_tags",
    "scan_changepoints",
    "slower_spans",
    "span_diff_table",
]
