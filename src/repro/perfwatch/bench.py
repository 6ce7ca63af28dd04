"""Benchmark-session recording behind ``benchmarks/conftest.py``.

:class:`BenchRecorder` consumes pytest report objects (duck-typed:
``when``/``nodeid``/``passed``/``failed``/``skipped``/``duration``) and
tracks per-test wall clock, **outcome**, and **peak RSS** (the process
high-water mark from ``resource.getrusage`` sampled at each test's end
— monotone within a session, so per-test values read as "the footprint
by the time this test finished").  :meth:`BenchRecorder.session` turns
the session into one perf-history :class:`SessionRecord`, which the
conftest appends to ``benchmarks/perf-history.jsonl``:

- ``bench/<nodeid>`` — wall seconds of each passed test;
- ``benchrss/<nodeid>`` — peak RSS in kB when the test finished;
- ``bench/total_s`` — the summed wall seconds;
- meta ``{"skipped": n, "failed": n}`` — a skipped or failed benchmark
  is counted, not timed, so it cannot pass for a fast one.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.perfwatch.store import SessionRecord, environment_tags

#: Outcome precedence: a test that failed in any phase is failed, then
#: skipped, then passed.
_OUTCOME_RANK = {"passed": 0, "skipped": 1, "failed": 2}


def _peak_rss_kb() -> Optional[float]:
    """Process peak RSS in kB (Linux ``ru_maxrss`` units), or None."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class BenchRecorder:
    """Accumulates one benchmark session from pytest report objects."""

    def __init__(self, scale: str = ""):
        self.scale = scale
        self.timings: Dict[str, float] = {}
        self.outcomes: Dict[str, str] = {}
        self.rss_kb: Dict[str, float] = {}

    def observe(self, report: Any) -> None:
        """Fold one pytest ``TestReport`` (any phase) into the session."""
        nodeid = report.nodeid
        outcome = (
            "failed" if report.failed
            else "skipped" if report.skipped
            else "passed"
        )
        prev = self.outcomes.get(nodeid, "passed")
        if _OUTCOME_RANK[outcome] >= _OUTCOME_RANK[prev]:
            self.outcomes[nodeid] = outcome
        if report.when == "call":
            if report.passed:
                self.timings[nodeid] = round(report.duration, 4)
            rss = _peak_rss_kb()
            if rss is not None:
                self.rss_kb[nodeid] = rss

    @property
    def empty(self) -> bool:
        return not self.outcomes

    def session(
        self, tags: Optional[Dict[str, str]] = None
    ) -> SessionRecord:
        """The session as a stamped ``bench`` perf-history record.

        Tags default to the live environment's (git SHA, hostname,
        config fingerprint).
        """
        metrics: Dict[str, float] = {
            f"bench/{nodeid}": dur
            for nodeid, dur in self.timings.items()
            if self.outcomes.get(nodeid) == "passed"
        }
        for nodeid, kb in self.rss_kb.items():
            metrics[f"benchrss/{nodeid}"] = kb
        metrics["bench/total_s"] = round(sum(self.timings.values(), 0.0), 4)
        outcomes = list(self.outcomes.values())
        meta = {
            "skipped": outcomes.count("skipped"),
            "failed": outcomes.count("failed"),
        } if outcomes else {}
        return SessionRecord(
            source="bench",
            metrics=metrics,
            scale=self.scale,
            meta=meta,
        ).stamp(environment_tags() if tags is None else tags)
