"""``runner perf`` — the perf-history trajectory's command surface.

Subcommands (all take ``--history PATH``; the default is
``benchmarks/perf-history.jsonl``):

- ``record`` — ingest measurement sources into the history
  (``--registry`` run-record dirs, ``--trace`` telemetry JSONL files,
  ``--scrape host:port`` of a live service).  Idempotent: sessions
  already present are skipped.  Benchmark sessions arrive through
  ``pytest benchmarks/ --update-bench`` instead.
- ``gate``   — judge the newest session against the trailing baseline
  (median/MAD, ``--k-sigma``); exits nonzero on a regression or a
  vanished tracked metric.  The CI hook.
- ``report`` — the same analysis as a deterministic markdown artifact
  (``--out`` or stdout).
- ``trend``  — per-family ANSI tables with unicode sparklines of every
  metric's trajectory (the ``watch`` dashboard's primitives, offline).
- ``diff``   — aligned per-span self-time tables for two recorded
  telemetry traces, ranked by "what got slower".

See docs/PERF.md for the history schema and the regression math.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from repro.common.config import DEFAULT_PERF_HISTORY
from repro.common.tables import Table
from repro.perfwatch.analysis import (
    GateParams,
    PerfReport,
    detect_regressions,
)
from repro.perfwatch.store import PerfHistory, SessionRecord

#: Rows of the full drift table printed before falling back to worst-N.
_FULL_TABLE_LIMIT = 40


def _gate_params(args: argparse.Namespace) -> GateParams:
    return GateParams(
        k_sigma=args.k_sigma,
        window=args.window,
        min_samples=args.min_samples,
    )


def _add_gate_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--k-sigma", type=float, default=4.0, metavar="K",
        help="regression threshold in robust sigmas above the baseline "
             "median (default: 4)",
    )
    parser.add_argument(
        "--window", type=int, default=20, metavar="N",
        help="trailing baseline samples per metric (default: 20)",
    )
    parser.add_argument(
        "--min-samples", type=int, default=3, metavar="N",
        help="baseline depth below which a metric is not judged "
             "(default: 3)",
    )
    parser.add_argument(
        "--metric", metavar="PREFIX", default=None,
        help="restrict to metric paths starting with PREFIX "
             "(e.g. 'bench/', 'service/warm')",
    )


def _add_history_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--history", metavar="PATH", default=DEFAULT_PERF_HISTORY,
        help=f"perf-history JSONL (default: {DEFAULT_PERF_HISTORY})",
    )


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------
def _cmd_record(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner perf record",
        description="Ingest measurement sources into the perf history.",
    )
    _add_history_option(parser)
    parser.add_argument(
        "--registry", metavar="DIR", action="append", default=[],
        help="a run-registry directory to ingest (repeatable)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", action="append", default=[],
        help="a telemetry JSONL trace to roll up and ingest "
             "(repeatable)",
    )
    parser.add_argument(
        "--scrape", metavar="HOST:PORT", action="append", default=[],
        help="scrape a running service's /v1/stats + /v1/metrics once "
             "and ingest the latency quantiles (repeatable)",
    )
    args = parser.parse_args(argv)
    if not (args.registry or args.trace or args.scrape):
        parser.error("give at least one source "
                     "(--registry/--trace/--scrape)")
    from repro.perfwatch import ingest

    history = PerfHistory(args.history)
    batches: List[Tuple[str, List[SessionRecord]]] = []
    for directory in args.registry:
        batches.append(
            (f"registry:{directory}", ingest.from_registry(directory))
        )
    for path in args.trace:
        batches.append((f"trace:{path}", [ingest.from_trace(path)]))
    for target in args.scrape:
        host, _, port = target.partition(":")
        if not port.isdigit():
            parser.error(f"--scrape {target!r} is not HOST:PORT")
        batches.append(
            (f"scrape:{target}", [ingest.from_scrape(host, int(port))])
        )
    total = written = 0
    for label, sessions in batches:
        n = history.append_many(sessions)
        total += len(sessions)
        written += n
        print(f"[perf record] {label}: {len(sessions)} session(s), "
              f"{n} new", file=sys.stderr)
    print(f"[perf record] {history.path}: {written}/{total} session(s) "
          f"appended", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# gate / report
# ----------------------------------------------------------------------
def _analyze(args: argparse.Namespace) -> PerfReport:
    history = PerfHistory(args.history)
    return detect_regressions(
        history, _gate_params(args), metric_prefix=args.metric
    )


def _print_report(report: PerfReport) -> None:
    entries = report.drift.entries
    if entries:
        if len(entries) <= _FULL_TABLE_LIMIT:
            print(report.drift.to_table().render())
        else:
            print(report.drift.to_table(
                report.drift.worst(_FULL_TABLE_LIMIT)
            ).render())
    if report.changepoints:
        print()
        print(report.changepoint_table().render())
    print()
    print(report.summary_line())


def _cmd_gate(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner perf gate",
        description="Judge the newest history session against its own "
                    "past; nonzero exit on regression (the CI hook).",
    )
    _add_history_option(parser)
    _add_gate_options(parser)
    args = parser.parse_args(argv)
    report = _analyze(args)
    _print_report(report)
    return report.exit_code


def _cmd_report(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner perf report",
        description="Render the regression analysis as a markdown "
                    "artifact (deterministic for identical inputs).",
    )
    _add_history_option(parser)
    _add_gate_options(parser)
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the markdown here instead of stdout",
    )
    args = parser.parse_args(argv)
    report = _analyze(args)
    text = report.to_markdown() + _trend_markdown(
        PerfHistory(args.history), args.metric
    )
    if args.out:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
        print(f"[perf report] {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


# ----------------------------------------------------------------------
# trend
# ----------------------------------------------------------------------
def _family_tables(
    history: PerfHistory,
    metric_prefix: Optional[str],
    limit: int,
    width: int,
) -> List[Table]:
    """One sparkline table per metric family, deterministically ordered."""
    from repro.service.watch import sparkline

    series = history.series(metric_prefix)
    families: Dict[str, List[str]] = {}
    for metric in sorted(series):
        families.setdefault(metric.split("/", 1)[0], []).append(metric)
    tables: List[Table] = []
    for family in sorted(families):
        table = Table(
            f"Perf trend: {family}/* "
            f"({len(families[family])} metrics)",
            ["metric", "n", "median", "latest", "delta%", "trend"],
        )
        for metric in families[family][:limit]:
            values = [v for _, v in series[metric]]
            med = statistics.median(values)
            latest = values[-1]
            delta = (latest - med) / med * 100.0 if med else 0.0
            table.add_row([
                metric, len(values), round(med, 4), round(latest, 4),
                round(delta, 1), sparkline(values, width=width),
            ])
        dropped = len(families[family]) - limit
        if dropped > 0:
            table.add_row([f"... {dropped} more (raise --limit)",
                           "", "", "", "", ""])
        tables.append(table)
    return tables


def _trend_markdown(history: PerfHistory,
                    metric_prefix: Optional[str]) -> str:
    tables = _family_tables(history, metric_prefix,
                            limit=15, width=30)
    if not tables:
        return ""
    parts = ["", "## Trend", ""]
    for table in tables:
        parts += ["```", table.render(), "```", ""]
    return "\n".join(parts)


def _cmd_trend(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner perf trend",
        description="Sparkline tables of every metric family's "
                    "trajectory.",
    )
    _add_history_option(parser)
    parser.add_argument(
        "--metric", metavar="PREFIX", default=None,
        help="restrict to metric paths starting with PREFIX",
    )
    parser.add_argument(
        "--limit", type=int, default=25, metavar="N",
        help="max metrics shown per family (default: 25)",
    )
    parser.add_argument(
        "--width", type=int, default=30, metavar="N",
        help="sparkline width in samples (default: 30)",
    )
    args = parser.parse_args(argv)
    history = PerfHistory(args.history)
    tables = _family_tables(history, args.metric, args.limit,
                            args.width)
    if not tables:
        print(f"[perf trend] {history.path}: no sessions recorded",
              file=sys.stderr)
        return 0
    sessions = len(history.sessions())
    print(f"perf history {history.path} — {sessions} session(s)")
    for table in tables:
        print()
        print(table.render())
    return 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _cmd_diff(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner perf diff",
        description="Aligned per-span self-time diff of two telemetry "
                    "traces; ranks what got slower.",
    )
    parser.add_argument("trace_a", help="baseline telemetry JSONL trace")
    parser.add_argument("trace_b", help="candidate telemetry JSONL trace")
    parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows shown (default: 20)",
    )
    args = parser.parse_args(argv)
    from repro.perfwatch.spandiff import (
        diff_traces,
        slower_spans,
        span_diff_table,
    )

    deltas = diff_traces(args.trace_a, args.trace_b)
    table = span_diff_table(
        deltas,
        label_a=pathlib.Path(args.trace_a).name,
        label_b=pathlib.Path(args.trace_b).name,
        n=args.top,
    )
    print(table.render())
    slower = slower_spans(deltas, n=3)
    if slower:
        worst = ", ".join(
            f"{d.name} (+{d.d_self:.6f}s self)" for d in slower
        )
        print(f"\nslower: {worst}")
    else:
        print("\nslower: nothing — candidate is no slower anywhere")
    return 0


_PERF_SUBCOMMANDS = {
    "record": _cmd_record,
    "gate": _cmd_gate,
    "report": _cmd_report,
    "trend": _cmd_trend,
    "diff": _cmd_diff,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        names = "|".join(sorted(_PERF_SUBCOMMANDS))
        print(f"usage: python -m repro.experiments.runner perf "
              f"{{{names}}} ...\n\n{__doc__}")
        return 0 if argv else 2
    if argv[0] not in _PERF_SUBCOMMANDS:
        print(f"perf: unknown subcommand {argv[0]!r} "
              f"(expected one of {sorted(_PERF_SUBCOMMANDS)})",
              file=sys.stderr)
        return 2
    return _PERF_SUBCOMMANDS[argv[0]](argv[1:])
