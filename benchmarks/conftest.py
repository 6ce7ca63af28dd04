"""Benchmark-harness configuration.

Benchmarks run the paper's experiments at SMALL scale (override with
``REPRO_BENCH_SCALE=tiny|small|medium``) and write each experiment's
rendered tables to ``benchmarks/results/<id>.txt`` so the regenerated
paper data survives the run.

With ``--update-bench`` the session is appended to the perf history,
``benchmarks/perf-history.jsonl``: per-test wall clock, peak RSS, and
the count of skipped and failed benchmarks, tagged with the git SHA,
host and config fingerprint.  ``runner perf gate|trend|report`` read
that trajectory (docs/PERF.md).  Exploratory runs without the flag
leave the history untouched.

The recording logic lives in :mod:`repro.perfwatch.bench` — this file
is only the pytest wiring.
"""

import os
import pathlib

import pytest

from repro.common.config import SimScale
from repro.perfwatch.bench import BenchRecorder
from repro.perfwatch.store import PerfHistory

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
HISTORY_PATH = pathlib.Path(__file__).parent / "perf-history.jsonl"

_recorder = BenchRecorder(
    scale=os.environ.get("REPRO_BENCH_SCALE", "small")
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-bench", action="store_true", default=False,
        help="append this session's timings, outcomes and peak RSS to "
             "benchmarks/perf-history.jsonl",
    )


def pytest_runtest_logreport(report):
    _recorder.observe(report)


def pytest_sessionfinish(session, exitstatus):
    if _recorder.empty or not session.config.getoption("--update-bench"):
        return
    PerfHistory(HISTORY_PATH).append(_recorder.session())


@pytest.fixture(scope="session")
def scale() -> SimScale:
    return SimScale(os.environ.get("REPRO_BENCH_SCALE", "small"))


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(result):
        # ExperimentResult.render() includes any non-tabular payload
        # (fig6's dendrogram travels in result.text).
        text = result.render()
        (RESULTS_DIR / f"{result.experiment}.txt").write_text(text + "\n")
        print("\n" + text)
        return result

    return _save
