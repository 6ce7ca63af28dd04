"""Experiment drivers: one module per paper table/figure.

Every driver exposes ``run_<id>(scale) -> ExperimentResult``; drivers
are looked up by id (``fig1``, ``table3``, ``pb``, ``report``, ...) and
invoked through the one typed entry point, :func:`run_experiment`, which
wraps the driver in a telemetry span and fills in the result's
``title``/``metadata``/``span_id``.  The CLI is
``python -m repro.experiments.runner <id>``.

:class:`ExperimentResult` is the single return type of the whole
experiment layer: rendered tables (what the paper printed/plotted), an
optional non-tabular ``text`` payload (dendrograms, the Markdown
report), and the raw ``data`` series for tests and benchmarks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from typing import Any, Callable, Dict, List, Optional

from repro import telemetry
from repro.api import ExperimentRequest
from repro.common.config import config, override
from repro.common.tables import Table


@dataclasses.dataclass
class ExperimentResult:
    """Typed outcome of one experiment run.

    experiment -- the experiment id (``fig1``, ``table3``, ``report``).
    tables     -- rendered :class:`~repro.common.tables.Table` objects.
    data       -- raw data series keyed however the driver documents.
    title      -- human title; defaults to the first table's title.
    text       -- non-tabular rendered payload appended by
                  :meth:`render` (fig6's dendrogram, the report's
                  Markdown body).
    metadata   -- run provenance: scale, wall-clock duration, counts.
    span_id    -- id of the ``experiment`` telemetry span that covered
                  the driver call (None when telemetry was off).
    """

    experiment: str
    tables: List[Table]
    data: dict
    title: str = ""
    text: str = ""
    metadata: Dict[str, Any] = dataclasses.field(default_factory=dict)
    span_id: Optional[str] = None

    @property
    def id(self) -> str:
        """Alias of ``experiment`` for the typed-API vocabulary."""
        return self.experiment

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """Every table row as a dict, tagged with its table's title."""
        return [
            dict(zip(t.columns, row), _table=t.title)
            for t in self.tables
            for row in t.rows
        ]

    def render(self) -> str:
        parts = [t.render() for t in self.tables]
        if self.text:
            parts.append(self.text)
        return "\n\n".join(parts)


_MODULES = {
    "table1": "tables_static",
    "table4": "tables_static",
    "table5": "tables_static",
    "fig1": "fig1_ipc",
    "fig2": "fig2_memmix",
    "fig3": "fig3_occupancy",
    "fig4": "fig4_channels",
    "table3": "table3_versions",
    "fig5": "fig5_fermi",
    "pb": "pb_sensitivity",
    "fig6": "fig6_dendrogram",
    "fig7": "fig789_pca",
    "fig8": "fig789_pca",
    "fig9": "fig789_pca",
    "fig10": "fig10_missrates",
    "fig11": "fig1112_footprints",
    "fig12": "fig1112_footprints",
    # Extensions: the paper's Section VII future-work items.
    "ext_divergence": "extensions",
    "ext_concurrent": "extensions",
    "ext_coverage": "extensions",
    "ext_crossarch": "extensions",
    "ext_coherence": "extensions",
    "ext_gpusharing": "extensions",
    "ext_scheduler": "extensions",
    "ext_workingsets": "extensions2",
    "ext_sharing_size": "extensions2",
    "ext_prediction": "extensions2",
    "ext_parsec_ports": "extensions2",
}

ALL_EXPERIMENTS = tuple(_MODULES)


def get_driver(experiment: str) -> Callable:
    """The ``run(scale)`` callable for an experiment id."""
    if experiment == "report":
        # The full Markdown characterization; not part of
        # ALL_EXPERIMENTS (it re-renders what the others measure) but a
        # first-class driver for the typed entry point and the CLI.
        from repro.core.report import run_report

        return run_report
    if experiment not in _MODULES:
        raise KeyError(
            f"unknown experiment {experiment!r}; known: {sorted(_MODULES)}"
        )
    mod = importlib.import_module(f"repro.experiments.{_MODULES[experiment]}")
    return getattr(mod, f"run_{experiment}")


def run_experiment(request: ExperimentRequest, *stray) -> ExperimentResult:
    """Run one experiment under a telemetry span; the typed entry point.

    It takes an :class:`~repro.api.ExperimentRequest` — the same
    encoding the CLI, the HTTP service, and the run registry speak — and
    applies its validated config overrides around the driver call::

        run_experiment(ExperimentRequest("fig1", SimScale.SMALL))

    Anything else — a second positional argument, or the old
    ``run_experiment("fig1", scale)`` spelling — raises ``TypeError``.

    Every consumer of the experiment layer (the CLI runner, the
    benchmark harness, the report, the service) goes through here, so
    every result arrives with a uniform title, provenance metadata
    (including the request encoding itself), and — when telemetry is
    active — the id of the span covering the driver call.
    """
    if stray or not isinstance(request, ExperimentRequest):
        raise TypeError(
            "run_experiment takes one ExperimentRequest; the scale "
            "travels inside ExperimentRequest"
        )
    experiment, req_scale = request.experiment, request.scale
    driver = get_driver(experiment)
    ctx = (
        override(**request.config) if request.config
        else contextlib.nullcontext()
    )
    t0 = time.perf_counter()
    with ctx:
        with telemetry.span(
            "experiment", experiment=experiment, scale=req_scale.value
        ) as sp:
            result = driver(req_scale)
            # Timestamped cumulative totals per experiment boundary:
            # gives JSONL traces a counter time series (rendered as
            # stepped "C" tracks by the Chrome exporter) at one sample
            # per experiment.
            telemetry.sample_counters()
    if not isinstance(result, ExperimentResult):
        raise TypeError(
            f"driver for {experiment!r} returned {type(result).__name__}, "
            "expected ExperimentResult"
        )
    if not result.title:
        result.title = result.tables[0].title if result.tables else experiment
    result.metadata.setdefault("scale", req_scale.value)
    result.metadata.setdefault(
        "duration_s", round(time.perf_counter() - t0, 3)
    )
    result.metadata.setdefault("n_tables", len(result.tables))
    result.metadata.setdefault("request", request.to_dict())
    result.span_id = sp.id
    registry_dir = config().registry_dir
    if registry_dir:
        _record_invocation(result, request, registry_dir)
    return result


def _record_invocation(
    result: ExperimentResult, req: ExperimentRequest, registry_dir: str
) -> None:
    """Persist one invocation's metrics to the run registry.

    Best-effort observability: a read-only filesystem must not turn a
    successful experiment into a failure, so registry errors are
    reported via the result's metadata rather than raised.
    """
    from repro.fidelity import RunRegistry, record_from_results

    record = record_from_results(
        [result],
        req.scale.value,
        kind="experiment",
        counters=telemetry.counters(),
        # The registry record carries the request in the same typed
        # encoding the service wire format uses (repro.api).
        meta={"span_id": result.span_id, "request": req.to_dict()},
    )
    try:
        path = RunRegistry(registry_dir).save(record)
    except OSError as exc:
        result.metadata["registry_error"] = str(exc)
    else:
        result.metadata["registry_record"] = str(path)
