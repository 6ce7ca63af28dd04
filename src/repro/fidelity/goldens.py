"""Golden references: pinned reproduction values for the paper figures.

The paper reports native-scale hardware numbers; this reproduction runs
scaled inputs on deterministic simulators, so the *golden* values are
the pinned outputs of the reference implementation at each supported
scale — the quantity that must hold still for the reproduction of
Figs. 1/3/10 to stay trustworthy (see EXPERIMENTS.md for the
paper-vs-measured comparison itself).  The table lives in
:mod:`repro.fidelity.goldens_data`, generated by :func:`build_goldens`;
regenerate it after an *intentional* model change with::

    PYTHONPATH=src python -m repro.fidelity.goldens

Simulation is seeded and deterministic, so a healthy tree matches the
goldens exactly; the tolerances in :mod:`repro.fidelity.drift` exist to
classify drift when it appears, not to absorb expected noise.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.common.config import SimScale
from repro.fidelity.registry import flatten_metrics

#: Experiments covered by the golden table: the per-workload IPC of
#: Fig. 1, the warp-occupancy buckets of Fig. 3, and the 4 MB miss
#: rates of Fig. 10.
GOLDEN_EXPERIMENTS: Tuple[str, ...] = ("fig1", "fig3", "fig10")


def build_goldens(scale: SimScale) -> Dict[str, float]:
    """Run the golden experiments and return their flattened metrics."""
    from repro.api import ExperimentRequest
    from repro.experiments import run_experiment

    metrics: Dict[str, float] = {}
    for experiment in GOLDEN_EXPERIMENTS:
        result = run_experiment(ExperimentRequest(experiment, scale))
        metrics.update(flatten_metrics(experiment, result.data))
    return metrics


def golden_scales() -> Tuple[str, ...]:
    """Scale values the pinned golden table covers."""
    from repro.fidelity.goldens_data import GOLDENS

    return tuple(sorted(GOLDENS))


def paper_goldens(scale: Union[SimScale, str]) -> Dict[str, float]:
    """The pinned golden metrics for a scale (copy; safe to mutate)."""
    from repro.fidelity.goldens_data import GOLDENS

    key = scale.value if isinstance(scale, SimScale) else str(scale)
    if key not in GOLDENS:
        raise ValueError(
            f"no paper goldens pinned for scale {key!r}; "
            f"available: {', '.join(golden_scales())}"
        )
    return dict(GOLDENS[key])


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    """Rewrite goldens_data.py from the current tree (all golden scales)."""
    import pathlib
    import pprint

    table = {
        value: build_goldens(SimScale(value)) for value in golden_scales()
    }
    body = pprint.pformat(table, width=79, sort_dicts=True)
    path = pathlib.Path(__file__).with_name("goldens_data.py")
    path.write_text(
        '"""Pinned golden metrics (generated — do not hand-edit).\n\n'
        "Regenerate with ``python -m repro.fidelity.goldens`` after an\n"
        "intentional model change; review the diff like any other code.\n"
        '"""\n\n'
        "GOLDENS = " + body + "\n",
        encoding="utf-8",
    )
    print(f"wrote {path} ({sum(len(v) for v in table.values())} metrics)")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
