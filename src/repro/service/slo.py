"""Service-level objectives, checked by the fidelity drift machinery.

An SLO is a ceiling on a ``service/*`` metric: "warm p99 under 50ms",
"error rate under 1%".  Objectives are declared as a compact spec
string (CLI-friendly)::

    warm_p99_ms=50,error_rate=0.01,cold_p50_ms=30000

Short names alias the flattened metric paths the observability layer
already emits (:meth:`ServiceObservability.service_metrics`), so the
same numbers feed ``--slo`` ceilings and the persisted ``service`` run
record, which is also the ``--save-baseline`` / ``--baseline`` format.

:func:`check_slo` returns the fidelity layer's own
:class:`~repro.fidelity.drift.DriftReport` — one
:class:`~repro.fidelity.drift.MetricDrift` entry per objective, status
``pass`` when the measured value is at or under the ceiling, ``fail``
above it, ``missing`` when the service never observed the metric (a
gate on a family that saw no traffic is a broken gate, and fails
loudly).  CI consumes ``report.exit_code`` exactly as it does for
golden-table drift.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.fidelity.drift import DriftReport, MetricDrift

#: Short objective names -> flattened service metric paths.  Anything
#: not listed here may still be targeted by its full ``service/...``
#: path in the spec string.
SLO_ALIASES: Dict[str, str] = {
    "warm_p50_ms": "service/warm_p50_ms",
    "warm_p95_ms": "service/warm_p95_ms",
    "warm_p99_ms": "service/warm_p99_ms",
    "warm_max_ms": "service/warm_max_ms",
    "cold_p50_ms": "service/cold_p50_ms",
    "cold_p95_ms": "service/cold_p95_ms",
    "cold_p99_ms": "service/cold_p99_ms",
    "cold_max_ms": "service/cold_max_ms",
    "coalesced_p99_ms": "service/coalesced_p99_ms",
    "error_rate": "service/error_rate",
}


@dataclasses.dataclass(frozen=True)
class Objective:
    """One declared ceiling on a service metric."""

    metric: str     # full "service/..." path
    ceiling: float  # inclusive upper bound

    @property
    def short(self) -> str:
        return self.metric.split("/", 1)[-1]


def parse_slo_spec(spec: str) -> Tuple[Objective, ...]:
    """``"warm_p99_ms=50,error_rate=0.01"`` -> objectives.

    Accepts short aliases or full ``service/...`` metric paths;
    separators are commas.  Raises ``ValueError`` on malformed entries,
    unknown short names, or non-numeric ceilings — a typo'd gate must
    not silently gate nothing.
    """
    objectives = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, raw = chunk.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"SLO entry {chunk!r} is not name=ceiling")
        metric = SLO_ALIASES.get(name, name if "/" in name else None)
        if metric is None:
            known = ", ".join(sorted(SLO_ALIASES))
            raise ValueError(
                f"unknown SLO name {name!r} (known: {known}; or use a "
                f"full service/... metric path)"
            )
        try:
            ceiling = float(raw)
        except ValueError:
            raise ValueError(
                f"SLO ceiling {raw!r} for {name!r} is not a number"
            ) from None
        objectives.append(Objective(metric=metric, ceiling=ceiling))
    if not objectives:
        raise ValueError(f"SLO spec {spec!r} declares no objectives")
    return tuple(objectives)


def check_slo(
    metrics: Dict[str, float], objectives: Tuple[Objective, ...]
) -> DriftReport:
    """Measured service metrics vs declared ceilings -> DriftReport.

    An objective passes when ``actual <= ceiling`` (the ceiling itself
    is in-budget: "p99 under 50ms" declared as 50 passes at exactly
    50).  ``error`` is the overshoot; ``budget`` the ceiling, so
    ``ratio`` reads as "overshoot as a fraction of the objective".
    """
    entries = []
    for obj in objectives:
        actual = metrics.get(obj.metric)
        if actual is None:
            entries.append(MetricDrift(
                metric=obj.metric, expected=obj.ceiling, actual=None,
                error=0.0, budget=obj.ceiling or 1.0, status="missing",
            ))
            continue
        over = max(0.0, actual - obj.ceiling)
        entries.append(MetricDrift(
            metric=obj.metric, expected=obj.ceiling, actual=actual,
            error=over, budget=obj.ceiling if obj.ceiling else 1.0,
            status="pass" if over == 0.0 else "fail",
        ))
    return DriftReport(
        baseline="slo", scale="service", entries=entries,
        experiments=["service"], skipped=[],
    )

