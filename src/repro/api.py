"""Typed experiment API: the one request/response encoding.

Every way of asking this library for an experiment — the Python entry
point (:func:`repro.experiments.run_experiment`), the CLI runner, the
HTTP service (:mod:`repro.service`), and the run registry's provenance
records — speaks the same two dataclasses:

- :class:`ExperimentRequest` — *what to run*: an experiment id, a
  :class:`~repro.common.config.SimScale`, and a whitelisted set of
  runtime-config overrides.  Requests carry an explicit
  ``schema_version`` and are content-keyed
  (:meth:`ExperimentRequest.content_key`) exactly like artifact-cache
  entries, so "the same request" means the same thing to the service's
  coalescing map, the response cache, and a human diffing records.
- :class:`ExperimentResponse` — *what happened*: status, flattened
  numeric metrics (the registry encoding), the rendered payload, and
  provenance.  :meth:`ExperimentResponse.to_json` is canonical
  (sorted keys, fixed separators) so byte equality is response
  equality — the service's warm path serves stored bytes verbatim.

Breaking changes to either shape bump :data:`SCHEMA_VERSION`; decoders
refuse versions they do not understand rather than misparse.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Optional

from repro.common.config import SimScale

#: Bump when the wire shape of requests/responses changes incompatibly.
SCHEMA_VERSION = 1

#: RuntimeConfig fields a request may override, with the type each value
#: must coerce to.  Deliberately excludes *placement* knobs
#: (``cache_dir``, ``registry_dir``, ``trace``): where a service persists
#: its stores is the operator's decision, never the remote caller's.
OVERRIDABLE_CONFIG = {
    "trace_budget": int,
    "trace_chunk_rows": int,
}


def _check_schema_version(body: Mapping[str, Any], what: str) -> None:
    version = body.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{what} schema_version {version!r}, expected {SCHEMA_VERSION}"
        )


def validate_overrides(config: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize request config overrides against the whitelist.

    Returns a plain dict with values coerced to the declared types;
    raises ``ValueError`` on unknown keys or uncoercible values.
    """
    out: Dict[str, Any] = {}
    for key in sorted(config):
        if key not in OVERRIDABLE_CONFIG:
            raise ValueError(
                f"config override {key!r} is not allowed; "
                f"overridable: {sorted(OVERRIDABLE_CONFIG)}"
            )
        value = config[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config override {key!r} must be a number")
        out[key] = OVERRIDABLE_CONFIG[key](value)
    return out


@dataclasses.dataclass(frozen=True)
class ExperimentRequest:
    """One typed ask: run ``experiment`` at ``scale`` under overrides.

    The ``config`` mapping is validated against
    :data:`OVERRIDABLE_CONFIG` at construction, so a request object
    that exists is a request that can be attempted.  Experiment-id
    existence is checked at dispatch (the id registry lives in
    :mod:`repro.experiments`; keeping it out of here avoids an import
    cycle and lets clients build requests for newer servers).
    """

    experiment: str
    scale: SimScale = SimScale.SMALL
    config: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not isinstance(self.experiment, str) or not self.experiment:
            raise ValueError("experiment must be a non-empty string")
        if not isinstance(self.scale, SimScale):
            object.__setattr__(self, "scale", SimScale(self.scale))
        object.__setattr__(self, "config", validate_overrides(self.config))
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"request schema_version {self.schema_version!r}, "
                f"expected {SCHEMA_VERSION}"
            )

    # -- encoding --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "scale": self.scale.value,
            "config": {k: self.config[k] for k in sorted(self.config)},
        }

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "ExperimentRequest":
        if not isinstance(body, Mapping):
            raise ValueError("request body must be a JSON object")
        _check_schema_version(body, "request")
        unknown = set(body) - {"schema_version", "experiment", "scale",
                               "config"}
        if unknown:
            raise ValueError(f"request has unknown fields {sorted(unknown)}")
        if "experiment" not in body:
            raise ValueError("request is missing 'experiment'")
        try:
            scale = SimScale(body.get("scale", SimScale.SMALL.value))
        except ValueError:
            raise ValueError(
                f"unknown scale {body.get('scale')!r}; "
                f"known: {[s.value for s in SimScale]}"
            )
        return cls(
            experiment=body["experiment"],
            scale=scale,
            config=body.get("config") or {},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRequest":
        try:
            body = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"request is not valid JSON: {exc}")
        return cls.from_dict(body)

    def content_key(self) -> str:
        """Stable identity of this ask (16 hex digits).

        Two requests with the same key are interchangeable: same
        experiment, scale, overrides, and schema.  This is the unit of
        request coalescing and of the service's warm-response cache.
        """
        digest = hashlib.sha256(self.to_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    def describe(self) -> str:
        extra = f" +{len(self.config)} overrides" if self.config else ""
        return f"{self.experiment}@{self.scale.value}{extra}"


@dataclasses.dataclass
class ExperimentResponse:
    """One typed outcome, encodable byte-for-byte reproducibly.

    status      -- ``"ok"`` or ``"error"``.
    metrics     -- flattened numeric results, the exact encoding the
                   run registry and drift gate use
                   (:func:`repro.fidelity.registry.flatten_metrics`).
    rendered    -- the human payload (`ExperimentResult.render()`):
                   tables, dendrograms, the Markdown report.
    request_key -- :meth:`ExperimentRequest.content_key` of the ask.
    run_id      -- registry record id when one was persisted.
    duration_s  -- wall seconds of the *execution* that produced this
                   payload (a warm cache hit returns the original
                   cost, which is the honest provenance).
    error       -- diagnostic for ``status == "error"``.
    """

    experiment: str
    scale: SimScale
    status: str = "ok"
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    title: str = ""
    rendered: str = ""
    request_key: str = ""
    run_id: str = ""
    duration_s: float = 0.0
    error: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not isinstance(self.scale, SimScale):
            self.scale = SimScale(self.scale)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # -- encoding --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "scale": self.scale.value,
            "status": self.status,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "title": self.title,
            "rendered": self.rendered,
            "request_key": self.request_key,
            "run_id": self.run_id,
            "duration_s": self.duration_s,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "ExperimentResponse":
        if not isinstance(body, Mapping):
            raise ValueError("response body must be a JSON object")
        _check_schema_version(body, "response")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(body) - fields
        if unknown:
            raise ValueError(f"response has unknown fields {sorted(unknown)}")
        return cls(**{k: body[k] for k in body})

    def to_json(self) -> str:
        """Canonical encoding: byte equality == response equality."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResponse":
        return cls.from_dict(json.loads(text))

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_result(cls, result: Any,
                    request: ExperimentRequest) -> "ExperimentResponse":
        """Wrap an :class:`~repro.experiments.ExperimentResult`."""
        from repro.fidelity.registry import flatten_metrics

        record_path = result.metadata.get("registry_record", "")
        run_id = ""
        if record_path:
            # "<kind>-<run_id>.json" — the registry's file contract.
            stem = record_path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            run_id = stem.rsplit("-", 1)[-1]
        return cls(
            experiment=result.experiment,
            scale=request.scale,
            status="ok",
            metrics=flatten_metrics(result.experiment, result.data),
            title=result.title,
            rendered=result.render(),
            request_key=request.content_key(),
            run_id=run_id,
            duration_s=float(result.metadata.get("duration_s", 0.0)),
        )

    @classmethod
    def failure(cls, request: ExperimentRequest,
                error: str) -> "ExperimentResponse":
        return cls(
            experiment=request.experiment,
            scale=request.scale,
            status="error",
            request_key=request.content_key(),
            error=error,
        )


def execute(request: ExperimentRequest) -> ExperimentResponse:
    """Run one request to completion, never raising for driver failures.

    The service's worker processes call this: an experiment that blows
    up must become a well-formed ``status="error"`` response (HTTP 500
    at the edge), not a stack trace that kills a pool worker.
    Programming errors in the *request* (unknown id) surface the same
    way; request *shape* errors never reach here —
    :class:`ExperimentRequest` cannot be constructed malformed.
    """
    from repro.experiments import run_experiment

    try:
        result = run_experiment(request)
    except Exception as exc:  # noqa: BLE001 — edge of the system
        return ExperimentResponse.failure(
            request, f"{type(exc).__name__}: {exc}"
        )
    return ExperimentResponse.from_result(result, request)
