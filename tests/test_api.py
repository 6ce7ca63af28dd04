"""The typed experiment API (repro.api): encoding, keys, shim, CLI.

The request/response dataclasses are the single encoding shared by the
service wire format, ``run_experiment()``, registry records, and the
report layer — so these tests pin the encoding itself (canonical
bytes, content keys, schema versioning) and every integration seam.
"""

import json
import warnings

import pytest

from repro.api import (
    OVERRIDABLE_CONFIG,
    SCHEMA_VERSION,
    ExperimentRequest,
    ExperimentResponse,
    execute,
    validate_overrides,
)
from repro.common.config import SimScale


class TestExperimentRequest:
    def test_roundtrip_dict_and_json(self):
        req = ExperimentRequest("fig1", SimScale.TINY,
                                config={"gpu_batch": False})
        assert ExperimentRequest.from_dict(req.to_dict()) == req
        assert ExperimentRequest.from_json(req.to_json()) == req

    def test_scale_coerces_from_string(self):
        assert ExperimentRequest("fig1", "tiny").scale is SimScale.TINY

    def test_content_key_is_stable_and_order_insensitive(self):
        a = ExperimentRequest(
            "fig1", SimScale.SMALL,
            config={"gpu_batch": True, "gpu_batch_lanes": 64},
        )
        b = ExperimentRequest(
            "fig1", SimScale.SMALL,
            config={"gpu_batch_lanes": 64, "gpu_batch": True},
        )
        assert a.content_key() == b.content_key()
        assert len(a.content_key()) == 16

    def test_content_key_separates_asks(self):
        keys = {
            ExperimentRequest("fig1", SimScale.TINY).content_key(),
            ExperimentRequest("fig1", SimScale.SMALL).content_key(),
            ExperimentRequest("fig2", SimScale.TINY).content_key(),
            ExperimentRequest(
                "fig1", SimScale.TINY, config={"gpu_batch": False}
            ).content_key(),
        }
        assert len(keys) == 4

    def test_rejects_unknown_override(self):
        with pytest.raises(ValueError, match="cache_dir"):
            ExperimentRequest("fig1", config={"cache_dir": "/elsewhere"})
        # The error lists every key that may be overridden.
        allowed = ["gpu_batch", "gpu_batch_lanes", "trace_budget",
                   "trace_chunk_rows"]
        with pytest.raises(ValueError) as err:
            ExperimentRequest("fig1", config={"gpu_plan": False})
        assert str(err.value) == (
            f"config override 'gpu_plan' is not allowed; overridable: {allowed}"
        )

    def test_rejects_badly_typed_override(self):
        with pytest.raises(ValueError, match="gpu_batch"):
            ExperimentRequest("fig1", config={"gpu_batch": "yes"})
        with pytest.raises(ValueError, match="gpu_batch_lanes"):
            ExperimentRequest("fig1", config={"gpu_batch_lanes": True})

    def test_rejects_wrong_schema_version(self):
        body = ExperimentRequest("fig1").to_dict()
        body["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentRequest.from_dict(body)

    def test_rejects_unknown_fields_and_missing_experiment(self):
        with pytest.raises(ValueError, match="unknown fields"):
            ExperimentRequest.from_dict(
                {"schema_version": SCHEMA_VERSION, "experiment": "fig1",
                 "surprise": 1}
            )
        with pytest.raises(ValueError, match="experiment"):
            ExperimentRequest.from_dict({"schema_version": SCHEMA_VERSION})

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="scale"):
            ExperimentRequest.from_dict(
                {"schema_version": SCHEMA_VERSION, "experiment": "fig1",
                 "scale": "galactic"}
            )

    def test_validate_overrides_normalizes_numbers(self):
        out = validate_overrides({"gpu_batch_lanes": 64.0})
        assert out == {"gpu_batch_lanes": 64}
        assert set(OVERRIDABLE_CONFIG) >= set(out)


class TestExperimentResponse:
    def test_canonical_json_is_deterministic(self):
        resp = ExperimentResponse(
            "fig1", SimScale.TINY, metrics={"b": 2.0, "a": 1.0}
        )
        text = resp.to_json()
        assert text == ExperimentResponse.from_json(text).to_json()
        # sorted keys at every level
        body = json.loads(text)
        assert list(body["metrics"]) == ["a", "b"]

    def test_rejects_wrong_schema_version(self):
        body = ExperimentResponse("fig1", SimScale.TINY).to_dict()
        body["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentResponse.from_dict(body)

    def test_execute_wraps_failures(self):
        resp = execute(ExperimentRequest("fig99", SimScale.TINY))
        assert not resp.ok
        assert resp.status == "error"
        assert "fig99" in resp.error

    def test_execute_produces_registry_encoding(self):
        from repro.fidelity.registry import flatten_metrics

        req = ExperimentRequest("table1", SimScale.TINY)
        resp = execute(req)
        assert resp.ok
        assert resp.request_key == req.content_key()
        assert resp.rendered.startswith("Table I")
        # Metrics use the exact flattening the registry/drift gate use.
        from repro.experiments import run_experiment

        result = run_experiment(ExperimentRequest("table1", SimScale.TINY))
        assert resp.metrics == flatten_metrics("table1", result.data)


class TestRunExperimentRequestForm:
    def test_request_object_is_the_canonical_spelling(self):
        from repro.experiments import ExperimentResult, run_experiment

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = run_experiment(ExperimentRequest("table1", SimScale.TINY))
        assert isinstance(res, ExperimentResult)
        assert res.metadata["request"] == (
            ExperimentRequest("table1", SimScale.TINY).to_dict()
        )

    def test_request_plus_scale_is_an_error(self):
        from repro.experiments import run_experiment

        with pytest.raises(TypeError, match="inside ExperimentRequest"):
            run_experiment(
                ExperimentRequest("table1", SimScale.TINY), SimScale.TINY
            )
        # The old ("id", scale) spelling is no longer accepted either.
        with pytest.raises(TypeError, match="inside ExperimentRequest"):
            run_experiment("table1", SimScale.TINY)

    def test_config_override_applies_during_driver(self):
        from repro.common.config import config
        from repro.experiments import ExperimentResult

        seen = {}

        def probe(scale):
            seen["lanes"] = config().gpu_batch_lanes
            return ExperimentResult("table1", [], {})

        from repro import experiments as exp_mod

        real = exp_mod.get_driver
        exp_mod.get_driver = lambda e: probe
        try:
            exp_mod.run_experiment(
                ExperimentRequest(
                    "table1", SimScale.TINY,
                    config={"gpu_batch_lanes": 1234},
                )
            )
        finally:
            exp_mod.get_driver = real
        assert seen["lanes"] == 1234

    def test_registry_record_carries_request_encoding(self, tmp_path):
        from repro.common.config import override
        from repro.fidelity import RunRegistry
        from repro.experiments import run_experiment

        req = ExperimentRequest("table1", SimScale.TINY)
        with override(registry_dir=str(tmp_path)):
            run_experiment(req)
        records = RunRegistry(tmp_path).records(kind="experiment")
        assert len(records) == 1
        assert records[0].meta["request"] == req.to_dict()


class TestReportLayerEncoding:
    def test_render_response_ok_and_error(self):
        from repro.core.report import render_response

        ok = ExperimentResponse(
            "fig1", SimScale.TINY, rendered="BODY",
            request_key="abc", run_id="r1", duration_s=1.25,
        )
        text = render_response(ok)
        assert "BODY" in text
        assert "fig1@tiny" in text and "run=r1" in text
        bad = ExperimentResponse.failure(
            ExperimentRequest("fig1", SimScale.TINY), "boom"
        )
        assert "ERROR: boom" in render_response(bad)


class TestRunnerSubcommands:
    def test_flat_invocation_aliases_to_run(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--scale", "tiny", "--registry", "off"]) == 0
        flat = capsys.readouterr().out
        assert main(["run", "table1", "--scale", "tiny",
                     "--registry", "off"]) == 0
        sub = capsys.readouterr().out
        assert "Table I" in flat
        assert flat == sub

    def test_unknown_experiment_still_raises_keyerror(self):
        from repro.experiments.runner import main

        with pytest.raises(KeyError):
            main(["run", "fig99", "--scale", "tiny"])

    def test_serve_help_exists(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "queue-limit" in capsys.readouterr().out

    def test_bench_help_exists(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        assert "--clients" in capsys.readouterr().out

    def test_goldens_help_exists(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exc:
            main(["goldens", "--help"])
        assert exc.value.code == 0
