"""Simulated-GPU profiler: counter sets, stall attribution, drift gating.

The exactness contract (ISSUE 5): per launch, the stall-attribution
components sum *bit-exactly* to ``LaunchTiming.body_cycles``, and
``cycles`` is exactly ``launch_overhead + body`` in the model's own
float order — across every Rodinia GPU workload at TINY, under both the
cacheless and the Fermi cache-ladder configurations, and identically on
the block-batched engine and its per-block oracle.  Around that core:
tie-break determinism of the ``bound`` classification, CounterSet
invariants, rollups/hot-kernel tables, the ``gpuprof`` drift family,
and the ``runner --gpu-profile`` CLI surface.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SimScale
from repro.fidelity.drift import check_drift, tolerance_for
from repro.gpusim import GPU, GPUConfig, TimingModel
from repro.gpusim.profiler import (
    STALL_COMPONENTS,
    attribute_stalls,
    cycles_per_transaction,
    machine_balance,
    suite_metrics,
    suite_table,
)
from repro.gpusim.timing import TimingResult, classify_bound
from repro.gpusim.trace import KernelTrace
from repro.workloads import base as wl
from tests.gpu_oracle import scalar_oracle

wl.load_all()
GPU_WORKLOADS = sorted(n for n, d in wl.REGISTRY.items() if d.has_gpu)

CONFIGS = [GPUConfig.sim_default(), GPUConfig.gtx480_shared_bias()]


def _run(name: str) -> KernelTrace:
    defn = wl.get(name)
    gpu = GPU(app_name=name)
    defn.gpu_fn(gpu, SimScale.TINY)
    return gpu.trace


@pytest.fixture(scope="module")
def traces():
    return {name: _run(name) for name in GPU_WORKLOADS}


# ----------------------------------------------------------------------
# attribute_stalls / classify_bound units
# ----------------------------------------------------------------------
nonneg = st.floats(min_value=0.0, max_value=1e12,
                   allow_nan=False, allow_infinity=False)


class TestAttribution:
    @given(issue=nonneg, bw=nonneg, lat=nonneg)
    @settings(max_examples=300, deadline=None)
    def test_sums_bit_exactly_for_any_components(self, issue, bw, lat):
        bound, body, margin = classify_bound(issue, bw, lat)
        out = attribute_stalls(issue, bw, lat, body, bound)
        assert out["issue"] + out["bandwidth"] + out["latency"] == body
        assert set(out) == set(STALL_COMPONENTS)
        assert all(v >= 0.0 for v in out.values())
        assert margin >= 0.0

    def test_zero_body_gives_all_zero(self):
        out = attribute_stalls(0.0, 0.0, 0.0, 0.0, "issue")
        assert out == {"issue": 0.0, "bandwidth": 0.0, "latency": 0.0}

    def test_shares_are_proportional(self):
        out = attribute_stalls(3.0, 1.0, 0.0, 3.0, "issue")
        # demand 4.0, body 3.0: issue gets 3*(3/4), bandwidth 3*(1/4)
        assert out["bandwidth"] == pytest.approx(0.75)
        assert out["latency"] == 0.0
        assert out["issue"] + out["bandwidth"] + out["latency"] == 3.0


class TestClassifyBound:
    def test_documented_tie_precedence(self):
        # issue > latency > bandwidth on exact ties
        assert classify_bound(5.0, 5.0, 5.0)[0] == "issue"
        assert classify_bound(1.0, 5.0, 5.0)[0] == "latency"
        assert classify_bound(1.0, 5.0, 2.0)[0] == "bandwidth"
        assert classify_bound(5.0, 5.0, 1.0)[0] == "issue"
        assert classify_bound(1.0, 2.0, 5.0)[0] == "latency"

    def test_all_zero_is_issue_with_zero_margin(self):
        assert classify_bound(0.0, 0.0, 0.0) == ("issue", 0.0, 0.0)

    def test_margin_is_gap_to_runner_up(self):
        bound, body, margin = classify_bound(3.0, 1.0, 2.0)
        assert (bound, body, margin) == ("issue", 3.0, 1.0)
        assert classify_bound(4.0, 4.0, 1.0)[2] == 0.0

    @given(issue=nonneg, bw=nonneg, lat=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_body_is_max_and_bound_names_it(self, issue, bw, lat):
        bound, body, _ = classify_bound(issue, bw, lat)
        assert body == max(issue, bw, lat)
        assert {"issue": issue, "bandwidth": bw, "latency": lat}[bound] == body


# ----------------------------------------------------------------------
# The exactness contract over every Rodinia GPU workload
# ----------------------------------------------------------------------
class TestWorkloadExactness:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
    def test_stall_sums_bit_exact_everywhere(self, traces, cfg):
        model = TimingModel(cfg)
        for name, trace in traces.items():
            prof = model.profile(trace)
            timed = model.time(trace)
            # Same pricing path: totals agree bit-for-bit.
            assert prof.total_cycles == timed.cycles, name
            assert len(prof.counters) == len(timed.launches)
            for cs, lt in zip(prof.counters, timed.launches):
                loc = f"{name}/{cs.kernel_name}[{cs.launch_index}]"
                total = (cs.stalls["issue"] + cs.stalls["bandwidth"]
                         + cs.stalls["latency"])
                assert total == cs.body_cycles, loc
                assert cs.body_cycles == lt.body_cycles, loc
                # cycles - overhead is NOT recomputable in floats; the
                # stored body makes the identity exact.
                assert cs.cycles == cfg.launch_overhead_cycles + cs.body_cycles, loc
                assert cs.cycles == lt.cycles, loc
                assert cs.bound == lt.bound, loc
                assert cs.bound_margin == lt.bound_margin, loc

    def test_bound_matches_classify_bound(self, traces):
        model = TimingModel(GPUConfig.sim_default())
        for trace in traces.values():
            for lt in model.time(trace).launches:
                bound, body, margin = classify_bound(
                    lt.issue_cycles, lt.bandwidth_cycles, lt.latency_cycles
                )
                assert lt.bound == bound
                assert lt.body_cycles == body
                assert lt.bound_margin == margin

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
    def test_counterset_invariants(self, traces, cfg):
        model = TimingModel(cfg)
        for name, trace in traces.items():
            for cs in model.profile(trace).counters:
                loc = f"{name}/{cs.kernel_name}"
                assert cs.dram_bytes == cs.dram_transactions * 64, loc
                assert sum(cs.channel_transactions) == cs.dram_transactions
                assert len(cs.channel_transactions) == cfg.n_mem_channels
                assert cs.dram_transactions <= cs.mem_transactions, loc
                assert 0.0 < cs.coalescing_efficiency <= 1.0, loc
                assert 0 <= cs.l1_hits <= cs.l1_accesses, loc
                assert 0 <= cs.l2_hits <= cs.l2_accesses, loc
                assert cs.waves >= 1 and cs.effective_sms >= 1, loc
                assert cs.resident_warps >= 1, loc
                assert cs.arithmetic_intensity >= 0.0, loc
                assert cs.roofline in ("compute", "bandwidth"), loc
                if not cfg.has_l1 and not cfg.has_l2:
                    assert cs.l1_accesses == cs.l2_accesses == 0, loc
                    assert cs.dram_transactions == cs.mem_transactions, loc

    def test_scalar_and_batched_countersets_identical(self):
        model = TimingModel(GPUConfig.gtx480_shared_bias())
        for name in GPU_WORKLOADS:
            defn = wl.get(name)
            with scalar_oracle():
                scalar = GPU(app_name=name)
                defn.gpu_fn(scalar, SimScale.TINY)
            batched = GPU(app_name=name)
            defn.gpu_fn(batched, SimScale.TINY)
            a = model.profile(scalar.trace)
            b = model.profile(batched.trace)
            assert len(a.counters) == len(b.counters), name
            for x, y in zip(a.counters, b.counters):
                assert x.as_dict() == y.as_dict(), f"{name}/{x.kernel_name}"


# ----------------------------------------------------------------------
# Zero-cycle guards (satellite)
# ----------------------------------------------------------------------
class TestZeroCycleGuards:
    def test_empty_timing_result_returns_zeros(self):
        res = TimingResult(
            config=GPUConfig.sim_default(), launches=[],
            cycles=0.0, thread_insts=0, dram_bytes=0,
        )
        assert res.ipc == 0.0
        assert res.bandwidth_gbs == 0.0
        assert res.bw_utilization == 0.0
        assert res.time_s == 0.0

    def test_empty_trace_profiles_cleanly(self):
        model = TimingModel(GPUConfig.sim_default())
        prof = model.profile(KernelTrace(app_name="ghost"))
        assert prof.counters == []
        assert prof.total_cycles == 0.0
        assert prof.stall_mix() == {c: 0.0 for c in STALL_COMPONENTS}
        assert prof.hot_kernels() == []
        assert prof.roofline() in ("compute", "bandwidth")
        table = suite_table([prof])
        assert len(table.rows) == 1
        json.dumps(prof.metrics(), allow_nan=False)


# ----------------------------------------------------------------------
# Rollups, tables, metrics
# ----------------------------------------------------------------------
class TestRollups:
    @pytest.fixture(scope="class")
    def prof(self, traces):
        model = TimingModel(GPUConfig.sim_default())
        return model.profile(traces["srad"])

    def test_kernel_rollup_sums_launches(self, prof):
        rolls = prof.kernels()
        assert sum(r.launches for r in rolls.values()) == len(prof.counters)
        assert sum(r.cycles for r in rolls.values()) == pytest.approx(
            prof.total_cycles
        )
        for roll in rolls.values():
            total = (roll.stalls["issue"] + roll.stalls["bandwidth"]
                     + roll.stalls["latency"])
            assert total == pytest.approx(roll.body_cycles, rel=1e-12)

    def test_hot_kernels_sorted_by_cycles(self, prof):
        hot = prof.hot_kernels(n=len(prof.kernels()))
        assert [r.cycles for r in hot] == sorted(
            (r.cycles for r in hot), reverse=True
        )
        assert prof.hot_kernels(1)[0].kernel_name == hot[0].kernel_name

    def test_stall_mix_fractions_sum_to_one(self, prof):
        mix = prof.stall_mix()
        assert sum(mix.values()) == pytest.approx(1.0)
        for cs in prof.counters:
            if cs.body_cycles:
                assert sum(cs.stall_mix().values()) == pytest.approx(1.0)

    def test_tables_render(self, prof):
        for table in (prof.kernel_table(), prof.counter_table()):
            text = table.render()
            for roll in prof.kernels().values():
                assert roll.kernel_name in text
        assert "roofline" in prof.kernel_table().render()

    def test_metrics_are_prefixed_finite_json(self, traces):
        model = TimingModel(GPUConfig.sim_default())
        profiles = [model.profile(traces[n]) for n in ("backprop", "nw")]
        merged = suite_metrics(profiles)
        assert all(k.startswith("gpuprof/") for k in merged)
        json.dumps(merged, allow_nan=False)
        assert "gpuprof/backprop/total/cycles" in merged
        assert merged["gpuprof/nw/total/launches"] > 0

    def test_machine_balance_and_tx_cost_positive(self):
        for cfg in CONFIGS:
            assert machine_balance(cfg) > 0.0
            assert cycles_per_transaction(cfg) > 0.0


# ----------------------------------------------------------------------
# Drift family (fidelity wiring)
# ----------------------------------------------------------------------
class TestDriftFamily:
    def test_gpuprof_tolerance_rule(self):
        tol = tolerance_for("gpuprof/srad/srad_k1_v2/cycles")
        assert tol.rel == pytest.approx(0.01)
        assert tol.abs_floor == pytest.approx(1e-6)

    def test_identical_profiles_pass_tampered_fail(self, traces):
        model = TimingModel(GPUConfig.sim_default())
        metrics = model.profile(traces["backprop"]).metrics()
        clean = check_drift(metrics, dict(metrics), scale="tiny")
        assert clean.exit_code == 0
        tampered = {
            k: v * 1.5 if k.endswith("/cycles") else v
            for k, v in metrics.items()
        }
        drift = check_drift(metrics, tampered, scale="tiny")
        assert drift.exit_code != 0
        failing = [m.metric for m in drift.entries if m.status == "fail"]
        assert failing and all(m.startswith("gpuprof/") for m in failing)


# ----------------------------------------------------------------------
# runner --gpu-profile CLI
# ----------------------------------------------------------------------
class TestRunnerCli:
    def test_gpu_profile_end_to_end(self, tmp_path, capsys):
        from repro.experiments import runner

        reg = tmp_path / "reg"
        base = tmp_path / "base.json"
        rc = runner.main([
            "run", "fig1", "--scale", "tiny", "--registry", str(reg),
            "--gpu-profile", "--save-baseline", str(base),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stall attribution" in out
        assert "roofline" in out
        records = [p for p in reg.glob("gpuprof-*.json")
                   if not p.name.endswith(".chrome.json")]
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        assert record["kind"] == "gpuprof"
        assert record["experiments"] == ["gpuprof"]
        assert all(k.startswith("gpuprof/") for k in record["metrics"])
        # The simulated-cycles timeline landed next to the record.
        timelines = list(reg.glob("gpuprof-*.chrome.json"))
        assert len(timelines) == 1
        doc = json.loads(timelines[0].read_text())
        assert doc["otherData"]["clock"].startswith("simulated_cycles")
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        # The run record folded the gpuprof family in for baselining.
        saved = json.loads(base.read_text())
        assert "gpuprof" in saved["experiments"]
        assert any(k.startswith("gpuprof/") for k in saved["metrics"])

    def test_baseline_roundtrip_gates_counters(self, tmp_path, capsys):
        from repro.experiments import runner

        base = tmp_path / "base.json"
        assert runner.main([
            "run", "fig1", "--scale", "tiny", "--registry", "off",
            "--gpu-profile", "--save-baseline", str(base),
        ]) == 0
        assert runner.main([
            "run", "fig1", "--scale", "tiny", "--registry", "off",
            "--gpu-profile", "--baseline", str(base),
        ]) == 0
        record = json.loads(base.read_text())
        for key in record["metrics"]:
            if key.startswith("gpuprof/") and key.endswith("/cycles"):
                record["metrics"][key] *= 2.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(record))
        capsys.readouterr()
        assert runner.main([
            "run", "fig1", "--scale", "tiny", "--registry", "off",
            "--gpu-profile", "--baseline", str(tampered),
        ]) == 1
        assert "fail" in capsys.readouterr().out
