"""The one write path of the file stores.

The artifact cache, the run registry and the service's exemplar writer
all publish through :func:`repro.common.locks.publish` and prune through
:func:`repro.common.locks.evict_lru`.  Covered here: a write that fails
mid-way (a full disk) in each store, registry scans beside files that
are not records, and finished runs that outlive a failed record save.
"""

import errno
import io
import json
import os
import time

import pytest

from repro.common import locks
from repro.common.config import SimScale
from repro.core import artifacts
from repro.fidelity import registry as registry_mod
from repro.fidelity.registry import RunRecord, RunRegistry
from repro.gpusim.trace import KernelTrace
from repro.perfwatch.ingest import from_registry
from repro.service import observability
from repro.service.observability import ServiceObservability

RID = "r000001-0123456789ab"
SPANS = [
    {"ev": "span_open", "id": "s1", "parent": None, "name": "work"},
    {"ev": "span_close", "id": "s1", "name": "work", "dur_s": 1.0},
]


def _enospc(tmp):
    """A write that dies part-way: some bytes land, then the disk is full."""
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("{partial")
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def full_disk(monkeypatch):
    """Make one module's ``publish`` run the failing write instead."""

    def install(module):
        def publish(path, write_fn):
            return locks.publish(path, _enospc)

        monkeypatch.setattr(module, "publish", publish)

    return install


def _litter(root):
    """Temp files and lockfiles left anywhere under a store root."""
    return sorted(p.name for p in root.rglob("*")
                  if ".tmp." in p.name or p.suffix == ".lock")


class TestPublishFaults:
    """A failed write leaves no temp file and no held lock, and the
    previous payload stays readable."""

    def test_artifact_put(self, tmp_path, full_disk):
        cache = artifacts.ArtifactCache(tmp_path)
        key = "ab" + "0" * 10
        cache.put_gpu("app", SimScale.TINY, key, KernelTrace("before"))
        full_disk(artifacts)
        with pytest.raises(OSError) as exc:
            cache.put_gpu("app", SimScale.TINY, key, KernelTrace("after"))
        assert exc.value.errno == errno.ENOSPC
        assert _litter(tmp_path) == []
        assert cache.get_gpu("app", SimScale.TINY, key).app_name == "before"

    def test_registry_save(self, tmp_path, full_disk):
        registry = RunRegistry(tmp_path)
        record = RunRecord(kind="run", scale="tiny", experiments=["fig1"],
                           metrics={"fig1/x": 1.0})
        path = registry.save(record)
        before = path.read_bytes()
        full_disk(registry_mod)
        with pytest.raises(OSError) as exc:
            registry.save(record)
        assert exc.value.errno == errno.ENOSPC
        assert _litter(tmp_path) == []
        assert path.read_bytes() == before
        assert registry.load(record.run_id) == record

    def test_exemplar_writer_returns_none(self, tmp_path, full_disk):
        obs = ServiceObservability(slow_request_s=0.0,
                                   registry_dir=str(tmp_path))
        path = obs.maybe_exemplar(RID, "fig1", "tiny", "cold", 200, 1.0,
                                  SPANS)
        before = path.read_bytes()
        full_disk(observability)
        assert obs.maybe_exemplar(RID, "fig1", "tiny", "cold", 200, 2.0,
                                  SPANS) is None
        assert obs.exemplars_written == 1
        assert _litter(tmp_path) == []
        assert path.read_bytes() == before
        assert json.loads(before)["latency_s"] == 1.0


def test_evict_lru_keeps_the_newest_and_skips_inflight(tmp_path):
    old = time.time() - 3600
    for i in range(3):
        path = tmp_path / f"blob-{i}.bin"
        path.write_bytes(b"x" * 100)
        os.utime(path, (old + i, old + i))
    inflight = tmp_path / "blob-9.tmp.abc123.bin"
    inflight.write_bytes(b"x" * 100)
    # A byte budget below one file still keeps the newest entry.
    assert locks.evict_lru(tmp_path, ("blob-*.bin",), 0, 1, "prune") == 2
    assert sorted(p.name for p in tmp_path.glob("blob-*")) == [
        "blob-2.bin", inflight.name]


class TestRegistryScans:
    def test_exemplar_beside_a_record(self, tmp_path):
        registry = RunRegistry(tmp_path)
        record = RunRecord(
            kind="service", scale="service", experiments=["service"],
            metrics={"service/requests": 2.0, "service/warm_p50_ms": 1.5},
        ).stamp()
        registry.save(record)
        obs = ServiceObservability(slow_request_s=0.0,
                                   registry_dir=str(tmp_path))
        exemplar = obs.maybe_exemplar(RID, "fig1", "tiny", "cold", 200,
                                      1.0, SPANS, run_id=record.run_id)
        assert exemplar.parent == tmp_path
        # Other files that share the directory: a Chrome timeline and
        # a record write still in flight.
        (tmp_path / f"gpuprof-{record.run_id}.chrome.json").write_text("[]")
        inflight = tmp_path / f"run-{record.run_id}.tmp.abc123.json"
        inflight.write_text("{partial")

        assert registry.records() == [record]
        assert registry.latest() == record
        [session] = from_registry(tmp_path)
        assert session.source == "service"
        assert session.metrics["service/requests"] == 2.0

        # Prune ranks and removes records only.
        old = time.time() - 3600
        for i in range(2):
            path = registry.save(RunRecord(
                kind="run", scale="tiny", experiments=["fig1"],
                metrics={"fig1/x": float(i)},
            ))
            os.utime(path, (old + i, old + i))
        os.utime(exemplar, (old - 10, old - 10))
        assert registry.prune(1) == 2
        assert registry.records() == [record]
        assert exemplar.is_file() and inflight.is_file()


class TestFinishedRunSurvivesFullDisk:
    @pytest.fixture
    def failing_save(self, monkeypatch):
        def save(self, record):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(RunRegistry, "save", save)

    def test_runner_keeps_exit_code(self, tmp_path, capsys, failing_save):
        from repro.experiments.runner import main

        assert main(["run", "table1", "--scale", "tiny",
                     "--registry", str(tmp_path)]) == 0
        out = capsys.readouterr()
        assert "Table I" in out.out
        assert "[registry] error: " in out.err
        assert "No space left on device" in out.err

    def test_service_gate_keeps_exit_code(self, tmp_path, failing_save):
        from repro.service import ExperimentService, gate_service_run

        service = ExperimentService(cache_dir="", registry_dir=str(tmp_path))
        service.stats.requests = service.stats.warm = 1
        out = io.StringIO()
        assert gate_service_run(service, out=out) == 0
        assert "[registry] error: " in out.getvalue()


class TestBaselineWrites:
    """``run --save-baseline`` and ``serve --save-baseline`` write
    through one helper: the parent directory is created, the publish is
    atomic, and a failed write is reported without changing the exit
    code."""

    def _run(self, target):
        from repro.experiments.runner import main

        return main(["run", "table1", "--scale", "tiny", "--registry",
                     "off", "--save-baseline", str(target)])

    def test_runner_creates_missing_parent(self, tmp_path, capsys):
        target = tmp_path / "missing" / "base.json"
        assert self._run(target) == 0
        assert "[baseline saved] " in capsys.readouterr().err
        record = RunRecord.from_json(target.read_text(encoding="utf-8"))
        assert record.kind == "run" and "table1" in record.experiments

    def test_runner_full_disk_keeps_exit_code(self, tmp_path, capsys,
                                              full_disk):
        full_disk(registry_mod)
        target = tmp_path / "missing" / "base.json"
        assert self._run(target) == 0
        out = capsys.readouterr()
        assert "Table I" in out.out
        assert "[baseline] error: " in out.err
        assert "No space left on device" in out.err
        assert not target.exists()
        assert _litter(tmp_path) == []

    def _gate(self, tmp_path, target):
        from repro.service import ExperimentService, gate_service_run

        service = ExperimentService(cache_dir="", registry_dir="")
        service.stats.requests = service.stats.warm = 1
        out = io.StringIO()
        code = gate_service_run(service, save_baseline=str(target), out=out)
        return code, out.getvalue()

    def test_service_creates_missing_parent(self, tmp_path):
        target = tmp_path / "missing" / "base.json"
        code, err = self._gate(tmp_path, target)
        assert code == 0
        assert "[baseline saved] " in err
        record = RunRecord.from_json(target.read_text(encoding="utf-8"))
        assert record.kind == "service"

    def test_service_full_disk_keeps_exit_code(self, tmp_path, full_disk):
        full_disk(registry_mod)
        target = tmp_path / "missing" / "base.json"
        code, err = self._gate(tmp_path, target)
        assert code == 0
        assert "[baseline] error: " in err
        assert not target.exists()
        assert _litter(tmp_path) == []
