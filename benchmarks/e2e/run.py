"""End-to-end reproduction benchmark.

Runs the reproduction CLI the way a user does —
``python -m repro.experiments.runner run <ids> --scale S --registry off``
— one fresh subprocess at a time, times it from outside, and checks every
rendered table against pinned digests (``reference.json``).  Every number
is host time; the simulators' own statistics are deterministic, so they
serve as the correctness check and are never reported as metrics.

Usage (from the repository root)::

    python benchmarks/e2e/run.py                         # every workload
    python benchmarks/e2e/run.py --workload gpu-tiny-cold --reps 5
    python benchmarks/e2e/run.py --traced                # per-layer trace
    python benchmarks/e2e/run.py --experiments table1 fig3 --scale tiny
    python benchmarks/e2e/run.py --update-reference      # re-pin digests

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (also written to
``--out``).  Each pass is appended to ``history.jsonl`` as a
``repro.perfwatch`` session, so ``runner perf gate|trend|report
--history benchmarks/e2e/history.jsonl`` work on it.  See README.md for
the workloads, the metrics and how to claim a gain.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Working space for caches, child output and bytecode; gitignored.
WORK = ROOT / ".e2e_work"
REFERENCE = HERE / "reference.json"
HISTORY = HERE / "history.jsonl"
SPEC = ROOT / "BENCHMARK.json"

# The workloads are TINY slices of the suite, one per substrate and cache
# state, because a full `run all` does not fit the time budget of a run
# (see README.md, "Workloads").  table3 would add 2-3 s per cold run.
GPU_EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "pb", "ext_divergence",
    "ext_concurrent", "ext_gpusharing", "ext_scheduler", "ext_parsec_ports",
)
#: The cheapest experiment that executes and characterizes CPU workloads
#: (8 of them) and re-executes them outside the artifact cache.
CPU_EXPERIMENTS = ("ext_sharing_size",)


@dataclasses.dataclass(frozen=True)
class Workload:
    experiments: Tuple[str, ...]
    scale: str
    warm: bool  # run against a cache filled by one cold pass in set-up


WORKLOADS: Dict[str, Workload] = {
    "gpu-tiny-cold": Workload(GPU_EXPERIMENTS, "tiny", warm=False),
    "gpu-tiny-warm": Workload(GPU_EXPERIMENTS, "tiny", warm=True),
    "cpu-tiny-cold": Workload(CPU_EXPERIMENTS, "tiny", warm=False),
    "cpu-tiny-warm": Workload(CPU_EXPERIMENTS, "tiny", warm=True),
}

#: Scales pinned in reference.json by --update-reference.
REFERENCE_SCALES = ("tiny", "small", "medium")
#: Set-ups per run; setup_s is their median.
SETUPS = 3
#: A time-boxed run still takes at least this many repetitions.
MIN_REPS = 3
#: A child that outlives this is killed and its experiments fail.
CHILD_TIMEOUT_S = 150.0
#: The same for the full-suite runs of --update-reference.
REFERENCE_TIMEOUT_S = 3600.0
#: Absolute regression floors for --baseline, in each metric's unit: a
#: change smaller than the floor never counts, whatever its share.
FLOORS = {"wall_s": 0.1, "peak_rss_mb": 16.0, "setup_s": 0.2}

_MARKER = re.compile(r"^\[(?P<id>\w+) completed in [0-9.]+s\]$")


# ----------------------------------------------------------------------
# Output checking
# ----------------------------------------------------------------------
def split_blocks(stdout: str) -> Dict[str, str]:
    """Experiment id -> its rendered block, marker line removed.

    The runner prints each experiment's tables followed by a
    ``[<id> completed in <N>s]`` line; the block is everything since the
    previous marker, without the blank lines around it.  Output after
    the last marker (a crash, a partial block) belongs to no experiment.
    """
    blocks: Dict[str, str] = {}
    pending: List[str] = []
    for line in stdout.splitlines():
        match = _MARKER.match(line)
        if match:
            blocks[match.group("id")] = "\n".join(pending).strip("\n")
            pending = []
        else:
            pending.append(line)
    return blocks


def digest(block: str) -> str:
    return hashlib.sha256(block.encode("utf-8")).hexdigest()


def check_blocks(blocks: Dict[str, str], ids: Sequence[str],
                 expected: Dict[str, str]) -> Dict[str, str]:
    """Experiment id -> failure reason, for every id that failed."""
    failures = {}
    for exp in ids:
        if exp not in blocks:
            failures[exp] = "no completion marker (raised or never ran)"
        elif exp not in expected:
            failures[exp] = "no reference digest (run --update-reference)"
        elif digest(blocks[exp]) != expected[exp]:
            failures[exp] = "rendered block differs from the reference"
    return failures


# ----------------------------------------------------------------------
# Regression bounds
# ----------------------------------------------------------------------
def regressed(base: float, new: float, bound: float, floor: float) -> bool:
    """True when ``new`` is worse (higher) than ``base`` beyond the bound.

    The allowance is ``bound`` as a share of ``base``, but never less
    than ``floor`` in the metric's own unit.
    """
    return new > base + max(bound * base, floor)


def compare(base: dict, new: dict, bounds: Dict[str, float]) -> List[str]:
    """Regressions of result ``new`` against result ``base``.

    Both are the JSON objects this script prints.  Metrics are matched
    by key; a key ``<workload>/<metric>`` takes the bound of ``<metric>``.
    ``fail_ratio`` (failed / attempted) may not rise at all.
    """
    out = []
    for key, entry in sorted(new["metrics"].items()):
        name = key.rsplit("/", 1)[-1]
        if name not in bounds or key not in base["metrics"]:
            continue
        old, cur = base["metrics"][key]["value"], entry["value"]
        if regressed(old, cur, bounds[name], FLOORS.get(name, 0.0)):
            out.append(f"{key}: {old:.6g} -> {cur:.6g} "
                       f"(bound +{bounds[name]:.0%}, floor "
                       f"{FLOORS.get(name, 0.0):g} {entry['unit']})")
    ratio = [r["failed"] / r["attempted"] for r in (base, new)]
    if ratio[1] > ratio[0]:
        out.append(f"fail_ratio: {ratio[0]:.6g} -> {ratio[1]:.6g}")
    return out


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env(cache: Path) -> Dict[str, str]:
    """Hermetic environment: no inherited REPRO_* or PYTHON* settings.

    Only the harness's own cache directory is passed; bytecode goes to
    the working area, and numeric libraries use one thread so at most
    one core is busy.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update({
        "REPRO_CACHE_DIR": str(cache),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


@dataclasses.dataclass
class Sample:
    """One child process: its cost and what it printed."""

    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def spawn(argv: List[str], cache: Path, cwd: Path,
          timeout: float = CHILD_TIMEOUT_S) -> Sample:
    """Run one child to completion; wall time and peak RSS from wait4."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(cache),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def runner_argv(ids: Sequence[str], scale: str) -> List[str]:
    return ["run", *ids, "--scale", scale, "--registry", "off"]


def artifact_names(cache: Path) -> List[str]:
    if not cache.is_dir():
        return []
    return sorted(p.name for p in cache.iterdir()
                  if p.is_file() and not p.name.startswith("."))


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


#: Imports the program and prints its provenance.  The config fingerprint
#: is taken with the per-run cache path blanked, so it names the settings.
_PROBE = (
    "import json, platform, numpy, repro.experiments.runner\n"
    "from repro.common.config import override\n"
    "from repro.perfwatch.store import environment_tags\n"
    "with override(cache_dir=''):\n"
    "    tags = environment_tags()\n"
    "print(json.dumps({'tags': tags, 'python': platform.python_version(), "
    "'numpy': numpy.__version__}))\n"
)


class WorkDirs:
    """Numbered directories under one per-invocation root in WORK."""

    def __init__(self) -> None:
        self.root = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self._n = 0

    def new(self, label: str) -> Path:
        self._n += 1
        path = self.root / f"{self._n:03d}-{label}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Outcome:
    """Everything measured for one workload in one invocation."""

    name: str
    scale: str
    setups: List[float]
    samples: List[Sample]
    attempted: int = 0  # experiment runs checked against the reference
    failed: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    env: dict = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)

    def e2e(self) -> Dict[str, Tuple[float, int]]:
        """metric -> (value, sample count), tracing off."""
        walls = [s.wall_s for s in self.samples]
        rss = [s.rss_mb for s in self.samples]
        return {
            "wall_s": (min(walls), len(walls)),
            "peak_rss_mb": (statistics.median(rss), len(rss)),
            "setup_s": (statistics.median(self.setups), len(self.setups)),
            "fail_ratio": (self.failed / max(self.attempted, 1),
                           self.attempted),
        }


class Bench:
    def __init__(self, dirs: WorkDirs, reference: Dict[str, Dict[str, str]]):
        self.dirs = dirs
        self.reference = reference

    def _check(self, outcome: Outcome, sample: Sample, ids: Sequence[str],
               what: str, problem: Optional[str] = None) -> None:
        """Count the run's experiments; ``problem`` fails all of them."""
        failures = check_blocks(split_blocks(sample.stdout), ids,
                                self.reference.get(outcome.scale, {}))
        if problem:
            failures = {exp: failures.get(exp, problem) for exp in ids}
        outcome.attempted += len(ids)
        outcome.failed += len(failures)
        if failures and sample.code:
            tail = (sample.stderr.strip().splitlines() or [""])[-1]
            outcome.failures.append(f"{what}: exit {sample.code}: {tail}")
        for exp, why in sorted(failures.items()):
            outcome.failures.append(f"{what}: {exp}: {why}")

    def run_cli(self, ids: Sequence[str], scale: str, cache: Path,
                timeout: float = CHILD_TIMEOUT_S) -> Sample:
        argv = [sys.executable, "-m", "repro.experiments.runner",
                *runner_argv(ids, scale)]
        return spawn(argv, cache, self.dirs.new("cli"), timeout)

    def probe(self, cache: Path) -> dict:
        """Import the program in a child; its environment tags and versions."""
        probe = spawn([sys.executable, "-c", _PROBE], cache,
                      self.dirs.new("probe"))
        if probe.code:
            raise SystemExit(f"e2e: the program does not import:\n"
                             f"{probe.stderr.strip()}")
        return json.loads(probe.stdout.strip().splitlines()[-1])

    def setup(self, wl: Workload, ids: Sequence[str], scale: str,
              outcome: Outcome) -> Path:
        """Build the start state once; returns its cache directory.

        Set-up imports the program once in a child (which also proves
        the tree imports and warms the bytecode cache) and, for a warm
        workload, fills the cache with one cold pass of the same command.
        """
        t0 = time.perf_counter()
        cache = self.dirs.new("cache")
        outcome.env = self.probe(cache)
        if wl.warm:
            fill = self.run_cli(ids, scale, cache)
            self._check(outcome, fill, ids, "set-up fill")
        outcome.setups.append(time.perf_counter() - t0)
        return cache

    def measure(self, name: str, wl: Workload, ids: Sequence[str],
                scale: str, seconds: float, reps: Optional[int],
                traced: bool) -> Outcome:
        outcome = Outcome(name, scale, [], [])
        starts = [self.setup(wl, ids, scale, outcome) for _ in range(SETUPS)]
        start = starts[0]
        for extra in starts[1:]:
            shutil.rmtree(extra, ignore_errors=True)
        listing: Optional[List[str]] = None
        t0 = time.perf_counter()
        while True:
            cache = start if wl.warm else self.dirs.new("cache")
            sample = self.run_cli(ids, scale, cache)
            self._check(outcome, sample, ids, f"rep {len(outcome.samples) + 1}")
            outcome.samples.append(sample)
            if listing is None:
                listing = artifact_names(cache)
            done = len(outcome.samples)
            if reps is not None:
                if done >= reps:
                    break
            elif done >= MIN_REPS and time.perf_counter() - t0 >= seconds:
                break
        if traced:
            self.trace(wl, ids, scale, start, listing or [], outcome)
        return outcome

    def trace(self, wl: Workload, ids: Sequence[str], scale: str,
              start: Path, listing: List[str], outcome: Outcome) -> None:
        """One traced repetition from the same start state."""
        cache = start if wl.warm else self.dirs.new("cache")
        cwd = self.dirs.new("traced")
        layers_json = cwd / "layers.json"
        argv = [sys.executable, str(HERE / "layertrace.py"),
                "--out", str(layers_json),
                "--spawned-at", repr(time.time()),
                "--", *runner_argv(ids, scale)]
        sample = spawn(argv, cache, cwd)
        problem = None
        if artifact_names(cache) != listing:
            problem = "artifact file names differ from the untraced run"
        elif not layers_json.is_file():
            problem = "no layer table written"
        self._check(outcome, sample, ids, "traced rep", problem)
        if not layers_json.is_file():
            return
        raw = json.loads(layers_json.read_text(encoding="utf-8"))["metrics"]
        outcome.layers = layer_metrics(
            raw, sample.wall_s,
            statistics.median(s.wall_s for s in outcome.samples),
            dir_mb(cache),
        )


def layer_metrics(raw: Dict[str, float], traced_wall: float,
                  untraced_wall: float, disk_mb: float) -> Dict[str, float]:
    """The child's layer table plus the metrics only the parent can see."""
    from layertrace import LAYERS

    out = dict(raw)
    attributed = sum(raw[f"{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        out[f"{layer}.share"] = raw[f"{layer}.self_s"] / traced_wall
    out["process.traced_wall_s"] = traced_wall
    out["process.unattributed_s"] = traced_wall - attributed
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    out["artifacts.disk_mb"] = disk_mb
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def units(spec: dict) -> Dict[str, str]:
    table = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table.setdefault("fail_ratio", "1")
    return table


#: Units of the printed layer metrics that BENCHMARK.json leaves out.
_EXTRA_UNITS = {"self_s": "s", "ns_per_ref": "ns", "us_per_block": "us",
                "calls": "count", "share": "1"}


def result_json(outcomes: List[Outcome], traced: bool, spec: dict) -> dict:
    """The result object whose shape BENCHMARK.json fixes."""
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    unit = units(spec)
    metrics = {}
    for o in outcomes:
        values = o.layers if traced else {k: v for k, (v, _) in o.e2e().items()}
        prefix = "" if len(outcomes) == 1 else f"{o.name}/"
        for name in names:
            if name in values:
                metrics[prefix + name] = {"value": values[name],
                                          "unit": unit[name]}
    failed = sum(o.failed for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": metrics,
    }


def print_outcome(o: Outcome, spec: dict) -> None:
    unit = units(spec)
    print(f"== {o.name} (scale {o.scale}; python {o.env.get('python')}, "
          f"numpy {o.env.get('numpy')}; tags {o.env.get('tags')})")
    for name, (value, n) in o.e2e().items():
        print(f"e2e    {o.name:<16} {name:<34} {value:>14.6f} "
              f"{unit[name]:<6} n={n}")
    for name in sorted(o.layers):
        print(f"layer  {o.name:<16} {name:<34} {o.layers[name]:>14.6f} "
              f"{unit.get(name) or _EXTRA_UNITS[name.rsplit('.', 1)[1]]:<6} n=1")
    if o.layers:
        glue = (o.layers["experiments.self_s"]
                + o.layers["process.unattributed_s"])
        print(f"layer  {o.name:<16} experiments.self_s + unattributed_s = "
              f"{glue / o.layers['process.traced_wall_s']:.1%} of traced wall")
    for failure in o.failures:
        print(f"FAIL   {o.name:<16} {failure}")


def append_history(path: Path, outcomes: List[Outcome], seed: int) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.perfwatch.store import PerfHistory, SessionRecord

    metrics: Dict[str, float] = {}
    for o in outcomes:
        for name, (value, _) in o.e2e().items():
            metrics[f"e2e/{o.name}/{name}"] = value
        for name, value in o.layers.items():
            metrics[f"layer/{o.name}/{name}"] = value
    first = outcomes[0]
    record = SessionRecord(
        source="e2e",
        metrics=metrics,
        scale=",".join(sorted({o.scale for o in outcomes})),
        meta={
            "seed": seed,
            "workloads": [o.name for o in outcomes],
            "reps": {o.name: len(o.samples) for o in outcomes},
            "setups": SETUPS,
            "python": first.env.get("python"),
            "numpy": first.env.get("numpy"),
        },
    ).stamp(first.env.get("tags"))
    PerfHistory(path).append(record)


# ----------------------------------------------------------------------
# Reference digests
# ----------------------------------------------------------------------
def load_reference() -> Dict[str, Dict[str, str]]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["scales"]


def update_reference(bench: Bench, scales: Sequence[str]) -> int:
    """Re-pin the digest of every experiment at each scale from this tree.

    Tiny and small pin the whole suite (``run all``); medium pins the
    experiments the workloads use, which is what a held-out check at
    that scale runs.
    """
    data = (json.loads(REFERENCE.read_text(encoding="utf-8"))
            if REFERENCE.is_file() else {"scales": {}})
    used = sorted({e for wl in WORKLOADS.values() for e in wl.experiments})
    env = bench.probe(bench.dirs.new("cache"))
    data["python"], data["numpy"] = env["python"], env["numpy"]
    for scale in scales:
        ids = used if scale == "medium" else ["all"]
        sample = bench.run_cli(ids, scale, bench.dirs.new("cache"),
                               timeout=REFERENCE_TIMEOUT_S)
        blocks = split_blocks(sample.stdout)
        if sample.code or not blocks:
            print(sample.stderr, file=sys.stderr)
            print(f"e2e: run at scale {scale} failed (exit {sample.code})",
                  file=sys.stderr)
            return 1
        data["scales"][scale] = {e: digest(b) for e, b in sorted(blocks.items())}
        print(f"[reference] {scale}: {len(blocks)} experiments "
              f"in {sample.wall_s:.1f}s", file=sys.stderr)
    data["note"] = (
        "sha256 of each experiment's rendered block (the runner's "
        "'[id completed in Ns]' line removed), generated from this tree "
        "by run.py --update-reference with the Python and numpy versions "
        "below.  They pin this reproduction's own output, not hardware "
        "measurements: the model is unvalidated."
    )
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="End-to-end reproduction benchmark (see README.md).")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--experiments", nargs="+", metavar="ID",
                   help="run an ad-hoc cold list of experiment ids instead "
                        "of a named workload")
    p.add_argument("--scale", choices=REFERENCE_SCALES,
                   help="override the workloads' scale (the held-out check)")
    p.add_argument("--seed", type=int, default=0,
                   help="shuffles the order in which a run's experiments "
                        "are given to the runner (default: 0)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure repetitions for this long, at least "
                        f"{MIN_REPS} (default: 10)")
    p.add_argument("--reps", type=int,
                   help="exactly this many repetitions (overrides --seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add one traced repetition and report the "
                        "per-layer metrics")
    p.add_argument("--traced", action="store_const", const=1, dest="trace",
                   help="same as --trace 1")
    p.add_argument("--out", metavar="FILE",
                   help="also write the result object here")
    p.add_argument("--baseline", metavar="FILE",
                   help="a result object from an earlier pass; exit nonzero "
                        "if this pass regresses beyond the bounds")
    p.add_argument("--history", default=str(HISTORY), metavar="PATH",
                   help="perf history to append this pass to ('off' "
                        "disables; default: benchmarks/e2e/history.jsonl)")
    p.add_argument("--update-reference", action="store_true",
                   help="regenerate reference.json from this tree and exit")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    dirs = WorkDirs()
    try:
        bench = Bench(dirs, load_reference())
        if args.update_reference:
            return update_reference(bench, [args.scale] if args.scale
                                    else REFERENCE_SCALES)
        if args.experiments:
            jobs = {"adhoc": Workload(tuple(args.experiments),
                                      args.scale or "tiny", warm=False)}
        else:
            jobs = {n: WORKLOADS[n] for n in (args.workload or WORKLOADS)}
        outcomes = []
        for name, wl in jobs.items():
            ids = list(wl.experiments)
            random.Random(args.seed).shuffle(ids)
            outcome = bench.measure(name, wl, ids, args.scale or wl.scale,
                                    args.seconds, args.reps, bool(args.trace))
            print_outcome(outcome, spec)
            outcomes.append(outcome)
    finally:
        dirs.close()
    if args.history.lower() != "off":
        append_history(Path(args.history), outcomes, args.seed)
    result = result_json(outcomes, bool(args.trace), spec)
    code = 0 if result["correct"] else 1
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for line in compare(base, result, bounds):
            print(f"REGRESSED {line}")
            code = 1
    text = json.dumps(result, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return code


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(HERE))
    sys.pycache_prefix = str(WORK / "pycache")
    sys.exit(main())
