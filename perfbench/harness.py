"""Workloads, correctness checks and metrics of the dispatch benchmark.

Every operation is one call of the public ``dpdispatch.cli.main`` entry point
inside this process. After each call the harness checks the output tree:
exit code, required files, the summary RMSE against a recomputation from
``results.csv``, and the sha256 of the gate files against the first run of
the same seed. A check that fails counts the operation as failed.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import gc
import hashlib
import io
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCENARIOS = BENCH_DIR / "scenarios"
STATE_DIR = ROOT / ".perfbench"

GATE_FILES = ("results.csv", "flags.csv", "summary.csv")
# the files `report` reads back, plus the summary it rewrites
RUN_FILES = ("manifest.json", "results.csv", "pv.csv", "noise.csv",
             "temperatures.csv", "flags.csv", "summary.csv")
SETUP_REPEATS = 15
# The host's speed swings by up to 1.8x for seconds to minutes at a time, so
# times are reported at one reference speed: every PROBE_INTERVAL_S of wall
# time a fixed pure-Python probe runs, its mean time over a command gives the
# host's speed during that command, and the command's own time (probes
# excluded) is scaled to a host on which the probe takes PROBE_REF_S.
# A set-up measurement is scaled by SETUP_PROBES probes on each side of it.
PROBE_INTERVAL_S = 0.02
SETUP_PROBES = 20
PROBE_LOOPS = 4000
PROBE_REF_S = 0.0004
# a tail is at or above the 90th percentile with at least this many samples
# beyond it, so it needs ten times as many samples in all
TAIL_BEYOND = 10


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no package source, wrong import)."""


def import_cli(root: Path = ROOT):
    """Import ``dpdispatch.cli`` from the checkout's own ``src`` tree."""
    src = root / "src"
    if not (src / "dpdispatch" / "cli.py").is_file():
        raise HarnessError(f"no dpdispatch source under {src}")
    sys.path.insert(0, str(src))
    import dpdispatch.cli

    where = Path(dpdispatch.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise HarnessError(f"dpdispatch imported from {where}, not from {src}")
    return dpdispatch.cli


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str | None  # None: the report workload
    scenario: str
    n_buildings: int
    horizon: int | None
    # distinct scenario seeds a run cycles through; it runs each at least once,
    # even past --seconds
    seeds_per_run: int

    def simulate_argv(self, seed: int, out: Path) -> list[str]:
        argv = ["simulate", "--config", str(SCENARIOS / self.scenario), "--out", str(out),
                "--seed", str(seed), "--solver", self.solver or "greedy",
                "--n-buildings", str(self.n_buildings)]
        if self.horizon is not None:
            argv += ["--horizon", str(self.horizon)]
        return argv


# Why each workload exists is in BENCHMARK.json and README.md. exact_bnb pools
# five seeds because one 4-building scenario's tracking error is not steady
# across seeds.
GREEDY_FLEET = Workload("greedy_fleet", "greedy", "greedy_fleet.yaml", 1000, None, 1)
EXACT_BNB = Workload("exact_bnb", "exact", "exact_bnb.yaml", 4, 5, 5)
REPORT_REPLAY = Workload("report_replay", None, "greedy_fleet.yaml", 1000, None, 1)
# smallest peak memory first, so a combined run's high-water marks stay per workload
WORKLOADS = {w.name: w for w in (EXACT_BNB, GREEDY_FLEET, REPORT_REPLAY)}


def run_seeds(seed: int, count: int) -> list[int]:
    """The run seed first, then independent seeds derived from it."""
    extra = np.random.SeedSequence(seed).generate_state(count - 1) if count > 1 else []
    return [seed] + [int(s) for s in extra]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_summary(out: Path) -> dict[str, str]:
    with (out / "summary.csv").open(newline="") as fh:
        return next(csv.DictReader(fh))


def recomputed_rmse(out: Path) -> float:
    with (out / "results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    residual = np.array([float(r["agg_kw"]) - float(r["ref_kw"]) for r in rows])
    return float(np.sqrt(np.mean(residual**2)))


def tree_files(out: Path) -> dict[str, tuple[int, int]]:
    """Relative path -> (size, mtime_ns) for every file under out."""
    return {
        str(p.relative_to(out)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(out.rglob("*")) if p.is_file()
    }


@dataclass
class Op:
    """One timed cli call and what the checks found."""

    workload: str
    seed: int
    seconds: float
    rc: int | None
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    step_seconds: list[float] = field(default_factory=list)  # reference speed
    norm_seconds: float = 0.0  # the command's own time at reference speed
    speed: float = 1.0  # mean probe time over PROBE_REF_S; above 1 is slower
    rmse_kw: float | None = None
    violations: int | None = None
    steps: int = 0  # closed-loop steps, from summary.csv
    building_steps: int = 0
    output_files: int = 0
    output_bytes: int = 0
    counts: dict[str, int] = field(default_factory=dict)


@contextlib.contextmanager
def step_clock(sink: list[float]):
    """Record the start time of each closed-loop step.

    The closed loop fetches its solver from ``dispatch.SOLVERS`` once per run
    and calls it once per step, so wrapping the table entries gives one clock
    read per step and nothing else.
    """
    solvers = sys.modules["dpdispatch.dispatch"].SOLVERS
    saved = dict(solvers)

    def clocked(fn):
        def call(*args, **kwargs):
            sink.append(perf_counter())
            return fn(*args, **kwargs)
        return call

    for key, fn in saved.items():
        solvers[key] = clocked(fn)
    try:
        yield
    finally:
        solvers.update(saved)


def probe() -> float:
    """A fixed amount of pure-Python float work, the same in every version."""
    t, acc = 25.0, 0.0
    for i in range(PROBE_LOOPS):
        t = 0.92 * t + 2.4 - 0.9 * (i & 1)
        acc += t if t > 24.0 else -t
    return acc


def timed_probe(sink: list[tuple[float, float]]) -> None:
    start = perf_counter()
    probe()
    sink.append((start, perf_counter()))


@contextlib.contextmanager
def speed_probe(sink: list[tuple[float, float]]):
    """Record (start, end) of a probe before, every PROBE_INTERVAL_S during and after the block."""
    timed_probe(sink)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: timed_probe(sink))
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        timed_probe(sink)


@dataclass
class Timing:
    """One cli.main call: wall seconds and the same at reference speed."""

    seconds: float
    norm_seconds: float
    speed: float
    step_seconds: list[float]  # reference speed


def host_speed(probes: list[tuple[float, float]]) -> float:
    """How many times slower than reference speed the probes ran."""
    return statistics.fmean(b - a for a, b in probes) / PROBE_REF_S


def normalize(start: float, end: float, marks: list[float],
              probes: list[tuple[float, float]]) -> Timing:
    """Take probe time out of the call and its steps and scale both to reference speed."""
    speed = host_speed(probes)
    bounds = [start] + marks + [end]
    own = [b - a for a, b in zip(bounds, bounds[1:])]
    for a, b in probes:
        if start <= a < end:
            own[bisect.bisect_right(bounds, a) - 1] -= b - a
    # the steps are the spans between successive solver calls
    steps = [s / speed for s in own[1:-1]] if len(marks) > 1 else []
    return Timing(end - start, sum(own) / speed, speed, steps)


def call_cli(cli, argv: list[str]) -> tuple[Timing, int | None, str]:
    """Time one cli.main call: (timing, exit code, captured text)."""
    text = io.StringIO()
    marks: list[float] = []
    probes: list[tuple[float, float]] = []
    gc.collect()
    rc = None
    with (contextlib.redirect_stdout(text), contextlib.redirect_stderr(text),
          step_clock(marks), speed_probe(probes)):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # the run goes on; the op counts as failed
            traceback.print_exc(file=text)
        except SystemExit as exc:  # argparse rejects its argv this way
            rc = exc.code if isinstance(exc.code, int) else 1
        end = perf_counter()
    return normalize(start, end, marks, probes), rc, text.getvalue()


def check_tree(op: Op, out: Path, first_digests: dict[int, dict[str, str]], text: str,
               reference_summary: bytes | None = None) -> None:
    """Fill op.problems, digests and quality numbers from the output tree."""
    if op.rc != 0:
        op.problems.append(f"exit code {op.rc}: {text.strip()[-500:]}")
        return
    missing = [f for f in RUN_FILES if not (out / f).is_file()]
    if missing:
        op.problems.append(f"missing output files: {', '.join(missing)}")
        return
    try:
        summary = read_summary(out)
        op.rmse_kw = float(summary["tracking_rmse_kw"])
        op.violations = int(summary["comfort_violations"])
        op.steps = int(summary["steps"])
        again = recomputed_rmse(out)
    except (KeyError, ValueError, StopIteration) as exc:
        op.problems.append(f"unreadable summary.csv or results.csv: {exc!r}")
        return
    if not math.isclose(op.rmse_kw, again, rel_tol=1e-12, abs_tol=0.0):
        op.problems.append(f"summary tracking_rmse_kw {op.rmse_kw!r} != {again!r} from results.csv")
    if reference_summary is not None and (out / "summary.csv").read_bytes() != reference_summary:
        op.problems.append("regenerated summary.csv differs from the one simulate wrote")
    op.digests = {f: sha256(out / f) for f in GATE_FILES}
    seen = first_digests.setdefault(op.seed, op.digests)
    for f in GATE_FILES:
        if seen[f] != op.digests[f]:
            op.problems.append(f"{f} sha256 {op.digests[f][:12]} differs from {seen[f][:12]} on a repeat")


def build_report_tree(workload: Workload, seed: int, out: Path, root: Path = ROOT) -> None:
    """Write the greedy tree a report workload reads, in a child process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "dpdispatch.cli"] + workload.simulate_argv(seed, out)
    proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise HarnessError(f"building the report tree failed ({proc.returncode}): {proc.stderr}")


def measure_setup(root: Path = ROOT, repeats: int = SETUP_REPEATS) -> list[float]:
    """Reference-speed seconds from starting a fresh interpreter until dpdispatch.cli is imported."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import dpdispatch.cli as c, sys; sys.stdout.write(c.__file__ + '\\n'); sys.stdout.flush()"
    times = []
    for _ in range(repeats):
        probes: list[tuple[float, float]] = []
        for _ in range(SETUP_PROBES):
            timed_probe(probes)
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=root,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = proc.stdout.readline()
        seconds = perf_counter() - start
        for _ in range(SETUP_PROBES):
            timed_probe(probes)
        times.append(seconds / host_speed(probes))
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or (root / "src").resolve() not in Path(line.strip()).resolve().parents:
            raise HarnessError(f"fresh interpreter did not import dpdispatch.cli from {root / 'src'}")
    return times


class Runner:
    """Runs one workload's operations in a scratch directory of the checkout."""

    def __init__(self, cli, workload: Workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.first_digests: dict[int, dict[str, str]] = {}
        self.reference_summary: bytes | None = None
        self.tree: Path | None = None
        self._n = 0

    def prepare(self) -> None:
        """Untimed set-up: report_replay gets its greedy_fleet tree here."""
        if self.workload.solver is None:
            self.tree = self.work / "tree"
            build_report_tree(self.workload, self.seed, self.tree)
            self.reference_summary = (self.tree / "summary.csv").read_bytes()
            self.first_digests[self.seed] = {f: sha256(self.tree / f) for f in GATE_FILES}

    def op(self, seed: int) -> Op:
        self._n += 1
        if self.workload.solver is None:
            out = self.tree
            before = tree_files(out)
            timing, rc, text = call_cli(self.cli, ["report", "--out", str(out)])
            after = tree_files(out)
            written = [f for f, st in after.items() if before.get(f) != st]
        else:
            out = self.work / f"op{self._n}"
            timing, rc, text = call_cli(self.cli, self.workload.simulate_argv(seed, out))
            after = tree_files(out) if out.is_dir() else {}
            written = list(after)
        op = Op(self.workload.name, seed, timing.seconds, rc, step_seconds=timing.step_seconds,
                norm_seconds=timing.norm_seconds, speed=timing.speed)
        op.output_files = len(written)
        op.output_bytes = sum(after[f][0] for f in written)
        check_tree(op, out, self.first_digests, text, self.reference_summary)
        op.building_steps = self.workload.n_buildings * op.steps
        if self.workload.solver is not None:
            shutil.rmtree(out, ignore_errors=True)
        return op


def tail(values: list[float]) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it; the maximum if too few."""
    ordered = sorted(values)
    return ordered[-TAIL_BEYOND - 1] if len(ordered) >= 10 * TAIL_BEYOND else ordered[-1]


def latency_samples(ops: list[Op]) -> list[float]:
    """Closed-loop step latencies; for report, which has no loop, whole commands."""
    steps = [s for op in ops for s in op.step_seconds]
    return steps if steps else [op.norm_seconds for op in ops]


def seed_medians(ops: list[Op]) -> dict[int, float]:
    """Median reference-speed command time per scenario seed."""
    by_seed: dict[int, list[float]] = {}
    for op in ops:
        by_seed.setdefault(op.seed, []).append(op.norm_seconds)
    return {seed: statistics.median(times) for seed, times in by_seed.items()}


def end_to_end(ops: list[Op], setup: list[float]) -> dict[str, tuple[float, str]]:
    good = [op for op in ops if not op.problems]
    if not good:
        return {}
    per_seed = {op.seed: op for op in good}.values()
    times = seed_medians(good)
    steps = latency_samples(good)
    total_steps = sum(op.building_steps for op in per_seed)
    return {
        # every seed of the run weighs the same, however often it ran
        "run_s_norm": (statistics.fmean(times.values()), "s"),
        "step_ms_tail_norm": (tail(steps) * 1e3, "ms"),
        "items_per_s_norm": (total_steps / sum(times.values()), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "tracking_rmse_kw": (
            math.sqrt(statistics.fmean(op.rmse_kw**2 for op in per_seed)), "kW"),
        "comfort_in_band_share": (
            1.0 - sum(op.violations for op in per_seed) / total_steps, "ratio"),
        "ok_rate": (len(good) / len(ops), "ratio"),
    }


def make_work_dir() -> Path:
    STATE_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=STATE_DIR))
