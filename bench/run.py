"""Benchmark of the hyperteam package: end-to-end timings and a traced run per layer.

Usage, from the repository root:

    python3 bench/run.py --workload anneal --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload drives the package the way users do, through in-process
``hyperteam.cli.main([...])`` calls on the bundled instances, plus the public
API where no command exists. The op list of a workload is repeated until
``--seconds`` is spent (at least three times untraced); every metric is a
median over repetitions. Op times are gated in calibrated units (``cal``):
seconds divided by the time a fixed calibration computation of the same kind
of work takes next to the op, which cancels the host's speed swings; raw
seconds are printed too. Every op's output is checked; a failed check
counts as a failed op and does not stop the run. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import INSTANCES, build_ops  # noqa: E402

MIN_REPS = 3
SETUP_SAMPLES = 7

# Set-up as a user pays it: a fresh interpreter imports the package and
# loads the workload's instances. Timed inside the child, so interpreter
# start-up is excluded.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hyperteam
for path in sys.argv[2:]:
    hyperteam.load_instance(path)
print(repr(time.perf_counter() - t0))
"""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no package source)."""


def import_package():
    """Import ``hyperteam`` from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import hyperteam
        import hyperteam.cli
        from hyperteam.data import toy_path
    except ImportError as exc:
        raise SetupError(f"cannot import hyperteam from {SRC}: {exc}") from exc
    if Path(hyperteam.__file__).resolve().parent != SRC / "hyperteam":
        raise SetupError(f"hyperteam resolved to {hyperteam.__file__}, not {SRC}")
    return hyperteam, toy_path


# -- measurement --------------------------------------------------------


class Calibration:
    """Fixed computations of the benchmark's own, timed next to every op.

    The host this benchmark was written on (a 2-vCPU virtual machine) runs the
    same code in a fast or a 1.45-1.75x slower regime, for stretches of a few
    seconds to over a minute, and the regime shows in CPU time too. Dividing
    an op's time by a calibration time taken just before and after it cancels
    most of that, when the calibration does the same kind of work as the op:

    - ``small``: the mu2 oracle (small LAPACK solve and ``eigvalsh``) and the
      connectivity BFS (interpreted Python) on ``coauthor_small``, ~50 ms;
    - ``power``: power iteration on a fixed 781x781 stochastic matrix, like
      the N>512 stationary solver, ~12 ms. Memory-bound, it barely feels the
      regime, so the ``small`` kernel would add noise to such an op.
    """

    ROUNDS = 100
    POWER_STEPS = 100

    def __init__(self):
        small = SRC / "hyperteam" / "data" / "coauthor_small.json"
        _, self.energies, self.assignment, _ = checks.read_result(small)
        walk = np.random.default_rng(0).random((781, 781))
        self.walk = walk / walk.sum(axis=1, keepdims=True)

    def __call__(self) -> dict[str, float]:
        t0 = time.perf_counter()
        for _ in range(self.ROUNDS):
            checks.oracle_mu2(self.energies, self.assignment)
            checks.connected(self.assignment)
        t1 = time.perf_counter()
        pi = np.full(len(self.walk), 1.0 / len(self.walk))
        for _ in range(self.POWER_STEPS):
            pi = pi @ self.walk
            pi /= pi.sum()
        return {"small": t1 - t0, "power": time.perf_counter() - t1}


@dataclass
class Rep:
    op_wall: dict[str, float]  # seconds
    op_cpu: dict[str, float]  # process CPU seconds
    op_cal: dict[str, float]  # seconds over the op's adjacent calibration time

    @property
    def wall(self) -> float:
        return sum(self.op_wall.values())

    @property
    def cpu(self) -> float:
        return sum(self.op_cpu.values())

    @property
    def wall_cal(self) -> float:
        return sum(self.op_cal.values())

    @property
    def cpu_cal(self) -> float:
        return sum(self.op_cal[k] * self.op_cpu[k] / self.op_wall[k] for k in self.op_cal)


class Runner:
    """Runs a workload's op list, times it and checks every output."""

    def __init__(self, ops, work: Path, seed: int, reference: dict):
        self.ops = ops
        self.work = work
        self.calibrate = Calibration()
        self.expected = {
            op.name: (
                reference.get("seeds", {}).get(str(seed), {}) if op.seeded
                else reference.get("any_seed", {})
            ).get(op.name)
            for op in ops
        }
        self.observed: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def rep(self, tracer: Tracer | None = None) -> Rep:
        rep = Rep({}, {}, {})
        cal = self.calibrate()
        for op in self.ops:
            out = self.work / op.name
            out.mkdir(parents=True, exist_ok=True)
            self.attempted += 1
            result, problems = None, []
            span = tracer.span(f"op.{op.name}") if tracer else contextlib.nullcontext()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with span:
                    result = op.run(out)
            except Exception as exc:  # a failing op is counted, not fatal
                problems = [f"raised {type(exc).__name__}: {exc}"]
            t1, c1 = time.perf_counter(), time.process_time()
            cal_after = self.calibrate()
            rep.op_wall[op.name] = t1 - t0
            rep.op_cpu[op.name] = c1 - c0
            kernel = op.calibration
            rep.op_cal[op.name] = (t1 - t0) / ((cal[kernel] + cal_after[kernel]) / 2)
            cal = cal_after
            if tracer:
                tracer.count("cli.output_bytes", sum(f.stat().st_size for f in out.iterdir()))
            if not problems:
                problems = self._check(op, result, out)
            if problems:
                self.failed += 1
                self.problems.append(f"{op.name}: " + "; ".join(problems))
        return rep

    def _check(self, op, result, out: Path) -> list[str]:
        try:
            problems, observed = op.check(result, out)
        except Exception as exc:  # an unreadable output fails the check
            return [f"check raised {type(exc).__name__}: {exc}"]
        if observed is not None:
            self.observed[op.name] = observed
            if self.expected[op.name]:
                problems = problems + checks.compare_reference(observed, self.expected[op.name])
        return problems


def _enough(start: float, seconds: float, durations: list[float], minimum: int) -> bool:
    """Stop once the minimum is met and another repetition would overrun."""
    if len(durations) < minimum:
        return False
    return time.perf_counter() - start + statistics.median(durations) > seconds


def measure_setup(paths: list[str]) -> float:
    """Seconds one fresh interpreter takes to import the package and load ``paths``."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), *paths],
        capture_output=True, text=True, timeout=120, check=True, cwd=str(ROOT),
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _median(values: list[float], unit: str, better: str = "lower", what: str = ""):
    """A metric tuple: median, unit, direction and the spread behind it."""
    detail = f"{what}median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"
    return statistics.median(values), unit, better, detail


def run_untraced(runner: Runner, seconds: float, setup_sample: Callable[[], float]):
    """End-to-end metrics, plus report lines for the raw timings and per-op metrics.

    Set-up is sampled before every repetition, not in one burst, so that the
    host's speed swings average out as they do for the ops.
    """
    reps: list[Rep] = []
    setup: list[float] = []
    durations: list[float] = []
    start = time.perf_counter()
    while not _enough(start, seconds, durations, MIN_REPS):
        t0 = time.perf_counter()
        setup.append(setup_sample())
        reps.append(runner.rep())
        durations.append(time.perf_counter() - t0)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    metrics = {
        "setup_s": _median(setup, "s"),
        "wall_cal": _median([r.wall_cal for r in reps], "cal"),
        "cpu_cal": _median([r.cpu_cal for r in reps], "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB", "lower", "whole workload process"),
    }
    raw = {
        "wall_s": _median([r.wall for r in reps], "s"),
        "cpu_s": _median([r.cpu for r in reps], "s"),
    }
    for i, op in enumerate(runner.ops, start=1):
        metrics[f"op{i}_cal"] = _median([r.op_cal[op.name] for r in reps], "cal", what=f"{op.name}; ")
        times = [r.op_wall[op.name] for r in reps]
        metric, unit, better, value_of = op.metric
        raw[metric] = (value_of(statistics.median(times)), unit, better,
                       f"from the median of {len(times)} {op.name} timings")
    return metrics, [_line(name, *value) for name, value in raw.items()]


def run_traced(runner: Runner, seconds: float, workload: str):
    """Per-layer metrics from traced repetitions, each paired with an untraced one."""
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_rep: list[dict[str, float]] = []
    pairs: list[float] = []
    start = time.perf_counter()
    while not _enough(start, seconds, pairs, 1):
        t0 = time.perf_counter()
        untraced.append(runner.rep().wall_cal)
        tracer.reset()
        with tracer:
            traced.append(runner.rep(tracer).wall_cal)
        per_rep.append(layer_metrics(tracer))
        pairs.append(time.perf_counter() - t0)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload}.csv")
    metrics = {}
    for name, (unit, better) in PER_LAYER.items():
        values = [rep[name] for rep in per_rep]
        combine = max if name.endswith("_max") else statistics.median
        metrics[name] = (combine(values), unit, better, f"{len(values)} traced reps")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_share"] = (
        overhead, "ratio", "lower",
        f"median traced / median untraced wall_cal - 1, {len(traced)} pairs",
    )
    return metrics, op_attribution(tracer)


def op_attribution(tracer: Tracer, top: int = 4) -> list[str]:
    """Largest self times inside each op span of the last traced repetition."""
    lines = []
    roots = tracer.roots()
    for start, stop in zip(roots, roots[1:] + [len(tracer.spans)]):
        name, t0, t1, _ = tracer.spans[start]
        _, self_s = tracer.self_times(start, stop)
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])[:top]
        shares = ", ".join(f"{layer} {value / (t1 - t0):.0%}" for layer, value in ranked)
        lines.append(f"  {name} traced {t1 - t0:.4g} s; largest self times: {shares}")
    return lines


# name -> (unit, better); every workload reports all of them, 0 where unused
PER_LAYER: dict[str, tuple[str, str]] = {
    "instance.load_instance.self_s": ("s", "lower"),
    "instance.parse_instance_json.self_s": ("s", "lower"),
    "instance.bipartite_components.calls": ("count", "lower"),
    "instance.bipartite_components.self_s": ("s", "lower"),
    "instance.co_membership_graph.calls": ("count", "lower"),
    "instance.co_membership_graph.self_s": ("s", "lower"),
    "spectral.transition_matrix.self_s": ("s", "lower"),
    "spectral.laplacian.self_s": ("s", "lower"),
    "spectral.spectrum.calls": ("count", "lower"),
    "spectral.spectrum.self_s": ("s", "lower"),
    "spectral.spectrum.bytes_computed": ("B", "lower"),
    "spectral.stationary_distribution.calls": ("count", "lower"),
    "spectral.stationary_distribution.self_s": ("s", "lower"),
    "spectral.stationary_distribution.dim_max": ("count", "lower"),
    "spectral.stationary_distribution.residual_max": ("l1", "lower"),
    "spectral.mu2_of_assignment.calls": ("count", "lower"),
    "spectral.mu2_of_assignment.self_s": ("s", "lower"),
    "spectral.spectral_bundle.self_s": ("s", "lower"),
    "bipartite.bipartite_laplacian.calls": ("count", "lower"),
    "bipartite.bipartite_laplacian.self_s": ("s", "lower"),
    "csa.anneal.self_s": ("s", "lower"),
    "csa.perturb.calls": ("count", "lower"),
    "csa.perturb.self_s": ("s", "lower"),
    "csa.accept_ratio": ("ratio", "higher"),
    "csa.connected_ratio": ("ratio", "higher"),
    "greedy.centralized_init.self_s": ("s", "lower"),
    "greedy.phase1.self_s": ("s", "lower"),
    "greedy.phase2.self_s": ("s", "lower"),
    "greedy.evals_per_step": ("ratio", "lower"),
    "resilience.patch.calls": ("count", "lower"),
    "resilience.patch.self_s": ("s", "lower"),
    "resilience.remove_agents.self_s": ("s", "lower"),
    "experiments.enumerate_small.self_s": ("s", "lower"),
    "experiments.connected_ratio": ("ratio", "higher"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced repetition of the op list."""
    calls, self_s = tracer.self_times()
    counters = tracer.counters
    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = float(calls.get(layer, 0))
        elif field == "self_s":
            out[name] = self_s.get(layer, 0.0)
        else:
            out[name] = counters.get(name, 0.0)
    out["csa.accept_ratio"] = _ratio(counters.get("csa.accepted", 0), counters.get("csa.iterations", 0))
    csa_evals = tracer.calls_under("spectral.mu2_of_assignment", ("csa.anneal",)) + \
        tracer.calls_under("bipartite.bipartite_laplacian", ("csa.anneal",))
    # one candidate per perturb call plus each chain's initial state
    candidates = calls.get("csa.perturb", 0) + calls.get("csa.anneal", 0)
    out["csa.connected_ratio"] = _ratio(csa_evals, candidates)
    greedy_evals = tracer.calls_under(
        "spectral.mu2_of_assignment", ("greedy.phase1", "greedy.phase2", "greedy.greedy_optimize")
    )
    out["greedy.evals_per_step"] = _ratio(greedy_evals, counters.get("greedy.steps", 0))
    enum = ("experiments.enumerate_small",)
    out["experiments.connected_ratio"] = _ratio(
        tracer.calls_under("spectral.mu2_of_assignment", enum),
        tracer.calls_under("instance.bipartite_components", enum),
    )
    return out


# -- environment and reporting ------------------------------------------


def _git_sha() -> str | None:
    """Commit of the checkout, read without running git; None outside a repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """Content hash of the package source; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperteam").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        # not pinned by the benchmark; OpenBLAS uses one thread per core when unset
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def _line(name: str, value: float, unit: str, better: str, detail: str) -> str:
    return f"  {name:<46} {value:>14.6g} {unit:<5} ({better} is better; {detail})"


def run_workload(args) -> int:
    try:
        hyperteam, toy_path = import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        ops = build_ops(args.workload, hyperteam, toy_path, args.seed)
        runner = Runner(ops, work, args.seed, reference)
        if args.trace:
            metrics, extra = run_traced(runner, args.seconds, args.workload)
        else:
            paths = [str(toy_path(name)) for name in INSTANCES[args.workload]]
            metrics, extra = run_untraced(runner, args.seconds, lambda: measure_setup(paths))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit, better, detail) in metrics.items():
        print(_line(name, value, unit, better, detail))
    for line in extra:
        print(line)
    print(_line("fail_share", runner.failed / runner.attempted, "ratio", "lower",
                f"{runner.failed} of {runner.attempted} ops failed"))
    for problem in runner.problems[:20]:
        print(f"  failed: {problem}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    ok = True
    for workload in INSTANCES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=str(ROOT))
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print(f"all workloads correct: {ok}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*INSTANCES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
