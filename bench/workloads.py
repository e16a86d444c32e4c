"""The benchmark's workloads: each is a list of ops, each op a user-facing call.

An op's ``run`` is the timed part. Its ``check`` runs afterwards and returns
the problems it found and the values recorded in ``reference.json`` for the
op (``None`` when there is nothing to compare this time). Why each workload
exists is in ``README.md``.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent
# Shortened annealing schedule (456 iterations instead of 9,206) so a run
# repeats each op several times; the per-iteration work is unchanged.
CSA_SCHEDULE = BENCH / "csa_schedule.json"

ENUM_NODES, ENUM_EDGES = 6, 3
ATTACK_M, ATTACK_RUNS = 20, 10

# Instances whose loading counts as each workload's set-up.
INSTANCES = {
    "anneal": ("coauthor_small",),
    "scan": ("coauthor_small",),
    "large": ("coauthor_large",),
}


@dataclass
class Op:
    """One user-facing call of a workload."""

    name: str
    run: Callable[[Path], object]
    check: Callable[[object, Path], tuple[list[str], dict | None]]
    # per-op metric: name, unit, better, value from the op's fastest time in seconds
    metric: tuple[str, str, str, Callable[[float], float]]
    # False when the op's output does not depend on the seed
    seeded: bool = True
    # the Calibration kernel doing the same kind of work as the op
    calibration: str = "small"


def _cli(hyperteam, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI lists its output files
        code = hyperteam.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hyperteam {' '.join(argv[:2])} exited with {code}")
    return code


def anneal_ops(hyperteam, toy_path, seed: int) -> list[Op]:
    small = str(toy_path("coauthor_small"))
    iterations: dict[str, int] = {}

    def make(method: str, metric: str) -> Op:
        def run(out: Path):
            return _cli(hyperteam, [
                "optimize", "--input", small, "--method", method,
                "--config", str(CSA_SCHEDULE), "--seed", str(seed), "--out", str(out),
            ])

        def check(_, out: Path):
            problems, summary = checks.check_optimize(out, bipartite=method == "csa-bipartite")
            if not summary:
                return problems, None
            iterations[method] = summary["iterations"]
            return problems, {k: summary[k] for k in ("best_mu2", "iterations", "accepted")}

        return Op(method, run, check, (metric, "1/s", "higher", lambda s: iterations.get(method, 0) / s))

    return [make("csa", "csa_iters_per_s"), make("csa-bipartite", "csa_bipartite_iters_per_s")]


def scan_ops(hyperteam, toy_path, seed: int) -> list[Op]:
    small = str(toy_path("coauthor_small"))

    def run_greedy(out: Path):
        return _cli(hyperteam, [
            "optimize", "--input", small, "--method", "greedy", "--seed", str(seed), "--out", str(out),
        ])

    def check_greedy(_, out: Path):
        problems, summary = checks.check_optimize(out, bipartite=False)
        if not summary:
            return problems, None
        return problems, {"assignment_sha256": checks.assignment_digest(summary["assignment"])}

    def run_enumerate(out: Path):
        return _cli(hyperteam, [
            "experiment", "enumerate", "--nodes", str(ENUM_NODES), "--edges", str(ENUM_EDGES),
            "--out", str(out),
        ])

    # The enumeration is deterministic: the first output gets the full oracle
    # check, later repetitions must reproduce it byte for byte.
    first: dict[str, bytes] = {}

    def check_enumerate(_, out: Path):
        data = (out / "enumeration.csv").read_bytes()
        if "csv" in first:
            same = data == first["csv"]
            return ([] if same else ["enumeration output changed between repetitions"]), None
        problems, mu2s = checks.check_enumeration(out / "enumeration.csv", ENUM_NODES)
        first["csv"] = data
        return problems, {"mu2_runs": checks.run_lengths(mu2s)}

    subsets = 2**ENUM_NODES - 1 - ENUM_NODES  # node subsets of size two or more
    candidates = math.comb(subsets, ENUM_EDGES)
    return [
        Op("greedy", run_greedy, check_greedy, ("greedy_s", "s", "lower", lambda s: s)),
        Op("enumerate", run_enumerate, check_enumerate,
           ("enumerate_candidates_per_s", "1/s", "higher", lambda s: candidates / s), seeded=False),
    ]


def large_ops(hyperteam, toy_path, seed: int) -> list[Op]:
    path = str(toy_path("coauthor_large"))
    large = hyperteam.load_instance(path)

    def run_attack(out: Path):
        return _cli(hyperteam, [
            "attack", "--input", path, "-m", str(ATTACK_M), "--n-exp", str(ATTACK_RUNS),
            "--seed", str(seed), "--out", str(out),
        ])

    def check_attack(_, out: Path):
        problems = checks.check_attack(out, large.agent_ids, ATTACK_M, ATTACK_RUNS)
        return problems, {"summary_csv": (out / "attack_summary.csv").read_text()}

    def run_bundle(_: Path):
        return hyperteam.spectral.spectral_bundle(large)

    def check_bundle(bundle, _: Path):
        return checks.check_bundle(bundle, large.energies, large.assignment), None

    return [
        Op("attack", run_attack, check_attack, ("attack_s", "s", "lower", lambda s: s)),
        Op("mu2_large", run_bundle, check_bundle, ("mu2_large_s", "s", "lower", lambda s: s),
           seeded=False, calibration="power"),
    ]


BUILDERS = {"anneal": anneal_ops, "scan": scan_ops, "large": large_ops}


def build_ops(workload: str, hyperteam, toy_path, seed: int) -> list[Op]:
    return BUILDERS[workload](hyperteam, toy_path, seed)
