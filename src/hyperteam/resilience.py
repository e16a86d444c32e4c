"""Agent removal and local patching experiments.

When agents drop out, their tasks lose energy. Repair is local: the surviving
members of a short task recruit spare budget first from themselves (ring 0),
then from their direct teammates (ring 1), then teammates-of-teammates, and
so on through the co-membership graph of the surviving assignment. A unit
recruited at ring r costs r + 1. Recruitment never leaves the task's
component, so deficits can remain; those are reported as unsatisfied energy.

Patching walks index lists, not matrices: the ascending member list of each
task and task list of each agent of the damaged assignment, with spare
budgets and shortfalls as Python ints. An attack run therefore allocates no
(agents, tasks) array. Its result keeps the recruits and one frozen snapshot
of the assignment it started from, and builds ``patched_assignment`` when
that is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .instance import ProblemInstance
from .seeds import substream

__all__ = [
    "AttackResult",
    "ExperimentSummary",
    "remove_agents",
    "patch",
    "attack_experiment",
    "gain",
]


@dataclass(frozen=True)
class AttackResult:
    removed: tuple[int, ...]
    patching_cost: float
    unsatisfied: np.ndarray  # per-task energy still missing after patching
    # read-only assignment the run started from; rows of removed agents are
    # zeroed when the patched assignment is built
    base: np.ndarray = field(repr=False)
    recruits: tuple[tuple[int, int, int], ...]  # (agent, task, units), in order

    @property
    def patched_assignment(self) -> np.ndarray:
        """The damaged assignment plus every recruited unit; a fresh array."""
        patched = self.base.copy()
        patched[list(self.removed), :] = 0
        for agent, task, units in self.recruits:
            patched[agent, task] += units
        return patched

    @property
    def unsatisfied_sum(self) -> int:
        return int(np.maximum(self.unsatisfied, 0).sum())

    @property
    def success(self) -> bool:
        return self.unsatisfied_sum == 0


@dataclass(frozen=True)
class ExperimentSummary:
    n_runs: int
    patching_cost_mean: float
    patching_cost_stderr: float
    unsatisfied_mean: float
    unsatisfied_stderr: float
    runs: tuple[AttackResult, ...]


def remove_agents(assignment: np.ndarray, removed: Sequence[int]) -> np.ndarray:
    """Zero out the rows of the removed agents; returns a copy."""
    out = np.array(assignment, dtype=np.int64)
    idx = list(removed)
    if len(set(idx)) != len(idx):
        raise ValueError("removed agent indices must be distinct")
    if len(idx) >= out.shape[0]:
        raise ValueError("cannot remove every agent")
    out[idx, :] = 0
    return out


def _snapshot(assignment: np.ndarray) -> np.ndarray:
    """A read-only int64 copy that later writes to ``assignment`` cannot reach."""
    out = np.array(assignment, dtype=np.int64)
    out.flags.writeable = False
    return out


def _split(values: np.ndarray, keys: np.ndarray, n: int) -> list[list[int]]:
    """``values`` grouped by the sorted ``keys`` into ``n`` lists."""
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    flat = values.tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def _member_lists(assignment: np.ndarray) -> tuple[list[list[int]], list[list[int]]]:
    """Ascending members of each task and tasks of each agent (entries > 0)."""
    n, k = assignment.shape
    held = assignment > 0
    agents, tasks = np.nonzero(held)
    tasks_of = _split(tasks, agents, n)
    tasks, agents = np.nonzero(held.T)
    return _split(agents, tasks, k), tasks_of


def _recruit(
    members: list[list[int]],
    tasks_of: list[list[int]],
    spare: list[int],
    shortfall: list[int],
) -> tuple[list[tuple[int, int, int]], float]:
    """Fill shortfalls ring by ring; updates ``spare`` and ``shortfall``.

    Tasks go in descending-shortfall order, ties by index. A task's ring 0
    is its member list; ring r + 1 holds the unvisited members of the tasks
    that ring r's agents hold, in ascending order. The rings step on the
    given lists, which stay fixed while spare budget is consumed. Returns the
    recruits ``(agent, task, units)`` in order and the cost, where one unit
    recruited at ring r costs r + 1. A search that ends short has drained
    its whole component, so later tasks there are skipped: they would
    recruit nothing.
    """
    recruits = []
    cost = 0.0
    dry = set()  # agents of drained components
    for k in sorted(range(len(shortfall)), key=lambda k: (-shortfall[k], k)):
        need = shortfall[k]
        if need <= 0 or not members[k] or members[k][0] in dry:
            continue
        ring, frontier = 0, members[k]
        visited, expanded = set(frontier), {k}
        while frontier:
            for agent in frontier:
                take = min(spare[agent], need)
                if take > 0:
                    spare[agent] -= take
                    recruits.append((agent, k, take))
                    cost += take * (ring + 1)
                    need -= take
                    if need == 0:
                        break
            if need == 0:
                break
            reached = set()
            for agent in frontier:
                for task in tasks_of[agent]:
                    if task not in expanded:
                        expanded.add(task)
                        reached.update(members[task])
            reached -= visited
            visited |= reached
            frontier = sorted(reached)
            ring += 1
        if need:
            dry |= visited
        shortfall[k] = need
    return recruits, cost


def patch(inst: ProblemInstance, damaged: np.ndarray, removed: Sequence[int]) -> AttackResult:
    """Repair task shortfalls with surviving spare budget, nearest ring first.

    Rings are breadth-first layers of the co-membership graph of the damaged
    (post-removal, pre-patch) assignment, seeded by the surviving members of
    the short task and stepped on the member and task lists of the damaged
    incidence, fixed while spare budgets are consumed. Tasks are treated in
    descending-shortfall order, ties by index. One unit recruited at ring r
    costs r + 1. The result keeps a snapshot of ``damaged``, so later writes
    to it do not change ``patched_assignment``.
    """
    removed = tuple(int(r) for r in removed)
    damaged = _snapshot(damaged)
    if damaged[list(removed), :].any():
        raise ValueError("damaged assignment still has units from removed agents")
    budgets = inst.budgets.copy()
    budgets[list(removed)] = 0
    spare = budgets - damaged.sum(axis=1)
    if np.any(spare < 0):
        raise ValueError("assignment exceeds a surviving budget")
    shortfall = (inst.energies - damaged.sum(axis=0)).tolist()
    recruits, cost = _recruit(*_member_lists(damaged), spare.tolist(), shortfall)
    return AttackResult(
        removed=removed,
        patching_cost=cost,
        unsatisfied=np.array(shortfall, dtype=np.int64),
        base=damaged,
        recruits=tuple(recruits),
    )


def attack_experiment(
    inst: ProblemInstance,
    assignment: np.ndarray,
    m: int = 4,
    n_exp: int = 10,
    seed: int = 0,
    *,
    strategy: str = "random",
) -> ExperimentSummary:
    """Repeat remove-then-patch ``n_exp`` times and summarize cost and deficit.

    ``strategy`` is 'random' (uniform agent subsets, one RNG stream per run)
    or 'degree' (deterministic removal of the highest weighted-degree agents).
    Every run patches as ``patch(inst, remove_agents(assignment, removed),
    removed)`` would, but from member lists and sums built once per
    experiment, and its result shares one read-only snapshot of
    ``assignment``.
    """
    if not 0 < m < inst.n_agents:
        raise ValueError("m must be between 1 and the number of agents minus 1")
    if n_exp < 1:
        raise ValueError("n_exp must be >= 1")
    if strategy not in ("random", "degree"):
        raise ValueError("strategy must be 'random' or 'degree'")
    base = _snapshot(assignment)
    members, tasks_of = _member_lists(base)
    spare = (inst.budgets - base.sum(axis=1)).tolist()
    over_budget = [agent for agent, left in enumerate(spare) if left < 0]
    shortfall = inst.energies - base.sum(axis=0)
    if strategy == "degree":
        # targeted variant: remove the agents with the largest weighted degree
        energy = inst.energies.tolist()
        weighted_degree = np.array([sum(energy[t] for t in tasks) for tasks in tasks_of])
        hubs = tuple(np.argsort(-weighted_degree, kind="stable")[:m].tolist())
    runs = []
    for run in range(n_exp):
        if strategy == "degree":
            removed = hubs
        else:
            rng = substream(seed, "attack", run)
            removed = tuple(rng.choice(inst.n_agents, size=m, replace=False).tolist())
        gone = set(removed)
        if any(agent not in gone for agent in over_budget):
            raise ValueError("assignment exceeds a surviving budget")
        run_spare = list(spare)
        run_members = list(members)
        for agent in removed:
            run_spare[agent] = 0
            for task in tasks_of[agent]:
                run_members[task] = [a for a in run_members[task] if a not in gone]
        run_shortfall = (shortfall + base[list(removed), :].sum(axis=0)).tolist()
        recruits, cost = _recruit(run_members, tasks_of, run_spare, run_shortfall)
        runs.append(
            AttackResult(
                removed=removed,
                patching_cost=cost,
                unsatisfied=np.array(run_shortfall, dtype=np.int64),
                base=base,
                recruits=tuple(recruits),
            )
        )
    costs = np.array([r.patching_cost for r in runs])
    deficits = np.array([float(r.unsatisfied_sum) for r in runs])

    def stderr(values: np.ndarray) -> float:
        if len(values) < 2:
            return 0.0
        return float(values.std(ddof=1) / np.sqrt(len(values)))

    return ExperimentSummary(
        n_runs=n_exp,
        patching_cost_mean=float(costs.mean()),
        patching_cost_stderr=stderr(costs),
        unsatisfied_mean=float(deficits.mean()),
        unsatisfied_stderr=stderr(deficits),
        runs=tuple(runs),
    )


def gain(mu2_optimized: float, mu2_original: float) -> float:
    """Connectivity ratio of an optimized assignment over the original."""
    if mu2_original <= 0:
        raise ValueError("original connectivity must be positive")
    return mu2_optimized / mu2_original
