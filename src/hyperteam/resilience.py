"""Agent removal and local patching experiments.

When agents drop out, their tasks lose energy. Repair is local: the surviving
members of a short task recruit spare budget first from themselves (ring 0),
then from their direct teammates (ring 1), then teammates-of-teammates, and
so on through the co-membership graph of the surviving assignment. A unit
recruited at ring r costs r + 1. Recruitment never leaves the task's
component, so deficits can remain; those are reported as unsatisfied energy.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    patched_assignment: np.ndarray
    patching_cost: float
    unsatisfied: np.ndarray  # per-task energy still missing after patching

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


def patch(inst: ProblemInstance, damaged: np.ndarray, removed: Sequence[int]) -> AttackResult:
    """Repair task shortfalls with surviving spare budget, nearest ring first.

    Rings are breadth-first layers of the co-membership graph of the damaged
    (post-removal, pre-patch) assignment, seeded by the surviving members of
    the short task and stepped on the damaged incidence, fixed while spare
    budgets are consumed. Tasks are treated in descending-shortfall order,
    ties by index. One unit recruited at ring r costs r + 1.
    """
    removed = tuple(int(r) for r in removed)
    removed_mask = np.zeros(inst.n_agents, dtype=bool)
    removed_mask[list(removed)] = True
    damaged = np.asarray(damaged, dtype=np.int64)
    if damaged[list(removed), :].any():
        raise ValueError("damaged assignment still has units from removed agents")

    budgets = np.where(removed_mask, 0, inst.budgets)
    spare = budgets - damaged.sum(axis=1)
    if np.any(spare < 0):
        raise ValueError("assignment exceeds a surviving budget")
    incidence = damaged > 0
    shortfall = inst.energies - damaged.sum(axis=0)

    patched = damaged.copy()
    total_cost = 0.0
    order = sorted(range(inst.n_tasks), key=lambda k: (-int(shortfall[k]), k))
    for k in order:
        need = int(shortfall[k])
        if need <= 0:
            continue
        visited = incidence[:, k].copy()
        frontier = visited.copy()
        ring = 0
        while need > 0 and frontier.any():
            for agent in np.flatnonzero(frontier).tolist():
                take = int(min(spare[agent], need))
                if take <= 0:
                    continue
                spare[agent] -= take
                patched[agent, k] += take
                total_cost += take * (ring + 1)
                need -= take
                if need == 0:
                    break
            if need == 0:
                break
            tasks = incidence[frontier].any(axis=0)
            next_frontier = incidence[:, tasks].any(axis=1) & ~visited
            visited |= next_frontier
            frontier = next_frontier
            ring += 1
        shortfall[k] = need
    unsatisfied = inst.energies - patched.sum(axis=0)
    return AttackResult(
        removed=removed,
        patched_assignment=patched,
        patching_cost=total_cost,
        unsatisfied=unsatisfied,
    )


def _one_attack(
    inst: ProblemInstance,
    assignment: np.ndarray,
    m: int,
    seed: int,
    run: int,
    strategy: str,
) -> AttackResult:
    if strategy == "degree":
        # targeted variant: remove the agents with the largest weighted degree
        weighted_degree = ((assignment > 0) * inst.energies[np.newaxis, :]).sum(axis=1)
        removed = np.argsort(-weighted_degree, kind="stable")[:m]
    else:
        rng = substream(seed, "attack", run)
        removed = rng.choice(inst.n_agents, size=m, replace=False)
    damaged = remove_agents(assignment, [int(r) for r in removed])
    return patch(inst, damaged, [int(r) for r in removed])


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
    """
    if not 0 < m < inst.n_agents:
        raise ValueError("m must be between 1 and the number of agents minus 1")
    if n_exp < 1:
        raise ValueError("n_exp must be >= 1")
    if strategy not in ("random", "degree"):
        raise ValueError("strategy must be 'random' or 'degree'")
    runs = [_one_attack(inst, assignment, m, seed, r, strategy) for r in range(n_exp)]
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
