"""Shared builders for the test suite."""

from __future__ import annotations

import os
from importlib import resources
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import hyperteam
from hyperteam.instance import ProblemInstance, load_instance


def subprocess_env() -> dict[str, str]:
    """Environment for a child ``python -m hyperteam`` run.

    Copies ``os.environ`` and puts the absolute directory that holds the
    imported ``hyperteam`` package first on ``PYTHONPATH``; earlier entries
    stay after it. The child then imports the same source tree as the
    in-process tests, never an older copy installed in site-packages, and
    finds it from any working directory, also when the suite was started
    with a relative ``PYTHONPATH`` such as ``src``.
    """
    env = dict(os.environ)
    root = str(Path(hyperteam.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, rest]) if rest else root
    return env


def count_connected_covering(n_nodes: int, n_edges: int) -> int:
    """Union-find reference count of connected covering hypergraphs.

    Deliberately independent of the library's component filter.
    """
    subsets = [
        s for r in range(2, n_nodes + 1) for s in combinations(range(n_nodes), r)
    ]
    count = 0
    for edges in combinations(subsets, n_edges):
        parent = list(range(n_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        touched = set()
        for edge in edges:
            touched.update(edge)
            for v in edge[1:]:
                parent[find(edge[0])] = find(v)
        if len(touched) == n_nodes and len({find(v) for v in range(n_nodes)}) == 1:
            count += 1
    return count


def make_instance(assignment, budgets=None, energies=None) -> ProblemInstance:
    """Instance from a matrix; budgets/energies default to row/column sums."""
    a = np.asarray(assignment, dtype=np.int64)
    n, k = a.shape
    return ProblemInstance(
        agent_ids=tuple(f"a{i}" for i in range(n)),
        budgets=a.sum(axis=1) if budgets is None else np.asarray(budgets),
        task_ids=tuple(f"t{j}" for j in range(k)),
        energies=a.sum(axis=0) if energies is None else np.asarray(energies),
        assignment=a,
    )


def random_connected_instance(
    rng: np.random.Generator,
    n_agents: int,
    n_tasks: int,
    max_weight: int = 3,
    slack: int = 0,
) -> ProblemInstance:
    """Random connected instance: no idle agents, no empty tasks.

    ``slack`` adds that much unspent budget to every agent, which the
    optimizer tests use to leave room for phase-2 moves.
    """
    for _ in range(1000):
        a = rng.integers(0, max_weight + 1, size=(n_agents, n_tasks))
        a[rng.integers(n_agents), :] = np.maximum(a[rng.integers(n_agents), :], 1)
        if (a.sum(axis=1) == 0).any() or (a.sum(axis=0) == 0).any():
            continue
        inst = make_instance(a)
        if slack:
            inst = ProblemInstance(
                agent_ids=inst.agent_ids,
                budgets=np.asarray(inst.budgets) + slack,
                task_ids=inst.task_ids,
                energies=inst.energies,
                assignment=inst.assignment,
            )
        from hyperteam.instance import is_connected

        if is_connected(inst):
            return inst
    raise RuntimeError("could not draw a connected instance")


def eig_stationary(P: np.ndarray) -> np.ndarray:
    """Dense-eig stationary oracle: the left eigenvector of P at eigenvalue 1.

    Taken at every size and normalized to sum 1, so it checks the package's
    linear solve above its dense size limit. The chain must have a simple
    eigenvalue 1; a periodic chain's eigenvalue -1 is two away and never
    picked.
    """
    evals, evecs = np.linalg.eig(np.asarray(P, dtype=np.float64).T)
    idx = int(np.argmin(np.abs(evals - 1.0)))
    assert abs(evals[idx] - 1.0) < 1e-9, "no eigenvalue at 1"
    pi = np.real(evecs[:, idx])
    return pi / pi.sum()


def eig_mu2(energies, assignment) -> float:
    """Hypergraph mu2 from the weight formulas with ``eig_stationary`` as pi.

    The former dense path of the single-state objective, kept as its oracle.
    Every agent and task of ``assignment`` must hold an entry.
    """
    a = np.asarray(assignment, dtype=np.float64)
    W = (a > 0) * np.asarray(energies, dtype=np.float64)
    P = (W / W.sum(axis=1)[:, None]) @ (a / a.sum(axis=0)).T
    pi = eig_stationary(P)
    L = np.diag(pi) - 0.5 * (pi[:, None] * P + (pi[:, None] * P).T)
    return float(np.linalg.eigvalsh(L)[1])


def full_lift(energies, assignment) -> np.ndarray:
    """Alternating walk [[0, D_V^-1 W], [D_E^-1 R^T, 0]] from the weight formulas."""
    a = np.asarray(assignment, dtype=np.float64)
    n, k = a.shape
    W = (a > 0) * np.asarray(energies, dtype=np.float64)[np.newaxis, :]
    P = np.zeros((n + k, n + k))
    P[:n, n:] = W / W.sum(axis=1, keepdims=True)
    P[n:, :n] = (a / a.sum(axis=0, keepdims=True)).T
    return P


def full_lift_mu2(energies, assignment) -> float:
    """Lift mu2 with the periodic (N+K) chain's own ``eig_stationary`` as pi."""
    P = full_lift(energies, assignment)
    pi = eig_stationary(P)
    L = np.diag(pi) - 0.5 * (pi[:, np.newaxis] * P + (pi[:, np.newaxis] * P).T)
    return float(np.linalg.eigvalsh(L)[1])


def toy_path(name: str) -> str:
    return str(resources.files("hyperteam.data") / f"{name}.json")


@pytest.fixture(scope="session")
def coauthor_small() -> ProblemInstance:
    return load_instance(toy_path("coauthor_small"))


@pytest.fixture(scope="session")
def coauthor_large() -> ProblemInstance:
    return load_instance(toy_path("coauthor_large"))
