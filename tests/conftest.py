"""Shared builders for the test suite."""

from __future__ import annotations

import os
from importlib import resources
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import hyperteam
from hyperteam.instance import ProblemInstance, bipartite_components, load_instance
from hyperteam.spectral import edvw_matrices, laplacian, stationary_distribution, transition_matrix


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
    linear solve at every size. The chain must have a simple
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


def eig_mu2_batch(energies, stack) -> np.ndarray:
    """mu2 of each assignment in a (C, N, K) active-shape stack, pi from a stacked ``eig``.

    The former dense path of ``spectral.mu2_batch``, kept as the oracle of
    greedy's decisions: greedy breaks exact ties between offers by this pi's
    roundoff. Each pi is the left eigenvector at the eigenvalue nearest 1,
    normalized, checked for negative mass, clipped at 0 and renormalized.
    Under two agents, or for an empty stack, the result is 0s.
    """
    stack = np.asarray(stack)
    if len(stack) == 0 or stack.shape[1] < 2:
        return np.zeros(len(stack))
    P = transition_matrix(edvw_matrices(energies, stack))
    evals, evecs = np.linalg.eig(np.swapaxes(P, -1, -2))
    chains = np.arange(len(P))
    idx = np.abs(evals - 1.0).argmin(axis=-1)
    assert (np.abs(evals[chains, idx] - 1.0) <= 1e-6).all(), "no eigenvalue close to 1"
    pi = evecs[chains, :, idx].real
    pi = pi / pi.sum(axis=-1, keepdims=True)
    assert pi.min() >= -1e-9, "stationary eigenvector has negative mass"
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum(axis=-1, keepdims=True)
    return np.linalg.eigvalsh(laplacian(P, pi))[:, 1]


def component_bundle(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, pi, L) of a possibly disconnected instance, assembled per component.

    The former disconnected branch of ``spectral_bundle``, kept as its
    oracle: each component's chain is built from its own sub-assignment and
    solved alone, component c carries stationary mass |c| / N, and a
    one-agent component gets P = 1 and a zero Laplacian block.
    """
    count, agent_label, _ = bipartite_components(inst.incidence())
    n = inst.n_agents
    P, pi, L = np.zeros((n, n)), np.zeros(n), np.zeros((n, n))
    for comp in range(count):
        rows = np.flatnonzero(agent_label == comp)
        if rows.size == 1:
            P[rows[0], rows[0]] = 1.0
            pi[rows[0]] = 1.0 / n
            continue
        cols = np.flatnonzero(inst.assignment[rows].sum(axis=0) > 0)
        sub = inst.assignment[np.ix_(rows, cols)]
        Pc = transition_matrix(edvw_matrices(inst.energies[cols], sub))
        pic = stationary_distribution(Pc)
        alpha = rows.size / n
        P[np.ix_(rows, rows)] = Pc
        pi[rows] = alpha * pic
        L[np.ix_(rows, rows)] = alpha * laplacian(Pc, pic)
    return P, pi, L


def lift_adjacency(energies, assignment) -> np.ndarray:
    """[[0, W], [R^T, 0]] on the stacked agents and tasks, from the weight formulas."""
    a = np.asarray(assignment, dtype=np.float64)
    n, k = a.shape
    adjacency = np.zeros((n + k, n + k))
    adjacency[:n, n:] = (a > 0) * np.asarray(energies, dtype=np.float64)[np.newaxis, :]
    adjacency[n:, :n] = a.T
    return adjacency


def full_lift(energies, assignment) -> np.ndarray:
    """Alternating walk [[0, D_V^-1 W], [D_E^-1 R^T, 0]]: the row-normalized adjacency."""
    adjacency = lift_adjacency(energies, assignment)
    return adjacency / adjacency.sum(axis=1, keepdims=True)


def walk_laplacian(P: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Pi - (Pi P + P^T Pi) / 2, written out."""
    return np.diag(pi) - 0.5 * (pi[:, np.newaxis] * P + (pi[:, np.newaxis] * P).T)


def full_lift_mu2(energies, assignment) -> float:
    """Lift mu2 with the periodic (N+K) chain's own ``eig_stationary`` as pi."""
    P = full_lift(energies, assignment)
    return float(np.linalg.eigvalsh(walk_laplacian(P, eig_stationary(P)))[1])


def two_step_laplacian(P_star: np.ndarray, n_agents: int) -> np.ndarray:
    """Laplacian of the squared lift walk, each side chain solved on its own.

    The squared walk is block-diagonal; each block gets its own
    ``eig_stationary`` at mass 1/2, the alternating walk's long-run
    occupancy of each side.
    """
    n = n_agents
    assert np.abs(P_star[:n, n:]).max() <= 1e-10 and np.abs(P_star[n:, :n]).max() <= 1e-10
    pi = 0.5 * np.concatenate([eig_stationary(P_star[:n, :n]), eig_stationary(P_star[n:, n:])])
    return walk_laplacian(P_star, pi)


class LiftBundle(NamedTuple):
    adjacency: np.ndarray
    P: np.ndarray
    pi: np.ndarray
    L: np.ndarray
    P_star: np.ndarray
    L_star: np.ndarray


def bipartite_bundle(inst: ProblemInstance) -> LiftBundle:
    """Every object of the alternating walk and its square, from the weight formulas.

    The former public lift API, kept as the oracle of ``bipartite``: pi is
    the periodic (N+K) chain's own ``eig_stationary``, and ``L_star``
    re-solves both side chains through ``two_step_laplacian``.
    """
    P = full_lift(inst.energies, inst.assignment)
    pi = eig_stationary(P)
    P_star = P @ P
    L_star = two_step_laplacian(P_star, inst.n_agents)
    adjacency = lift_adjacency(inst.energies, inst.assignment)
    return LiftBundle(adjacency, P, pi, walk_laplacian(P, pi), P_star, L_star)


def toy_path(name: str) -> str:
    return str(resources.files("hyperteam.data") / f"{name}.json")


@pytest.fixture(scope="session")
def coauthor_small() -> ProblemInstance:
    return load_instance(toy_path("coauthor_small"))


@pytest.fixture(scope="session")
def coauthor_large() -> ProblemInstance:
    return load_instance(toy_path("coauthor_large"))
