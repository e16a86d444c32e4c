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
from hyperteam import csa
from hyperteam.csa import CsaParams
from hyperteam.errors import InfeasibleError
from hyperteam.instance import ProblemInstance, load_instance, reaches_all
from hyperteam.spectral import laplacian, transition_matrix

_SAMPLE_RETRIES = 1000


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


def hub(n_tasks: int = 40, members: int = 4, pattern: tuple[int, ...] = (1, 3)) -> ProblemInstance:
    """The README's budget-sweep input: dedicated task groups plus one coordinator on every task.

    The members' budgets cycle through ``pattern``; the coordinator's is its task count.
    """
    n = n_tasks * members + 1
    a = np.zeros((n, n_tasks), dtype=np.int64)
    for k in range(n_tasks):
        a[k * members : (k + 1) * members, k] = 1
    a[-1, :] = 1
    budgets = a.sum(axis=1)
    budgets[:-1] = np.tile(pattern, n_tasks * members // len(pattern))
    return make_instance(a, budgets=budgets)


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


# Two instances with no walk to score: an agent with a budget but no task,
# which the walk's degree check rejects, and two teams that share no agent,
# which its reducibility search rejects.
DISCONNECTED = {
    "idle-agent": make_instance([[1, 1], [1, 0], [0, 1], [0, 0]], budgets=[2, 1, 1, 2]),
    "split": make_instance([[1, 0], [1, 0], [0, 1], [0, 1]]),
}


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
        from hyperteam.instance import reaches_all

        if reaches_all(inst.incidence()):
            return inst
    raise RuntimeError("could not draw a connected instance")


def sparse_connected_instance(rng: np.random.Generator, n_agents: int, n_tasks: int) -> ProblemInstance:
    """Random connected instance with about four members a task, for n_agents >= n_tasks.

    Agent i works on task ``i % n_tasks`` and on one more: the next task for
    the first ``n_tasks`` agents, which joins the tasks in a ring, a random
    one for the rest. Weights are 1 to 3.
    """
    agents = np.arange(n_agents)
    second = np.where(agents < n_tasks, agents + 1, rng.integers(n_tasks, size=n_agents)) % n_tasks
    a = np.zeros((n_agents, n_tasks), dtype=np.int64)
    a[agents, agents % n_tasks] += rng.integers(1, 4, size=n_agents)
    a[agents, second] += rng.integers(1, 4, size=n_agents)
    return make_instance(a)


def random_active_assignment(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(energies, assignment) in which every agent and every task holds a unit.

    The assignment is one to three random pieces placed block-diagonally,
    then rows and columns are shuffled. So about half the draws split, and
    a piece may split again; ``bipartite_components`` tells which.
    """
    pieces = []
    for _ in range(int(rng.integers(1, 4))):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        a = rng.integers(1, 4, size=(n, k)) * (rng.random((n, k)) < rng.uniform(0.2, 0.7))
        a[np.arange(n), rng.integers(k, size=n)] += 1
        a[rng.integers(n, size=k), np.arange(k)] += 1
        pieces.append(a)
    n, k = sum(a.shape[0] for a in pieces), sum(a.shape[1] for a in pieces)
    assignment = np.zeros((n, k), dtype=np.int64)
    i = j = 0
    for a in pieces:
        assignment[i : i + a.shape[0], j : j + a.shape[1]] = a
        i, j = i + a.shape[0], j + a.shape[1]
    assignment = assignment[rng.permutation(n)][:, rng.permutation(k)]
    return rng.integers(1, 20, size=k), assignment


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


def gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary oracle by Grassmann-Taksar-Heyman elimination; shares no solver with the package.

    Grassmann, Taksar and Heyman, Operations Research 33(5), 1985. States are
    censored from the last down: each step divides the column into the
    removed state by that state's mass to the kept ones, a sum rather than
    ``1 - P[k, k]``, and adds the paths through it. Nothing is subtracted,
    so every entry of pi is accurate to a few ulps per state however
    ill-conditioned the chain. The chain must be irreducible.
    """
    A = np.array(P, dtype=np.float64)
    n = len(A)
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
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
    P = transition_matrix(energies, stack)
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


def evaluate(
    assignment: np.ndarray, inst: ProblemInstance, params: CsaParams
) -> tuple[float, np.ndarray]:
    """Penalty value and per-task shortfall vector for a candidate, as the annealer scores it."""
    assignment = np.asarray(assignment)
    e_tilde = inst.energies - assignment.sum(axis=0)
    overrun, mu2_of = csa._overrun(assignment, inst), csa._objective(params)
    sub = assignment[inst.budgets > 0]
    penalty, _ = csa._evaluate_full(sub, e_tilde, overrun, inst, params, mu2_of)
    return penalty, e_tilde


def random_feasible_assignment(inst: ProblemInstance, rng: np.random.Generator) -> np.ndarray:
    """Random assignment meeting every task's energy within every budget.

    Budget units are dealt as shuffled tokens to tasks in order of need;
    leftover tokens stay unspent. Retries until the result is connected.
    """
    if inst.budgets.sum() < inst.energies.sum():
        raise InfeasibleError("total budget cannot cover total energy")
    tokens = np.repeat(np.arange(inst.n_agents), inst.budgets)
    need = inst.energies
    for _ in range(_SAMPLE_RETRIES):
        rng.shuffle(tokens)
        assignment = np.zeros((inst.n_agents, inst.n_tasks), dtype=np.int64)
        pos = 0
        for k in range(inst.n_tasks):
            for agent in tokens[pos : pos + int(need[k])]:
                assignment[agent, k] += 1
            pos += int(need[k])
        if reaches_all(assignment[inst.budgets > 0] > 0):
            return assignment
    raise RuntimeError("could not sample a connected feasible assignment")


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
