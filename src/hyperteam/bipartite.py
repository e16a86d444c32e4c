"""Bipartite lift of the hypergraph walk.

Stacking agents then tasks gives the (N+K) adjacency

    A = [[0, W], [R^T, 0]]

whose random walk alternates strictly between the two sides. Squaring the
walk matrix block-diagonalizes it; the upper-left block is exactly the vertex
transition matrix of the hypergraph walk, which is what makes the lift a
useful consistency check.

The alternating walk is 2-periodic but irreducible, so it has exactly one
stationary distribution, with mass 1/2 on each side. Its walk matrix is

    P_b = [[0, A], [B, 0]],  A = D_V^-1 W (N x K),  B = D_E^-1 R^T (K x N),

so that distribution is ``(pi, q) / 2`` with ``q = pi A`` and ``pi = q B``:
``pi`` is stationary for the agent chain ``A B`` (the hypergraph walk) and
``q`` for the task chain ``B A``. Both side chains are aperiodic, and the
lift takes its distribution from the K x K task chain through
``spectral.stationary_distribution``, never from the periodic (N+K) chain.
Its Laplacian is written block by block from A, B and that distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import DisconnectedError
from .instance import ProblemInstance, is_connected

__all__ = [
    "BipartiteBundle",
    "bipartite_adjacency",
    "bipartite_transition",
    "two_step",
    "bipartite_laplacian",
    "two_step_laplacian",
    "mu2_of_assignment",
    "bipartite_connectivity",
    "bipartite_bundle",
]


def bipartite_adjacency(inst: ProblemInstance) -> np.ndarray:
    """(N+K) x (N+K) adjacency with W and R^T off-diagonal blocks."""
    m = spectral.edvw_matrices(inst.energies, inst.assignment)
    return _lift(m.W, m.R.T)


def _lift_blocks(m: spectral.EDVWMatrices) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) = (D_V^-1 W, D_E^-1 R^T): the agent-to-task and task-to-agent steps."""
    if not (m.d_v.all() and m.d_e.all()):
        raise ValueError("bipartite walk needs positive degrees on both sides")
    return m.W / m.d_v[:, np.newaxis], (m.R / m.d_e[np.newaxis, :]).T


def _lift(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[[0, A], [B, 0]] on the stacked agents and tasks: the walk, or the adjacency."""
    n, k = A.shape
    P = np.zeros((n + k, n + k))
    P[:n, n:] = A
    P[n:, :n] = B
    return P


def _lift_laplacian(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distribution and Laplacian of ``_lift(A, B)``, from its blocks.

    The K x K task chain ``B A`` gives q and ``pi = q B``; each side carries
    mass 1/2, so the distribution is ``(pi, q) / 2``. That is the Laplacian's
    diagonal; its agent-task block is ``-(pi_i A_ik + q_k B_ki) / 4`` and the
    two side blocks are zero off the diagonal.
    """
    q = spectral.stationary_distribution(B @ A)
    pi_b = 0.5 * np.concatenate([q @ B, q])
    n, k = A.shape
    cross = pi_b[:n, np.newaxis] * A + (pi_b[n:, np.newaxis] * B).T
    cross *= -0.5
    L = np.zeros((n + k, n + k))
    L[:n, n:] = cross
    L[n:, :n] = cross.T
    np.fill_diagonal(L, pi_b)
    return pi_b, L


def bipartite_transition(inst: ProblemInstance) -> np.ndarray:
    """Row-stochastic walk matrix on the stacked agent/task vertex set."""
    return _lift(*_lift_blocks(spectral.edvw_matrices(inst.energies, inst.assignment)))


def two_step(P_b: np.ndarray) -> np.ndarray:
    """Square of the alternating walk; block-diagonal by construction."""
    return P_b @ P_b


def bipartite_laplacian(P_b: np.ndarray) -> np.ndarray:
    """Laplacian of the alternating walk under its stationary distribution."""
    return spectral.laplacian(P_b, spectral.stationary_distribution(P_b))


def two_step_laplacian(P_star: np.ndarray, n_agents: int) -> np.ndarray:
    """Laplacian of the squared walk.

    The squared walk is block-diagonal, so each block gets its own stationary
    distribution, and the blocks carry mass 1/2 each to match the alternating
    walk's long-run occupancy. The agent block of the result equals half the
    hypergraph Laplacian.
    """
    n = n_agents
    upper = P_star[:n, :n]
    lower = P_star[n:, n:]
    off_upper = np.abs(P_star[:n, n:]).max() if P_star.shape[0] > n else 0.0
    off_lower = np.abs(P_star[n:, :n]).max() if P_star.shape[0] > n else 0.0
    if max(off_upper, off_lower) > 1e-10:
        raise ValueError("two-step matrix is not block-diagonal; wrong split size?")
    pi = np.concatenate(
        [
            0.5 * spectral.stationary_distribution(upper),
            0.5 * spectral.stationary_distribution(lower),
        ]
    )
    return spectral.laplacian(P_star, pi)


def mu2_of_assignment(energies: np.ndarray, assignment: np.ndarray) -> float:
    """Alternating-walk mu2 of an assignment; connectivity is the caller's job."""
    _, L = _lift_laplacian(*_lift_blocks(spectral.edvw_matrices(energies, assignment)))
    return float(spectral.spectrum(L)[1])


def bipartite_connectivity(inst: ProblemInstance) -> float:
    """Second-smallest eigenvalue of the alternating-walk Laplacian."""
    if not is_connected(inst):
        raise DisconnectedError("bipartite connectivity needs a connected instance")
    return mu2_of_assignment(inst.energies, inst.assignment)


@dataclass(frozen=True)
class BipartiteBundle:
    """All lift-level objects for one instance."""

    adjacency: np.ndarray
    P: np.ndarray
    pi: np.ndarray
    L: np.ndarray
    P_star: np.ndarray
    L_star: np.ndarray


def bipartite_bundle(inst: ProblemInstance) -> BipartiteBundle:
    if not is_connected(inst):
        raise DisconnectedError("bipartite bundle needs a connected instance")
    m = spectral.edvw_matrices(inst.energies, inst.assignment)
    A, B = _lift_blocks(m)
    pi_b, L_b = _lift_laplacian(A, B)
    P_b = _lift(A, B)
    P_star = two_step(P_b)
    # P_star's diagonal blocks are the two side chains, and pi_b already
    # holds their stationary distributions at mass 1/2 each
    L_star = spectral.laplacian(P_star, pi_b)
    return BipartiteBundle(
        adjacency=_lift(m.W, m.R.T), P=P_b, pi=pi_b, L=L_b, P_star=P_star, L_star=L_star
    )
