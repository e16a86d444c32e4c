"""Bipartite lift of the hypergraph walk.

Stacking agents then tasks gives the (N+K) adjacency

    A = [[0, W], [R^T, 0]]

whose random walk alternates strictly between the two sides. Squaring the
walk matrix block-diagonalizes it; the upper-left block is exactly the vertex
transition matrix of the hypergraph walk, which is what makes the lift a
useful consistency check.

The alternating walk is 2-periodic but irreducible, so it has exactly one
stationary distribution, with mass 1/2 on each side; it is computed by
``spectral.stationary_distribution`` like any other chain's.
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
    n, k = m.W.shape
    A = np.zeros((n + k, n + k))
    A[:n, n:] = m.W
    A[n:, :n] = m.R.T
    return A


def _lift_transition(energies: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Row-stochastic walk on the stacked agents and tasks of an assignment."""
    m = spectral.edvw_matrices(np.asarray(energies), np.asarray(assignment))
    if np.any(m.d_v == 0) or np.any(m.d_e == 0):
        raise ValueError("bipartite walk needs positive degrees on both sides")
    n, k = m.W.shape
    P = np.zeros((n + k, n + k))
    P[:n, n:] = m.W / m.d_v[:, np.newaxis]
    P[n:, :n] = (m.R / m.d_e[np.newaxis, :]).T
    return P


def bipartite_transition(inst: ProblemInstance) -> np.ndarray:
    """Row-stochastic walk matrix on the stacked agent/task vertex set."""
    return _lift_transition(inst.energies, inst.assignment)


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
    L = bipartite_laplacian(_lift_transition(energies, assignment))
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
    A = bipartite_adjacency(inst)
    P_b = bipartite_transition(inst)
    pi_b = spectral.stationary_distribution(P_b)
    L_b = spectral.laplacian(P_b, pi_b)
    P_star = two_step(P_b)
    L_star = two_step_laplacian(P_star, inst.n_agents)
    return BipartiteBundle(adjacency=A, P=P_b, pi=pi_b, L=L_b, P_star=P_star, L_star=L_star)
