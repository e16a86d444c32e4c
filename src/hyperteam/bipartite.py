"""Bipartite lift of the hypergraph walk.

Stacking agents then tasks gives a walk that alternates strictly between the
two sides:

    P_b = [[0, A], [B, 0]],  A = D_V^-1 W (N x K),  B = D_E^-1 R^T (K x N),

the two steps of the hypergraph walk that ``spectral.walk_blocks`` builds.

It is 2-periodic but irreducible, so it has exactly one stationary
distribution, with mass 1/2 on each side: ``(pi, q) / 2`` with ``q = pi A``
and ``pi = q B``. ``pi`` is stationary for the agent chain ``A B`` (the
hypergraph walk) and ``q`` for the task chain ``B A``. Both side chains are
aperiodic, and the lift takes its distribution from the K x K task chain,
never from the periodic (N+K) chain.

``mu2_of_assignment`` writes the lift's Laplacian block by block from A, B
and that distribution; its mu2 is the ``csa-bipartite`` objective. It scores
the task chain through ``spectral.certified_mu2``, so a lift whose mu2
exceeds 5e-10 is certified connected without a search, and a split one
raises ``ReducibleChainError``.
``side_laplacians`` gives the Laplacians of the two side chains, each at
mass 1/2: the diagonal blocks of the two-step walk ``P_b^2``'s Laplacian,
whose agent block is half the hypergraph Laplacian.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .errors import DisconnectedError
from .instance import ProblemInstance, is_connected

__all__ = [
    "bipartite_laplacian",
    "mu2_of_assignment",
    "bipartite_connectivity",
    "side_laplacians",
]


def _lift_stationary(B: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The lift's distribution ``(pi, q) / 2`` from the task chain's ``q``: ``pi = q B``."""
    return 0.5 * np.concatenate([q @ B, q])


def _lift_laplacian(A: np.ndarray, B: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Laplacian of the lift ``[[0, A], [B, 0]]``, written from its blocks.

    ``q`` is the stationary distribution of the task chain ``B A``. The
    diagonal is the lift's distribution; the agent-task block is
    ``-(pi_i A_ik + q_k B_ki) / 4`` and the two side blocks are zero off the
    diagonal.
    """
    pi_b = _lift_stationary(B, q)
    n, k = A.shape
    cross = pi_b[:n, np.newaxis] * A + (pi_b[n:, np.newaxis] * B).T
    cross *= -0.5
    L = np.zeros((n + k, n + k))
    L[:n, n:] = cross
    L[n:, :n] = cross.T
    np.fill_diagonal(L, pi_b)
    return L


def bipartite_laplacian(P_b: np.ndarray) -> np.ndarray:
    """Laplacian of the alternating walk under its stationary distribution."""
    return spectral.laplacian(P_b, spectral.stationary_distribution(P_b))


def mu2_of_assignment(energies: np.ndarray, assignment: np.ndarray) -> float:
    """Alternating-walk mu2 of an assignment; a split one raises ``ReducibleChainError``.

    Every agent and task needs a positive entry, or ``walk_blocks`` raises
    ``DegreeError``. ``bipartite_connectivity`` checks that first; the
    annealer scores -inf on either error.
    """
    A, B = spectral.walk_blocks(energies, assignment)
    return spectral.certified_mu2(B @ A, lambda q: _lift_laplacian(A, B, q))


def bipartite_connectivity(inst: ProblemInstance) -> float:
    """Second-smallest eigenvalue of the alternating-walk Laplacian."""
    if not is_connected(inst):
        raise DisconnectedError("bipartite connectivity needs a connected instance")
    return mu2_of_assignment(inst.energies, inst.assignment)


def side_laplacians(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Laplacians of the agent chain ``A B`` (N x N) and the task chain ``B A`` (K x K).

    Each is taken at its side's half of the lift's distribution, so each
    side carries stationary mass 1/2.
    """
    if not is_connected(inst):
        raise DisconnectedError("side chains need a connected instance")
    A, B = spectral.walk_blocks(inst.energies, inst.assignment)
    pi_b = _lift_stationary(B, spectral.stationary_distribution(B @ A))
    n = len(A)
    return spectral.laplacian(A @ B, pi_b[:n]), spectral.laplacian(B @ A, pi_b[n:])
