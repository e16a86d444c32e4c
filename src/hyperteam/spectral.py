"""Random-walk spectral quantities for edge-dependent vertex-weighted hypergraphs.

Tasks are hyperedges weighted by their energy demand; an agent's weight inside
a task is its assigned unit count. The induced vertex random walk is

    P = D_V^-1 W D_E^-1 R^T

where ``W[i, k] = energy[k]`` on incidences, ``R[i, k] = assignment[i, k]``,
``D_V`` holds vertex degrees (sum of incident task energies) and ``D_E`` holds
task degrees (sum of member weights). The Laplacian is built from P and its
stationary distribution pi:

    L = Pi - (Pi P + P^T Pi) / 2.

``L`` is symmetric positive semidefinite with the all-ones vector in its
kernel; the second-smallest eigenvalue is the algebraic connectivity that the
optimizers maximize.

Each step of that chain is one public function, and the mu2 kernels are
built from them. ``edvw_matrices``, ``transition_matrix``, ``laplacian`` and
``spectrum`` take one assignment or matrix, or a stack of them;
``stationary_distribution`` solves one chain.

Stationary distributions come from one normalized linear solve at every size,
for one chain or a stack. ``stationary_distribution`` also rejects reducible
chains with ``ReducibleChainError``; ``mu2_batch`` solves whole stacks and
leaves connectivity to its callers, which test it with ``reaches_all``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegreeError, DisconnectedError, ReducibleChainError
from .instance import ProblemInstance, bipartite_components

__all__ = [
    "EDVWMatrices",
    "SpectralBundle",
    "edvw_matrices",
    "build_matrices",
    "transition_matrix",
    "stationary_distribution",
    "laplacian",
    "spectrum",
    "diffuse",
    "spectral_bundle",
    "mu2_of_assignment",
    "mu2_batch",
    "batch_rows",
]

# Entries per array of one batch (128 KiB of float64), which bounds the
# working set of a candidate scan; see batch_rows.
_BATCH_ENTRIES = 1 << 14


@dataclass(frozen=True)
class EDVWMatrices:
    """Weight system of the vertex walk, or a stack of them along leading axes.

    W : (..., N, K) hyperedge weight replicated on incidences
    R : (..., N, K) per-task vertex weights (the assignment itself)
    d_v : (..., N) vertex degrees, row sums of W
    d_e : (..., K) hyperedge degrees, column sums of R
    """

    W: np.ndarray
    R: np.ndarray
    d_v: np.ndarray
    d_e: np.ndarray


def edvw_matrices(energies: np.ndarray, assignment: np.ndarray) -> EDVWMatrices:
    """Weight matrices and degrees of an assignment's hypergraph, unchecked.

    ``assignment`` is (N, K) or a (C, N, K) stack. ``energies`` broadcasts
    against the leading axes: (K,) for all, or one row per assignment.
    """
    energies, assignment = np.asarray(energies), np.asarray(assignment)
    W = (assignment > 0) * energies[..., np.newaxis, :].astype(np.float64)
    R = assignment.astype(np.float64)
    return EDVWMatrices(W=W, R=R, d_v=W.sum(axis=-1), d_e=R.sum(axis=-2))


def build_matrices(inst: ProblemInstance) -> EDVWMatrices:
    """Weight matrices and degree vectors for an instance's hypergraph."""
    m = edvw_matrices(inst.energies, inst.assignment)
    if np.any(m.d_v == 0):
        i = int(np.flatnonzero(m.d_v == 0)[0])
        raise DegreeError(f"agent {inst.agent_ids[i]!r} belongs to no task")
    if np.any(m.d_e == 0):
        k = int(np.flatnonzero(m.d_e == 0)[0])
        raise DegreeError(f"task {inst.task_ids[k]!r} has no agents")
    return m


def transition_matrix(m: EDVWMatrices) -> np.ndarray:
    """Row-stochastic P = D_V^-1 W D_E^-1 R^T of one weight system or a stack."""
    return (m.W / m.d_v[..., np.newaxis]) @ np.swapaxes(m.R / m.d_e[..., np.newaxis, :], -1, -2)


def _irreducible(P: np.ndarray) -> bool:
    """Whether state 0 reaches every state and every state reaches state 0.

    The walk chains here link two agents that share a task, or two tasks that
    share an agent, so their support is symmetric; the backward search would
    then repeat the forward one and is skipped.
    """
    forward = P > 0
    backward = forward.T
    for step in (forward,) if np.array_equal(forward, backward) else (forward, backward):
        seen = frontier = np.arange(len(P)) == 0
        while frontier.any():
            frontier = step[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            return False
    return True


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary pi of an (n, n) chain, or of each chain of a (C, n, n) stack.

    One normalized linear solve per chain: ``pi (P - I) = 0`` with the last
    balance equation replaced by ``sum(pi) = 1``. The right-hand side is
    (..., n, 1), a stack of one-column matrices under numpy 1.x and 2.x
    alike. A singular system, mass below -1e-9 or a residual
    |pi P - pi|_1 above 1e-9 in any chain raise ``ConvergenceError``.
    Reducibility is not tested: a split chain may solve to a mix of its
    closed classes.
    """
    n = P.shape[-1]
    A = np.swapaxes(P, -1, -2).copy()
    # the copy is C-ordered, so its flat view holds each diagonal at a stride
    # of n + 1; cheaper than fancy indexing
    A.reshape(P.shape[:-2] + (n * n,))[..., :: n + 1] -= 1.0
    A[..., -1, :] = 1.0
    rhs = np.zeros(P.shape[:-1] + (1,))
    rhs[..., -1, 0] = 1.0
    try:
        pi = np.linalg.solve(A, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("singular stationary system") from exc
    if pi.min() < -1e-9:
        raise ConvergenceError("stationary solution has negative mass")
    residual = np.abs((pi[..., np.newaxis, :] @ P)[..., 0, :] - pi).sum(axis=-1)
    if not (residual <= 1e-9).all():
        raise ConvergenceError(f"stationary residual {residual.max():.3g} above 1e-9")
    return pi


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic, irreducible (n, n) chain.

    Periodic chains such as the bipartite lift are fine. A reducible chain
    raises ``ReducibleChainError``; the normalized linear solve's own checks
    raise ``ConvergenceError`` on a singular system, mass below -1e-9 or a
    residual |pi P - pi|_1 above 1e-9.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be square")
    # a reducible chain may solve to a plausible mix of its closed classes
    if not _irreducible(P):
        raise ReducibleChainError("chain is reducible; no unique stationary distribution")
    return _solve_stationary(P)


def laplacian(P: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Pi - (Pi P + P^T Pi) / 2 of one chain or of a stack of them.

    Exactly symmetric as built, so it needs no symmetrizing pass.
    """
    pip = pi[..., np.newaxis] * P
    L = pip + np.swapaxes(pip, -1, -2)
    L *= -0.5
    L += 0.0  # turns -0 into +0
    diag = np.arange(P.shape[-1])
    L[..., diag, diag] += pi
    return L


def spectrum(L: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each in a stack, in ascending order."""
    return np.linalg.eigvalsh(L)


def diffuse(L: np.ndarray, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Heat-equation trajectory x(t) = exp(-L t) x0 sampled at the given times.

    Returns an array of shape (len(times), N). Row sums are conserved and the
    trajectory converges to the mean of ``x0`` in every coordinate.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if np.any(times < 0):
        raise ValueError("diffusion times must be >= 0")
    evals, evecs = np.linalg.eigh(L)
    coeff = evecs.T @ x0
    decay = np.exp(-np.outer(times, evals))
    return (decay * coeff[np.newaxis, :]) @ evecs.T


@dataclass(frozen=True)
class SpectralBundle:
    """Transition matrix, stationary distribution, Laplacian and its spectrum."""

    P: np.ndarray
    pi: np.ndarray
    L: np.ndarray
    eigenvalues: np.ndarray


def spectral_bundle(inst: ProblemInstance, *, allow_disconnected: bool = False) -> SpectralBundle:
    """Full spectral chain for an instance.

    The checked stationary solve decides connectivity; components are
    labelled only for a reducible chain. A disconnected instance raises
    ``DisconnectedError`` unless ``allow_disconnected`` is set; then pi is
    solved on each component's block of P, with mass proportional to its size,
    so the Laplacian keeps one zero eigenvalue per component.
    """
    P = transition_matrix(build_matrices(inst))
    try:
        pi = stationary_distribution(P)
    except ReducibleChainError:
        count, agent_label, _ = bipartite_components(inst.incidence())
        if not allow_disconnected:
            raise DisconnectedError(f"hypergraph has {count} components") from None
        pi = np.zeros(len(P))
        for comp in range(count):
            rows = np.flatnonzero(agent_label == comp)
            pi[rows] = rows.size / len(P) * stationary_distribution(P[np.ix_(rows, rows)])
    L = laplacian(P, pi)
    return SpectralBundle(P=P, pi=pi, L=L, eigenvalues=spectrum(L))


def mu2_of_assignment(energies: np.ndarray, assignment: np.ndarray) -> float:
    """Algebraic connectivity of the hypergraph induced by positive entries.

    Rows and columns without positive entries are dropped, so partial
    assignments evaluate on their active sub-hypergraph. A sub-hypergraph
    with fewer than two active agents has no mixing to measure and scores 0.
    Otherwise pi comes from the checked solve, so a disconnected active part,
    whose agent chain is reducible, raises ``ReducibleChainError``.
    """
    energies, assignment = np.asarray(energies), np.asarray(assignment)
    rows, cols = assignment.sum(axis=1) > 0, assignment.sum(axis=0) > 0
    if not (rows.all() and cols.all()):
        energies, assignment = energies[cols], assignment[np.ix_(rows, cols)]
    if len(assignment) < 2:
        return 0.0
    P = transition_matrix(edvw_matrices(energies, assignment))
    L = laplacian(P, stationary_distribution(P))
    return float(spectrum(L)[1])


def batch_rows(n: int, k: int) -> int:
    """Assignments of shape (n, k) that ``mu2_batch`` scores per chunk.

    Each chunk's largest array per assignment (n x n, or n x k when k > n)
    holds ``_BATCH_ENTRIES`` entries at most: 455 six-node candidates or 6 of
    coauthor_small's size, and one matrix at a time from n = 128 on. Callers
    that build candidate stacks build them in pieces of this many, so
    ``mu2_batch`` scores each piece in one chunk.
    """
    return max(1, _BATCH_ENTRIES // max(1, n * max(n, k)))


def mu2_batch(energies: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Algebraic connectivity of each assignment in a (C, N, K) stack.

    The assignments share one active shape: every one of the N agents and K
    tasks has a positive entry in each, as in the active part that
    ``mu2_of_assignment`` cuts out. ``energies`` is (C, K), one row per
    assignment. Under two agents the result is 0. Connectivity is the
    caller's job: pi comes from one stacked normalized solve per chunk,
    which does not test reducibility, so callers filter split assignments
    with ``reaches_all`` first. The stack is scored in chunks of
    ``batch_rows(N, K)``, so the working set stays a few matrices of the
    largest size.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValueError("stack must be (C, N, K)")
    c, n, k = stack.shape
    energies = np.asarray(energies)
    if energies.shape != (c, k):
        raise ValueError("energies must be (C, K), one row per assignment")
    if n < 2:
        return np.zeros(c)
    out = np.empty(c)
    size = batch_rows(n, k)
    for lo in range(0, c, size):
        m = edvw_matrices(energies[lo : lo + size], stack[lo : lo + size])
        if not (m.d_v.all() and m.d_e.all()):
            raise ValueError("every agent and task of a batch needs a positive entry")
        P = transition_matrix(m)
        out[lo : lo + size] = spectrum(laplacian(P, _solve_stationary(P)))[:, 1]
    return out
