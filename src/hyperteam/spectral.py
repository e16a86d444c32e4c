"""Random-walk spectral quantities for edge-dependent vertex-weighted hypergraphs.

Tasks are hyperedges weighted by their energy demand; an agent's weight inside
a task is its assigned unit count. The induced vertex random walk is

    P = D_V^-1 W D_E^-1 R^T = A B

where ``W[i, k] = energy[k]`` on incidences, ``R[i, k] = assignment[i, k]``,
``D_V`` holds vertex degrees (sum of incident task energies) and ``D_E`` holds
task degrees (sum of member weights). ``walk_blocks`` builds the two steps,
``A = D_V^-1 W`` (agent to task, N x K) and ``B = D_E^-1 R^T`` (task to agent,
K x N), and holds the one degree check; every walk in the package is built
from them, ``transition_matrix`` as ``A B`` and the bipartite lift's task
chain as ``B A``. The Laplacian is built from P and its stationary
distribution pi:

    L = Pi - (Pi P + P^T Pi) / 2.

``L`` is symmetric positive semidefinite with the all-ones vector in its
kernel; the second-smallest eigenvalue is the algebraic connectivity that the
optimizers maximize.

Each step of that chain is one public function, and the mu2 kernels are
built from them. ``walk_blocks``, ``transition_matrix``, ``laplacian`` and
``spectrum`` take one assignment or matrix, or a stack of them;
``stationary_distribution`` solves one chain.

Stationary distributions come from one normalized linear solve at every size,
for one chain or a stack. ``stationary_distribution`` also rejects reducible
chains with ``ReducibleChainError``, after a search of the chain's support.
``certified_mu2`` scores one chain and reads connectivity off the spectrum
instead: a mu2 above 5e-10 certifies the chain irreducible, and the support
is searched only when the solve fails or mu2 is at most that. Both
``mu2_of_assignment`` objectives, the hypergraph one here and the bipartite
lift's, score through it. ``mu2_batch`` solves whole stacks and leaves
connectivity to its callers, which test it with ``reaches_all``.

The symmetric eigen solves, ``spectrum``'s ``eigvalsh`` and ``diffuse``'s
``eigh``, run on one OpenBLAS thread when the matrix is 65 to 511 on a side,
and then restore the caller's thread count. OpenBLAS threads them from 65 on,
but on a 2-core VM two threads first paid at about 500: a 77x77 solve (the
bipartite lift of coauthor_small) ran at cpu/wall 2.0 and no faster than on
one thread; 400x400 took 7.6 ms on one thread and 8.8 ms on two, 512x512 15.7
and 14.1 ms, so coauthor_large's 781x781 solve keeps its threads. Within
that range the eigenvalues no longer depend on the host's core count. The
thread count is process-wide: while such a solve runs, numpy in other Python
threads also sees one BLAS thread. OpenBLAS is found through /proc/self/maps,
so on other platforms, or on another BLAS, the solves run as numpy runs them.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegreeError, DisconnectedError, ReducibleChainError
from .instance import ProblemInstance, bipartite_components

__all__ = [
    "SpectralBundle",
    "walk_blocks",
    "transition_matrix",
    "stationary_distribution",
    "laplacian",
    "spectrum",
    "diffuse",
    "spectral_bundle",
    "certified_mu2",
    "mu2_of_assignment",
    "mu2_batch",
    "batch_rows",
]

# Entries per array of one batch (128 KiB of float64), which bounds the
# working set of a candidate scan; see batch_rows.
_BATCH_ENTRIES = 1 << 14

# A mu2 above this certifies a chain connected; see certified_mu2.
_CERTIFIED_MU2 = 5e-10
_REDUCIBLE = "chain is reducible; no unique stationary distribution"

# Sizes of the symmetric eigen solves that run on one OpenBLAS thread: OpenBLAS
# threads them from 65 on, and two threads first pay at about 500 (measured in
# the module docstring).
_SERIAL_SIZES = range(65, 512)


def walk_blocks(energies: np.ndarray, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The walk's two steps ``(A, B) = (D_V^-1 W, D_E^-1 R^T)`` of an assignment.

    ``assignment`` is (N, K) or a (C, N, K) stack, and A and B are (..., N, K)
    and (..., K, N). ``energies`` broadcasts against the leading axes: (K,)
    for all, or one row per assignment. An agent in no task or a task without
    agents raises ``DegreeError``, which names it by its index.
    """
    energies, assignment = np.asarray(energies), np.asarray(assignment)
    W = (assignment > 0) * energies[..., np.newaxis, :].astype(np.float64)
    R = assignment.astype(np.float64)
    d_v, d_e = W.sum(axis=-1), R.sum(axis=-2)
    for d, message in ((d_v, "agent {} belongs to no task"), (d_e, "task {} has no agents")):
        if not d.all():
            raise DegreeError(message.format(np.flatnonzero(d == 0)[0] % d.shape[-1]))
    # in place: two fewer (N, K) temporaries, and at coauthor_large's size
    # half the page faults per call that fresh quotients cost
    W /= d_v[..., np.newaxis]
    R /= d_e[..., np.newaxis, :]
    return W, np.swapaxes(R, -1, -2)


def transition_matrix(energies: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Row-stochastic agent walk ``P = A B`` of one assignment or a stack; see ``walk_blocks``."""
    A, B = walk_blocks(energies, assignment)
    return A @ B


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
    if pi.ndim == 1:
        # one chain: the scalar form costs half as much as the stacked one
        residual = float(np.abs(pi @ P - pi).sum())
        converged = residual <= 1e-9
    else:
        residual = np.abs((pi[..., np.newaxis, :] @ P)[..., 0, :] - pi).sum(axis=-1)
        converged = (residual <= 1e-9).all()
    if not converged:
        raise ConvergenceError(f"stationary residual {np.max(residual):.3g} above 1e-9")
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
        raise ReducibleChainError(_REDUCIBLE)
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


@functools.cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the loaded OpenBLAS, or None.

    The library is found by its path in /proc/self/maps, so on Linux only,
    numpy's own copy first should another package have loaded a second one.
    Its exports may carry a ``scipy_`` prefix and a ``64_`` suffix, as in
    numpy's wheels. A numpy on another BLAS, or another platform, gets None.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _serial_solve(solve: Callable[[np.ndarray], object], L: np.ndarray):
    """``solve(L)``, on one OpenBLAS thread when L's size is in ``_SERIAL_SIZES``.

    The caller's thread count is restored afterwards, also when the solve
    raises. Nothing is set when the count is already 1, when the size is
    outside that range, or when no OpenBLAS is found.
    """
    threads = _blas_threads() if np.shape(L)[-1] in _SERIAL_SIZES else None
    before = threads[0]() if threads is not None else 1
    if before <= 1:
        return solve(L)
    threads[1](1)
    try:
        return solve(L)
    finally:
        threads[1](before)


def spectrum(L: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each in a stack, in ascending order."""
    return _serial_solve(np.linalg.eigvalsh, L)


def diffuse(L: np.ndarray, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Heat-equation trajectory x(t) = exp(-L t) x0 sampled at the given times.

    Returns an array of shape (len(times), N). Row sums are conserved and the
    trajectory converges to the mean of ``x0`` in every coordinate.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if np.any(times < 0):
        raise ValueError("diffusion times must be >= 0")
    evals, evecs = _serial_solve(np.linalg.eigh, L)
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

    The walk's degree check and the checked stationary solve decide
    connectivity; components are labelled only when one of them fails. A
    disconnected instance raises ``DisconnectedError`` unless
    ``allow_disconnected`` is set; then pi is solved on each component's block
    of P, with mass proportional to its size, so the Laplacian keeps one zero
    eigenvalue per component. An agent in no task or a task without agents
    has no walk, so with ``allow_disconnected`` such an instance raises the
    ``DegreeError`` of ``walk_blocks``.
    """
    try:
        P = transition_matrix(inst.energies, inst.assignment)
        pi = stationary_distribution(P)
    except (DegreeError, ReducibleChainError) as exc:
        count, agent_label, _ = bipartite_components(inst.incidence())
        if not allow_disconnected:
            raise DisconnectedError(f"hypergraph has {count} components") from None
        if isinstance(exc, DegreeError):
            raise
        pi = np.zeros(len(P))
        for comp in range(count):
            rows = np.flatnonzero(agent_label == comp)
            pi[rows] = rows.size / len(P) * stationary_distribution(P[np.ix_(rows, rows)])
    L = laplacian(P, pi)
    return SpectralBundle(P=P, pi=pi, L=L, eigenvalues=spectrum(L))


def certified_mu2(
    P: np.ndarray, laplacian_of: Callable[[np.ndarray], np.ndarray] | None = None
) -> float:
    """mu2 of an (n, n) chain's Laplacian, with connectivity read off the spectrum.

    pi comes from one normalized solve of ``P``; ``laplacian_of(pi)`` builds
    the Laplacian, ``laplacian(P, pi)`` by default, and mu2 is its
    second-smallest eigenvalue. A split chain that passes the solve's 1e-9
    residual check leaves each closed class an indicator vector whose
    Rayleigh quotient is at most residual/2 (residual/4 on the bipartite
    lift's Laplacian), so a mu2 above 5e-10 certifies ``P`` irreducible.
    Only when the solve raises ``ConvergenceError`` or mu2 is at most that
    bound is the support searched: a reducible chain then raises
    ``ReducibleChainError``, and an irreducible one returns its mu2 or
    re-raises the solve's error. pi and mu2 are those of
    ``stationary_distribution`` followed by the same Laplacian. The bound
    holds for walk Laplacians such as these two, in which no weight crosses
    between closed classes.
    """
    try:
        pi = _solve_stationary(P)
    except ConvergenceError:
        if not _irreducible(P):
            raise ReducibleChainError(_REDUCIBLE) from None
        raise
    mu2 = float(spectrum(laplacian(P, pi) if laplacian_of is None else laplacian_of(pi))[1])
    if mu2 <= _CERTIFIED_MU2 and not _irreducible(P):
        raise ReducibleChainError(_REDUCIBLE)
    return mu2


def mu2_of_assignment(energies: np.ndarray, assignment: np.ndarray) -> float:
    """Algebraic connectivity of the hypergraph a whole assignment induces.

    Every agent and task needs a positive entry, or ``walk_blocks`` raises
    ``DegreeError``. One agent has no mixing to measure and scores 0.
    Otherwise ``certified_mu2`` scores the agent chain, so a disconnected
    assignment, whose agent chain is reducible, raises ``ReducibleChainError``.
    """
    P = transition_matrix(energies, assignment)
    return certified_mu2(P) if len(P) > 1 else 0.0


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

    Every one of the N agents and K tasks has a positive entry in each
    assignment, as ``mu2_of_assignment`` asks; ``walk_blocks`` raises
    ``DegreeError`` otherwise. ``energies`` is (C, K), one row per
    assignment. Under two agents the result is 0. Connectivity is the
    caller's job: pi comes from one stacked normalized solve per chunk,
    which does not test reducibility, so callers filter split assignments
    with ``reaches_all`` first. The stack is scored in chunks of ``batch_rows(N, K)``, so the
    working set stays a few matrices of the largest size.
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
        P = transition_matrix(energies[lo : lo + size], stack[lo : lo + size])
        out[lo : lo + size] = spectrum(laplacian(P, _solve_stationary(P)))[:, 1]
    return out
