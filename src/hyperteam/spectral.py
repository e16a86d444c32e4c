"""Random-walk spectral quantities for edge-dependent vertex-weighted hypergraphs.

Tasks are hyperedges weighted by their energy demand; an agent's weight inside
a task is its assigned unit count. The induced vertex random walk is

    P = D_V^-1 W D_E^-1 R^T = A B

where ``W[i, k] = energy[k]`` on incidences, ``R[i, k] = assignment[i, k]``,
``D_V`` holds vertex degrees (sum of incident task energies) and ``D_E`` holds
task degrees (sum of member weights). ``walk_blocks`` builds the two steps,
``A = D_V^-1 W`` (agent to task, N x K) and ``B = D_E^-1 R^T`` (task to agent,
K x N), and runs the one degree check; every walk in the package is built
from them, ``transition_matrix`` as ``A B`` and the bipartite lift's task
chain as ``B A``, except a large sparse agent walk, which takes the same
steps and the same check at its incidences only. The Laplacian is built
from P and its stationary distribution pi:

    L = Pi - (Pi P + P^T Pi) / 2.

``L`` is symmetric positive semidefinite with the all-ones vector in its
kernel; the second-smallest eigenvalue is the algebraic connectivity that the
optimizers maximize.

``transition_matrix`` forms ``A B`` by one of two routes, chosen from the
shape and the incidences. A and B hold one nonzero per incidence, so P's
entries sum the member pairs of each task: ``sum_k c_k^2`` products for
tasks of c_k members. One assignment whose pairs number at most 1/1024 of
the dense product's N x N x K multiply-adds is built from its incidences,
each task adding its pairs' products into a zeroed N x N array; a stack of
more than one assignment, and every other shape, takes ``walk_blocks`` and
the dense ``A @ B``. On a 2-core VM (numpy 2.4.6, OpenBLAS 0.3.31 on two
threads, best of 15 calls, random walks of 60 to 1,000 agents) the two
routes cost the same at about 300 multiply-adds per pair: the incidences
took 1.48x the dense time at 178, 1.03x at 314, 0.90x at 364, 0.65x at 398
and 0.32-0.51x from 950 on. The share stays at 1024, above that crossover,
because the pairs are at least ``N^2 / K`` (Cauchy-Schwarz over the task
sizes): no walk of under 32 tasks can pass, so none counts its pairs, and
every coauthor_small shape (25 tasks) keeps the dense product bit for bit.
coauthor_large (781 x 704, 10,580 incidences, 159,020 pairs: 2,700) went
from 9.3 to 2.1 ms a walk (median of 30 calls). Its pairs are summed task
by task, not in the product's order, so the last bits of P move: 7,386 of
its 22,509 nonzeros, by at most 2.1e-17 (3.4e-16 relative).

Each step of that chain is one public function, and the mu2 kernels are
built from them. ``walk_blocks``, ``transition_matrix``, ``laplacian`` and
``spectrum`` take one assignment or matrix, or a stack of them;
``stationary_distribution`` solves one chain.

Stationary distributions come from one normalized linear solve at every size,
for one chain or a stack. The system is built in one place, one C-ordered
array per chain that LAPACK reads column-major. One chain is solved in it by
LAPACK's ``dgesv`` through the ``LAPACKE_dgesv_work`` export; a stack, or a
numpy without the export, passes its transposed view to ``np.linalg.solve``,
which runs the same ``dgesv`` on the same column-major system, so pi is the
same bit for bit. ``stationary_distribution`` also rejects reducible chains
with ``ReducibleChainError``, after a search of the chain's support.
``certified_mu2`` scores one chain and reads connectivity off the spectrum
instead: a mu2 above 5e-10 certifies the chain irreducible, and the support
is searched only when the solve fails or mu2 is at most that. Both
``mu2_of_assignment`` objectives, the hypergraph one here and the bipartite
lift's, score through it, and ``spectral_bundle`` applies the same rule to
the second value of its full spectrum. ``mu2_batch`` solves whole stacks and
leaves connectivity to its callers, which test it with ``reaches_all``.

One score reuses its LAPACK workspaces. Each thread keeps its own sets in a
``threading.local``, one per kind and shape: at most 8 sets, and none above
255 on a side, where a solve takes milliseconds and a set megabytes; such a
score builds its sets and lets them go. Only the two LAPACK calls take
sets: the stationary solve keeps dgesv's matrix, pivots, right-hand side
and residual, and ``_mu2`` keeps dsyevr's workspace, so both objectives
reuse both. Everything else is built fresh, on every score alike: the walk
and the chain by ``walk_blocks`` and ``transition_matrix``, and the
Laplacian by its one writer, ``laplacian`` (or the lift's own), which the
eigen kernel copies into dsyevr's matrix. Written in place they saved
little: the walk 142.8 us a coauthor_small score with the copy against
142.2 without (2-core VM, medians of 10 alternating runs of the best of 15
x 300 calls over 20 states), and the Laplacian about 3 us. The sets'
contents last until the thread's next score. Kept at coauthor_large's 781
they do not pay: with every side kept, a score of its own assignment took
1,935-2,445 minor page faults against 2,603 (30 scores after one, two
runs) and no measurable time, and raised max RSS by 4.0 MiB. Before its
walk was built from its incidences, keeping raised the faults, 2,610-3,100
against 2,178-2,525, and max RSS by 8.9 MiB.

mu2 itself comes from one private kernel, ``_mu2``, in ``certified_mu2`` and
in each chunk of ``mu2_batch``, so a single score and a batched one agree bit
for bit. A Laplacian under 2x2 scores 0.0. From 24 on a side the kernel asks
LAPACK's ``dsyevr`` for the second eigenvalue alone (by bisection, index
range 2..2), one call per matrix, through the ``LAPACKE_dsyevr_work`` export
of the OpenBLAS that numpy loads. Below 24, or when no such export is found,
it reads entry 1 of the stacked ``eigvalsh``. Per matrix on a 2-core VM
(numpy 2.4.6, OpenBLAS 0.3.31), ``eigvalsh`` against ``dsyevr``: 22.3 and
23.5 us alone at n = 20 (18.6 and 16.8 in a stack of six), 30.0 and 27.2 at
24, 108 and 70 at 52 (a coauthor_small state) and 225 and 126 at 77 (its
bipartite lift). One binder, ``_lapacke``, binds both LAPACKE exports, and
only in their ILP64 form, ``scipy_LAPACKE_dsyevr_work64_`` and
``scipy_LAPACKE_dgesv_work64_`` in numpy 2.x wheels; whether numpy 1.24's
wheels export them in a form the lookup finds was not checked, and without
them every score takes ``eigvalsh`` and ``np.linalg.solve``. ``spectrum``,
and so ``spectral_bundle``, and ``diffuse`` keep the full solvers.

The symmetric eigen solves, ``spectrum``'s ``eigvalsh``, the mu2 kernel and
``diffuse``'s ``eigh``, run on one OpenBLAS thread when the matrix is 65 to
511 on a side, and then restore the caller's thread count. OpenBLAS threads
them from 65 on, but on a 2-core VM two threads first paid at about 500: a
77x77 solve (the bipartite lift of coauthor_small) ran at cpu/wall 2.0 and
no faster than on one thread; 400x400 took 7.6 ms on one thread and 8.8 ms
on two, 512x512 15.7 and 14.1 ms, so coauthor_large's 781x781 solve keeps
its threads. Within that range the eigenvalues no longer depend on the
host's core count. The thread count is process-wide: while such a solve
runs, numpy in other Python threads also sees one BLAS thread. OpenBLAS is
found through /proc/self/maps, on the first solve that needs it, so on other
platforms, or on another BLAS, the solves run as numpy runs them.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import threading
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

# Laplacians from this size on get mu2 alone from LAPACK's dsyevr; below it
# the full eigvalsh is faster (measured in the module docstring).
_DSYEVR_FROM = 24
_ABSTOL = 2 * np.finfo(np.float64).tiny

# One walk whose member pairs are at most this share of the dense product's
# multiply-adds is built from its pairs; see transition_matrix (measured in
# the module docstring).
_SCATTER_SHARE = 1024

# Scratch sets that each thread keeps for reuse; see _scratch.
_KEPT_SETS = 8
_KEPT_SIDE = 255
_kept = threading.local()


def _scratch(make: type, *shape: int):
    """``make(*shape)``, reused by this thread's later calls with the same arguments.

    Each thread keeps at most ``_KEPT_SETS`` sets, dropping the oldest first,
    and none with a side above ``_KEPT_SIDE``: there one solve takes
    milliseconds and one kept set megabytes. A set's contents last until the
    thread's next score, which overwrites them.
    """
    kept = getattr(_kept, "sets", None)
    if kept is None:
        kept = _kept.sets = {}
    key = (make, shape)
    found = kept.get(key)
    if found is None:
        found = make(*shape)
        if max(shape) <= _KEPT_SIDE:
            if len(kept) >= _KEPT_SETS:
                del kept[next(iter(kept))]
            kept[key] = found
    return found


def _check_degrees(d_v: np.ndarray, d_e: np.ndarray) -> None:
    """``DegreeError`` naming the first agent of degree 0, else the first such task.

    The index is the agent's or task's within its own assignment of a stack.
    """
    for d, message in ((d_v, "agent {} belongs to no task"), (d_e, "task {} has no agents")):
        if not d.all():
            raise DegreeError(message.format(np.flatnonzero(d == 0)[0] % d.shape[-1]))


def walk_blocks(energies: np.ndarray, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The walk's two steps ``(A, B) = (D_V^-1 W, D_E^-1 R^T)`` of an assignment.

    ``assignment`` is (N, K) or a (C, N, K) stack, and A and B are (..., N, K)
    and (..., K, N). ``energies`` broadcasts against the leading axes: (K,)
    for all, or one row per assignment. An agent in no task or a task without
    agents raises ``DegreeError``, which names it by its index. W and R are
    C-ordered whatever the assignment's layout: the reductions and products
    that follow sum in memory order, so their last bits would otherwise
    follow the layout.
    """
    energies, assignment = np.asarray(energies), np.asarray(assignment)
    W = np.multiply(assignment > 0, energies[..., np.newaxis, :].astype(np.float64), order="C")
    R = assignment.astype(np.float64, order="C")
    d_v, d_e = W.sum(axis=-1), R.sum(axis=-2)
    _check_degrees(d_v, d_e)
    # in place: two fewer (N, K) temporaries, and at coauthor_large's size
    # half the page faults per call that fresh quotients cost
    W /= d_v[..., np.newaxis]
    R /= d_e[..., np.newaxis, :]
    return W, np.swapaxes(R, -1, -2)


def transition_matrix(energies: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Row-stochastic agent walk ``P = A B`` of one assignment or a stack; see ``walk_blocks``.

    One assignment (or a stack of one) whose member pairs, ``sum_k c_k^2``
    over tasks of c_k members, number at most ``1 / _SCATTER_SHARE`` of the
    dense product's N x N x K multiply-adds is built from its incidences
    (see ``_scatter``), which moves only the last bits of P. Every other
    input is the dense ``A @ B`` of ``walk_blocks``. Both routes raise the
    same ``DegreeError``.
    """
    energies, assignment = np.asarray(energies), np.asarray(assignment)
    # pairs >= N^2 / K (Cauchy-Schwarz over the task sizes), so under
    # sqrt(_SCATTER_SHARE) tasks they are not counted
    if assignment.ndim >= 2 and assignment.shape[:-2] in ((), (1,)) and energies.ndim < assignment.ndim:
        n, k = assignment.shape[-2:]
        if k * k >= _SCATTER_SHARE:
            one = assignment.reshape(n, k)
            tasks, members = np.divmod(np.flatnonzero(one.T > 0), n)  # task by task
            counts = np.bincount(tasks, minlength=k)
            if counts @ counts * _SCATTER_SHARE <= n * n * k:
                P = _scatter(energies.reshape(-1), one, tasks, members, counts)
                return P.reshape(assignment.shape[:-1] + (n,))
    A, B = walk_blocks(energies, assignment)
    return A @ B


def _scatter(
    energies: np.ndarray,
    assignment: np.ndarray,
    tasks: np.ndarray,
    members: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """The walk ``A B`` of one (N, K) assignment, summed over its member pairs.

    ``tasks`` and ``members`` list the incidences task by task, and
    ``counts`` holds each task's member count. The degrees are summed over
    the incidences and checked by ``_check_degrees``, as in ``walk_blocks``;
    on integer energies and units, as instances hold, they and the steps
    ``A[i, k]`` and ``B[k, i]`` are ``walk_blocks``' bit for bit. Each task adds
    ``A[i, k] * B[k, j]`` for every pair of its members into a zeroed
    N x N array, task by task. The pairs are taken in chunks of about
    ``_BATCH_ENTRIES``, so the only large array is P: all at once they were
    four more of 1.3 MB on coauthor_large, freshly faulted in on every call.
    """
    n, k = assignment.shape
    w = energies[tasks].astype(np.float64)
    r = assignment[members, tasks].astype(np.float64)
    d_v, d_e = np.bincount(members, w, minlength=n), np.bincount(tasks, r, minlength=k)
    _check_degrees(d_v, d_e)
    a, b = w / d_v[members], r / d_e[tasks]
    size = counts[tasks]  # the pairs in each incidence's row
    firsts = (np.cumsum(counts) - counts)[tasks]  # the incidence of its task's first member
    rows = members * n
    ends = np.cumsum(size)
    cuts = np.searchsorted(ends, np.arange(_BATCH_ENTRIES, ends[-1], _BATCH_ENTRIES)) + 1
    P = np.zeros(n * n)
    for lo, hi in itertools.pairwise([0, *cuts, len(tasks)]):
        s = size[lo:hi]
        # the incidence of each pair's second member: its task's first, plus
        # the pair's place within its row
        cols = np.repeat(firsts[lo:hi] - np.cumsum(s) + s, s)
        cols += np.arange(len(cols))
        flat = np.repeat(rows[lo:hi], s)
        flat += members[cols]
        products = np.repeat(a[lo:hi], s)
        products *= b[cols]
        # adds each entry's products in their order here: task by task
        np.add.at(P, flat, products)
    return P.reshape(n, n)


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


class _Solve:
    """dgesv's arrays for one (n, n) stationary system, and its arguments."""

    def __init__(self, n: int):
        self.matrix = np.empty((n, n))
        self.pivots = np.empty(n, dtype=np.int64)
        self.rhs = np.empty(n)
        self.residual = np.empty(n)
        # 102 is LAPACK_COL_MAJOR: the C-ordered system reads as its transpose
        self.args = (102, n, 1, self.matrix.ctypes.data, n, self.pivots.ctypes.data)
        self.args += (self.rhs.ctypes.data, n)


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary pi of an (n, n) chain, or of each chain of a (C, n, n) stack.

    One normalized linear solve per chain: ``pi (P - I) = 0`` with the last
    balance equation replaced by ``sum(pi) = 1``. The system is built once:
    P, C-ordered, with its diagonal shifted by -1 and its last column set to
    1, which LAPACK reads column-major. dgesv solves one chain in place in
    the thread's scratch arrays; a stack, or any chain on a numpy without
    the binding, passes the system's transposed view to ``np.linalg.solve``
    (right-hand side (..., n, 1), one-column matrices under numpy 1.x and
    2.x alike), which runs the same dgesv. A singular system, mass below
    -1e-9 or a residual |pi P - pi|_1 above 1e-9 in any chain raise
    ``ConvergenceError``. Reducibility is not tested: a split chain may
    solve to a mix of its closed classes. A chain without states has the
    empty distribution.
    """
    n = P.shape[-1]
    if n == 0:
        return np.zeros(P.shape[:-1])
    dgesv = _dgesv() if P.ndim == 2 else None
    work = _scratch(_Solve, n) if dgesv is not None else None
    system = np.empty(P.shape) if work is None else work.matrix
    np.copyto(system, P)
    # C-ordered, so its flat view holds each diagonal at a stride of n + 1;
    # cheaper than fancy indexing
    system.reshape(P.shape[:-2] + (n * n,))[..., :: n + 1] -= 1.0
    system[..., -1] = 1.0
    drift = None  # where one chain's pi P goes
    if work is None:
        rhs = np.zeros(P.shape[:-1] + (1,))
        rhs[..., -1, 0] = 1.0
        try:
            pi = np.linalg.solve(np.swapaxes(system, -1, -2), rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular stationary system") from exc
    else:
        work.rhs.fill(0.0)
        work.rhs[-1] = 1.0
        info = dgesv(*work.args)
        if info > 0:
            raise ConvergenceError("singular stationary system")
        if info < 0:
            raise ConvergenceError(f"dgesv failed: info {info}")
        pi, drift = work.rhs.copy(), work.residual
    if pi.min() < -1e-9:
        raise ConvergenceError("stationary solution has negative mass")
    if pi.ndim == 1:
        # one chain: the scalar form costs half as much as the stacked one
        drift = np.matmul(pi, P, out=drift)
        drift -= pi
        residual = float(np.abs(drift, out=drift).sum())
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

    Exactly symmetric as built, so it needs no symmetrizing pass. It is
    C-ordered whatever P's layout, so its flat view writes the diagonal.
    """
    pip = pi[..., np.newaxis] * P
    L = np.add(pip, np.swapaxes(pip, -1, -2), order="C")
    L *= -0.5
    L += 0.0  # turns -0 into +0
    n = P.shape[-1]
    L.reshape(L.shape[:-2] + (n * n,))[..., :: n + 1] += pi
    return L


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The loaded OpenBLAS, or None; found once, on the first call.

    The library is found by its path in /proc/self/maps, so on Linux only,
    numpy's own copy first should another package have loaded a second one.
    Both bindings below take their exports from this one copy, so the solve
    runs in the library whose thread count ``_serial_solve`` sets. A numpy
    on another BLAS, or another platform, gets None.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _exports(names: tuple[str, ...], suffixes: tuple[str, ...]) -> list | None:
    """The exports ``names`` of ``_openblas()``, as ctypes functions, or None.

    Exports may carry a ``scipy_`` prefix, as in numpy's wheels, and one of
    ``suffixes``; all of ``names`` must be found under the same pair.
    """
    lib = _openblas()
    if lib is None:
        return None
    for prefix, suffix in itertools.product(("scipy_", ""), suffixes):
        found = [getattr(lib, f"{prefix}{name}{suffix}", None) for name in names]
        if None not in found:
            return found
    return None


@functools.cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the loaded OpenBLAS, or None."""
    found = _exports(("openblas_get_num_threads", "openblas_set_num_threads"), ("64_", ""))
    if found is None:
        return None
    get, put = found
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_CTYPES = {"i": ctypes.c_int, "q": ctypes.c_int64, "d": ctypes.c_double, "c": ctypes.c_char, "P": ctypes.c_void_p}


def _lapacke(name: str, argtypes: str) -> Callable[..., int] | None:
    """LAPACKE's ``name`` export of the loaded OpenBLAS, with 64-bit integers, or None.

    Only the ILP64 export is bound, ``scipy_LAPACKE_{name}64_`` in numpy 2.x
    wheels: an export without the ``64_`` suffix may take 32-bit integers.
    ``argtypes`` spells the arguments in struct format codes: ``i`` int,
    ``q`` int64, ``d`` double, ``c`` char and ``P`` a pointer, passed as an
    address. The result is LAPACKE's int64 info.
    """
    found = _exports((f"LAPACKE_{name}",), ("64_",))
    if found is None:
        return None
    (function,) = found
    function.argtypes = [_CTYPES[code] for code in argtypes]
    function.restype = ctypes.c_int64
    return function


@functools.cache
def _dsyevr() -> Callable[..., int] | None:
    """LAPACKE's ``dsyevr_work``, or None; see ``_lapacke``."""
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z,
    # ldz, isuppz, work, lwork, iwork, liwork
    return _lapacke("dsyevr_work", "icccqPqddqqdPPPqPPqPq")


@functools.cache
def _dgesv() -> Callable[..., int] | None:
    """LAPACKE's ``dgesv_work``, or None; see ``_lapacke``."""
    # layout, n, nrhs, a, lda, ipiv, b, ldb
    return _lapacke("dgesv_work", "iqqPqPPq")


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


def _mu2(L: np.ndarray):
    """Second-smallest eigenvalue of a Laplacian, or of each in a stack.

    A Laplacian under 2x2 has no mixing to measure and scores 0.0. The solve
    runs under ``_serial_solve``'s thread rule; see ``_second_eigenvalues``.
    """
    if np.shape(L)[-1] < 2:
        return np.zeros(np.shape(L)[:-2])
    return _serial_solve(_second_eigenvalues, L)


class _Eigen:
    """dsyevr's arrays for one (n, n) symmetric matrix, and its arguments.

    One buffer holds the matrix, which dsyevr overwrites, w and work, then
    the 64-bit integers m, isuppz and iwork.
    """

    def __init__(self, n: int):
        lwork, liwork = 26 * n, 10 * n  # dsyevr's minimal workspace
        buf = np.empty(n * n + n + lwork + 3 + liwork)
        self.a = buf[: n * n].reshape(n, n)
        self.w = buf[n * n : n * n + 1]
        self.ints = buf[n * n + n + lwork :].view(np.int64)
        base = buf.ctypes.data
        w = base + 8 * n * n
        m = w + 8 * (n + lwork)
        # 102 is LAPACK_COL_MAJOR, which reads the symmetric C-ordered matrix as is
        self.args = (102, b"N", b"I", b"L", n, base, n, 0.0, 0.0, 2, 2, _ABSTOL)
        self.args += (m, w, None, 1, m + 8, w + 8 * n, lwork, m + 24, liwork)


def _second_eigenvalues(L: np.ndarray):
    """``eigvalsh(L)[..., 1]``, computed alone by LAPACK's dsyevr from ``_DSYEVR_FROM`` on.

    Each matrix, a single one without a reshape or each of a stack, is
    copied into one reused workspace and gets one ``dsyevr`` call there
    (eigenvalues only, index range 2..2, column-major: L is symmetric, so
    its C-ordered copy needs no transpose); L itself is left as it is. The
    bisection runs to twice the underflow threshold, LAPACK's most
    accurate setting. Smaller matrices, or a numpy without the binding, take
    the stacked ``eigvalsh``. A failed call raises ``ConvergenceError``.
    """
    n = L.shape[-1]
    dsyevr = _dsyevr() if n >= _DSYEVR_FROM else None
    if dsyevr is None:
        return np.linalg.eigvalsh(L)[..., 1]
    work = _scratch(_Eigen, n)
    stack = [L] if L.ndim == 2 else np.reshape(L, (-1, n, n))
    out = np.empty(len(stack))
    for i, matrix in enumerate(stack):
        np.copyto(work.a, matrix)
        work.ints[0] = 0  # a call that reports no count fails the check below
        info = dsyevr(*work.args)
        if info != 0 or work.ints[0] != 1:
            raise ConvergenceError(f"dsyevr failed: info {info}, {work.ints[0]} eigenvalues found")
        out[i] = work.w[0]
    return out.reshape(np.shape(L)[:-2])


def diffuse(L: np.ndarray, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Heat-equation trajectory x(t) = exp(-L t) x0 sampled at the given times.

    Returns an array of shape (len(times), N). Row sums are conserved and the
    trajectory converges to the mean of ``x0`` in every coordinate.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if not np.all((times >= 0) & (times < np.inf)):
        raise ValueError("diffusion times must be finite and >= 0")
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


def spectral_bundle(inst: ProblemInstance) -> SpectralBundle:
    """Full spectral chain for a connected instance.

    The walk's degree check decides whether every agent and task takes part,
    and the spectrum whether the walk is connected, by ``certified_mu2``'s
    rule: a second eigenvalue above 5e-10 certifies it, and the support is
    searched only when the solve fails or that value is smaller. One agent
    has nothing to split and keeps its bundle. On an idle agent, an empty
    task or a split team the components are counted and
    ``DisconnectedError`` is raised.
    """
    try:
        P = transition_matrix(inst.energies, inst.assignment)
        pi = _solve_or_split(P)
        L = laplacian(P, pi)
        eigenvalues = spectrum(L)
        if len(eigenvalues) > 1:
            _certify(P, eigenvalues[1])
    except (DegreeError, ReducibleChainError):
        count = bipartite_components(inst.incidence())[0]
        raise DisconnectedError(f"hypergraph has {count} components") from None
    return SpectralBundle(P=P, pi=pi, L=L, eigenvalues=eigenvalues)


def _solve_or_split(P: np.ndarray) -> np.ndarray:
    """``_solve_stationary(P)``; when it fails on a split chain, ``ReducibleChainError``."""
    try:
        return _solve_stationary(P)
    except ConvergenceError:
        if not _irreducible(P):
            raise ReducibleChainError(_REDUCIBLE) from None
        raise


def _certify(P: np.ndarray, mu2: float) -> None:
    """``ReducibleChainError`` when ``mu2`` is at most 5e-10 and the search splits ``P``."""
    if mu2 <= _CERTIFIED_MU2 and not _irreducible(P):
        raise ReducibleChainError(_REDUCIBLE)


def certified_mu2(
    P: np.ndarray, laplacian_of: Callable[[np.ndarray], np.ndarray] | None = None
) -> float:
    """mu2 of an (n, n) chain's Laplacian, with connectivity read off the spectrum.

    pi comes from one normalized solve of ``P``; ``laplacian_of(pi)`` builds
    the Laplacian, by default ``laplacian(P, pi)``, and mu2 is its
    second-smallest eigenvalue from ``_mu2``: one route, whatever earlier
    calls left in the thread's workspaces. A split chain that passes the
    solve's 1e-9 residual check leaves each closed class an indicator vector
    whose Rayleigh quotient is at most residual/2 (residual/4 on the
    bipartite lift's Laplacian), so a mu2 above 5e-10 certifies ``P``
    irreducible. Only when the solve raises ``ConvergenceError`` or mu2 is
    at most that bound is the support searched: a reducible chain then raises
    ``ReducibleChainError``, and an irreducible one returns its mu2 or
    re-raises the solve's error. pi and mu2 are those of
    ``stationary_distribution`` followed by the same Laplacian. The bound
    holds for walk Laplacians such as these two, in which no weight crosses
    between closed classes.
    """
    pi = _solve_or_split(P)
    L = laplacian(P, pi) if laplacian_of is None else laplacian_of(pi)
    mu2 = float(_mu2(L))
    _certify(P, mu2)
    return mu2


def mu2_of_assignment(energies: np.ndarray, assignment: np.ndarray) -> float:
    """Algebraic connectivity of the hypergraph a whole (N, K) assignment induces.

    ``certified_mu2`` of the agent chain ``transition_matrix(energies,
    assignment)``. Every agent and task needs a positive entry, or
    ``walk_blocks``' degree check raises ``DegreeError``; a disconnected
    assignment, whose agent chain is reducible, raises
    ``ReducibleChainError``, and one agent, with no mixing to measure, scores
    0. An assignment that is not 2-D raises ``ValueError`` before any work.
    """
    if np.ndim(assignment) != 2:
        raise ValueError("assignment must be (N, K)")
    return certified_mu2(transition_matrix(energies, assignment))


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
    out = np.empty(c)
    size = batch_rows(n, k)
    for lo in range(0, c, size):
        P = transition_matrix(energies[lo : lo + size], stack[lo : lo + size])
        out[lo : lo + size] = _mu2(laplacian(P, _solve_stationary(P)))
    return out
