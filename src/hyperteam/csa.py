"""Constrained simulated annealing over integer assignment matrices.

The objective is the algebraic connectivity of the induced hypergraph, with
hinge penalties for budget overruns and task shortfalls and optional pressure
terms on the mean tasks-per-agent and teammates-per-agent counts:

    penalty = mu2 - sum_i eta_i (spent_i - B_i)+ - sum_k lambda_k (E_k - delivered_k)+
              - c_T * tasks_per_agent - c_A * teammates_per_agent

Moves come in two flavors. A guided move takes one unit from a task with
surplus and gives it to a task in deficit, shrinking the total shortfall by
exactly one. A plain move swaps one unit between two random tasks through one
agent on each side, which conserves both row and column totals. Since moves
preserve row sums, budget overruns can never appear once the chain starts
from a full-budget state.

A candidate is scored on its budgeted rows, whole, by the objective's
``mu2_of_assignment``; when every agent has a budget that is the candidate
itself, with no copy. It raises ``DegreeError`` for an idle budgeted agent or
a task that no budgeted agent holds, and ``ReducibleChainError`` for a split
candidate; either way the candidate is disconnected, evaluates to -inf and
is never accepted.

The annealer holds each task's holders, in ascending order, as member lists
of its current state: the first of the two lists ``instance.member_lists``
builds, which equal the columns' ``np.flatnonzero``. ``perturb`` draws
agents from them and replaces each list a move changes with a new one; it
works on a shallow copy, which becomes the current state's lists when the
candidate is accepted. Called without the lists, it builds them first.
README gives the timings.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Integral, Real

import numpy as np

from . import bipartite, spectral
from .errors import DegreeError, InfeasibleError, ReducibleChainError
from .instance import ProblemInstance, factor_metrics, member_lists
from .seeds import substream

__all__ = [
    "CsaParams",
    "TraceRow",
    "OptimizationResult",
    "initialize_assignment",
    "perturb",
    "anneal",
]

_SWAP_RETRIES = 16


@dataclass
class CsaParams:
    """Annealing hyperparameters. Defaults follow the reference schedule."""

    t0: float = 1.0
    cooling: float = 0.999
    t_threshold: float = 1e-4
    max_iters: int = 50_000
    moves_per_step: int | None = None  # default: max(1, ceil((N + K) / 50))
    task_penalty: float = 10.0  # weight on unmet task energy
    agent_penalty: float = 10.0  # weight on budget overruns
    pack_size: int = 1
    p_guided: float = 0.8
    tasks_factor: float = 0.0  # pressure on mean tasks per agent
    teammates_factor: float = 0.0  # pressure on mean teammates per agent
    objective: str = "hypergraph"  # or "bipartite"
    seed: int = 0

    def __post_init__(self):
        integers = ("max_iters", "pack_size", "seed")
        if self.moves_per_step is not None:
            integers += ("moves_per_step",)
        reals = ("t0", "cooling", "t_threshold", "task_penalty", "agent_penalty", "p_guided",
                 "tasks_factor", "teammates_factor")
        for name in integers + reals:
            value, kind = getattr(self, name), Integral if name in integers else Real
            # bool is an Integral, but a flag is no count or rate; nor is NaN
            # or an infinity (compared, not converted: an int may be huge)
            if isinstance(value, bool) or not isinstance(value, kind) or not -math.inf < value < math.inf:
                what = "an integer" if kind is Integral else "a finite real number"
                raise ValueError(f"{name} must be {what}, not {value!r}")
        if not (0.0 < self.cooling < 1.0):
            raise ValueError("cooling must be in (0, 1)")
        if self.t0 <= 0 or self.t_threshold <= 0:
            raise ValueError("temperatures must be positive")
        if self.pack_size < 1:
            raise ValueError("pack_size must be >= 1")
        if self.moves_per_step is not None and self.moves_per_step < 1:
            raise ValueError("moves_per_step must be >= 1")
        if not (0.0 <= self.p_guided <= 1.0):
            raise ValueError("p_guided must be in [0, 1]")
        if self.objective not in ("hypergraph", "bipartite"):
            raise ValueError("objective must be 'hypergraph' or 'bipartite'")

    def resolve_moves(self, n_agents: int, n_tasks: int) -> int:
        return self.moves_per_step or max(1, math.ceil((n_agents + n_tasks) / 50))


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    temperature: float
    penalty: float
    mu2: float
    feasible: bool
    accepted: bool
    phase: str = ""


@dataclass
class OptimizationResult:
    best_assignment: np.ndarray
    best_penalty: float
    best_mu2: float
    feasible: bool
    trace: list[TraceRow] = field(default_factory=list)
    iterations_run: int = 0
    notes: tuple[str, ...] = ()


def initialize_assignment(
    inst: ProblemInstance, params: CsaParams, rng: np.random.Generator
) -> np.ndarray:
    """Spend every agent's full budget on uniformly random tasks.

    Units are placed in packs of ``pack_size``; the remainder, if any, lands
    on a single random task, so per-task allocations are multiples of the
    pack size except for at most one placement per agent.
    """
    if inst.budgets.sum() < inst.energies.sum():
        raise InfeasibleError(
            f"total budget {int(inst.budgets.sum())} cannot cover "
            f"total energy {int(inst.energies.sum())}"
        )
    n, k = inst.n_agents, inst.n_tasks
    assignment = np.zeros((n, k), dtype=np.int64)
    ps = params.pack_size
    for i in range(n):
        b = int(inst.budgets[i])
        for _ in range(b // ps):
            assignment[i, int(rng.integers(k))] += ps
        rem = b % ps
        if rem:
            assignment[i, int(rng.integers(k))] += rem
    return assignment


def _objective(params: CsaParams) -> Callable[[np.ndarray, np.ndarray], float]:
    """The ``mu2_of_assignment`` of the walk ``params.objective`` names."""
    return (bipartite if params.objective == "bipartite" else spectral).mu2_of_assignment


def _overrun(assignment: np.ndarray, inst: ProblemInstance) -> float:
    """Total budget overrun; moves conserve row sums, so a chain keeps its own."""
    return float(np.maximum(assignment.sum(axis=1) - inst.budgets, 0).sum())


def _evaluate_full(
    sub: np.ndarray,
    e_tilde: np.ndarray,
    overrun: float,
    inst: ProblemInstance,
    params: CsaParams,
    mu2_of: Callable[[np.ndarray, np.ndarray], float],
) -> tuple[float, float]:
    """(penalty, mu2) of the budgeted rows ``sub``. Disconnected candidates get -inf.

    Connected means that every budgeted agent holds a unit, every task has a
    budgeted holder and they all reach each other; ``mu2_of`` raises
    otherwise.
    """
    try:
        mu2 = mu2_of(inst.energies, sub)
    except (DegreeError, ReducibleChainError):
        return -math.inf, math.nan
    penalty = (
        mu2
        - params.agent_penalty * overrun
        - params.task_penalty * float(np.maximum(e_tilde, 0).sum())
    )
    if params.tasks_factor or params.teammates_factor:
        tasks_pa, teammates_pa = factor_metrics(sub)
        penalty -= params.tasks_factor * tasks_pa + params.teammates_factor * teammates_pa
    return penalty, mu2


def _feasible(e_tilde: np.ndarray, overrun: float, penalty: float) -> bool:
    """Within every budget, every task met, and connected (a finite penalty)."""
    return overrun == 0 and bool((e_tilde <= 0).all()) and math.isfinite(penalty)


def _weighted_pick(rng: np.random.Generator, weights: list[int]) -> int:
    """A position drawn proportional to the positive integer ``weights``."""
    cum = list(accumulate(weights))
    return min(bisect_right(cum, rng.random() * cum[-1]), len(weights) - 1)


def _shift(b: np.ndarray, members: list[list[int]], agent: int, source: int, target: int) -> None:
    """Move one of ``agent``'s units from task ``source`` to ``target``, keeping ``members``.

    A changed list is replaced by a new one, never edited in place, so a
    shallow copy of ``members`` taken before keeps the old lists.
    """
    left, held = b.item(agent, source) - 1, b.item(agent, target) + 1
    b[agent, source], b[agent, target] = left, held
    if not left:
        members[source] = [i for i in members[source] if i != agent]
    if held == 1:
        members[target] = joined = members[target].copy()
        insort(joined, agent)


def perturb(
    assignment: np.ndarray,
    e_tilde: np.ndarray,
    params: CsaParams,
    rng: np.random.Generator,
    *,
    members: list[list[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one batch of moves; returns new (assignment, shortfall) copies.

    With probability ``p_guided`` (and whenever both a surplus task and a
    deficit task exist) a unit migrates from surplus to deficit, the donor
    chosen proportional to surplus and the recipient proportional to deficit;
    otherwise one unit is swapped between two random non-empty tasks, which
    leaves all task totals unchanged.

    ``members``, when given, is each task's ascending holder list of
    ``assignment`` (see ``anneal``); it is updated in place to the returned
    assignment's, each changed task getting a new list. Without it the lists
    are built from ``assignment``. Either way the moves and draws are the same.
    """
    b = np.array(assignment, dtype=np.int64)
    e = np.asarray(e_tilde, dtype=np.int64).tolist()
    k = b.shape[1]
    if members is None:
        members = member_lists(b)[0]
    # swaps keep every task total and guided moves only shrink entries: scan once, then prune
    surplus, deficit = [j for j, x in enumerate(e) if x < 0], [j for j, x in enumerate(e) if x > 0]
    spare, need = [-e[j] for j in surplus], [e[j] for j in deficit]
    for _ in range(params.resolve_moves(*b.shape)):
        if deficit and surplus and rng.random() < params.p_guided:
            i, j = _weighted_pick(rng, spare), _weighted_pick(rng, need)
            donor, recipient = surplus[i], deficit[j]
            held = members[donor]
            agent = held[rng.integers(len(held))]
            _shift(b, members, agent, donor, recipient)
            e[donor] += 1
            e[recipient] -= 1
            spare[i] -= 1
            need[j] -= 1
            if not spare[i]:
                del surplus[i], spare[i]
            if not need[j]:
                del deficit[j], need[j]
            continue
        if k < 2:
            continue
        for _ in range(_SWAP_RETRIES):
            k1, k2 = rng.choice(k, size=2, replace=False)
            m1, m2 = members[k1], members[k2]
            if m1 and m2:
                u = m1[rng.integers(len(m1))]
                v = m2[rng.integers(len(m2))]
                _shift(b, members, u, k1, k2)
                _shift(b, members, v, k2, k1)
                break
        # all retries hit an empty task: the move degrades to a no-op
    return b, np.array(e, dtype=np.int64)


def anneal(
    inst: ProblemInstance,
    params: CsaParams | None = None,
    *,
    initial: np.ndarray | None = None,
) -> OptimizationResult:
    """Run the annealing chain and return the best feasible state found.

    The best state is kept as one record ordered by (feasible, penalty): any
    feasible state outranks every infeasible one, and a record is replaced
    only by a strictly better state. If no feasible state is ever seen, the
    best state by penalty is returned with ``feasible=False``. ``initial``
    overrides the random full-budget initialization, e.g. to continue from a
    known-good assignment; it must hold non-negative whole unit counts.
    """
    params = params or CsaParams()
    rng_init = substream(params.seed, "csa-init")
    rng_chain = substream(params.seed, "csa-chain")
    if initial is None:
        current = initialize_assignment(inst, params, rng_init)
    else:
        given = np.asarray(initial)
        if given.shape != (inst.n_agents, inst.n_tasks):
            raise ValueError("initial assignment has the wrong shape")
        if not (np.isfinite(given) & (given == np.round(given))).all():
            raise ValueError("initial assignment must hold whole unit counts")
        if (given < 0).any():
            raise ValueError("initial assignment has negative entries")
        if inst.budgets.sum() < inst.energies.sum():
            raise InfeasibleError("total budget cannot cover total energy")
        current = given.astype(np.int64)

    mu2_of, rows, row_sums = _objective(params), inst.budgets > 0, current.sum(axis=1)
    # scored whole when every agent has a budget, with no copy of the rows
    budgeted = (lambda b: b) if rows.all() else (lambda b: b[rows])
    overrun, e_tilde = _overrun(current, inst), inst.energies - current.sum(axis=0)
    penalty, mu2 = _evaluate_full(budgeted(current), e_tilde, overrun, inst, params, mu2_of)
    feasible = _feasible(e_tilde, overrun, penalty)
    best = (feasible, penalty, mu2, current.copy())

    temperature = params.t0
    trace = [TraceRow(0, temperature, penalty, mu2, feasible, True)]
    members = member_lists(current)[0]
    t = 0
    while temperature > params.t_threshold and t < params.max_iters:
        # perturb replaces the lists it changes, so the current state keeps its own
        cand_members = members.copy()
        candidate, cand_e = perturb(current, e_tilde, params, rng_chain, members=cand_members)
        if __debug__ and t % 1000 == 0:
            assert np.array_equal(cand_e, inst.energies - candidate.sum(axis=0)), "shortfall drifted"
            assert np.array_equal(candidate.sum(axis=1), row_sums), "a move changed a row sum"
            assert cand_members == member_lists(candidate)[0], "a member list drifted"
        cand_penalty, cand_mu2 = _evaluate_full(
            budgeted(candidate), cand_e, overrun, inst, params, mu2_of
        )
        if math.isinf(cand_penalty) and cand_penalty < 0:
            accepted = False
        elif cand_penalty >= penalty:
            accepted = True
        else:
            accepted = rng_chain.random() < math.exp((cand_penalty - penalty) / temperature)
        if accepted:
            current, penalty, mu2, e_tilde = candidate, cand_penalty, cand_mu2, cand_e
            members = cand_members
            feasible = _feasible(e_tilde, overrun, penalty)
            if (feasible, penalty) > best[:2]:
                best = (feasible, penalty, mu2, current.copy())
        temperature *= params.cooling
        t += 1
        trace.append(TraceRow(t, temperature, penalty, mu2, feasible, accepted))

    best_feasible, best_penalty, best_mu2, best_assignment = best
    return OptimizationResult(
        best_assignment=best_assignment,
        best_penalty=best_penalty,
        best_mu2=best_mu2,
        feasible=best_feasible,
        trace=trace,
        iterations_run=t,
        notes=() if best_feasible else ("no feasible state visited",),
    )

