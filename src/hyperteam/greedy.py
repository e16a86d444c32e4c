"""Two-phase greedy baseline optimizer.

A centralized initialization picks high-budget hub agents until every task is
touched, chaining consecutive hubs through a shared task so the seed
hypergraph is connected. Phase 1 then fills task shortfalls one packet at a
time, each time applying the single (agent, task) increment with the best
connectivity gain per unit over all open tasks and all agents with budget.
Phase 2 spends whatever budget is left the same way, except the task choice
is unrestricted; negative-gain moves are rejected outright, or accepted with
a Metropolis probability when ``stochastic_accept`` is on.

Both phases switch to a cheaper rule once more agents have budget left than
``random_threshold``: the agent is drawn uniformly at random and only that
agent's task options are scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import spectral
from .csa import OptimizationResult, TraceRow
from .errors import ConvergenceError, InfeasibleError, ReducibleChainError, StallError
from .instance import ProblemInstance, reaches_all, validate
from .seeds import substream

__all__ = [
    "GreedyParams",
    "centralized_init",
    "phase1",
    "phase2",
    "greedy_optimize",
]


@dataclass
class GreedyParams:
    packet_size: int = 1  # units offered per assignment step
    stochastic_accept: bool = False
    phase2_temperature: float = 1.0
    random_threshold: int = 50  # above this many candidate agents, sample one
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("packet_size", Integral), ("random_threshold", Integral), ("seed", Integral),
                           ("phase2_temperature", Real), ("stochastic_accept", bool)):
            value = getattr(self, name)
            # bool is an Integral, but a flag is no count or rate
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                what = {Integral: "an integer", Real: "a real number", bool: "True or False"}[kind]
                raise ValueError(f"{name} must be {what}, not {value!r}")
        if self.packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        if self.phase2_temperature <= 0:
            raise ValueError("phase2_temperature must be positive")
        if self.random_threshold < 1:
            raise ValueError("random_threshold must be >= 1")


def centralized_init(inst: ProblemInstance) -> np.ndarray:
    """Hub-based seed assignment touching every task, connected by chaining.

    Agents are consumed in descending budget order. The first hub puts one
    unit on as many uncovered tasks as its budget allows; every later hub
    first spends one unit on the lowest-index task covered by the previous
    hub (the chain link), then covers more tasks with its remaining budget.
    """
    order = sorted(range(inst.n_agents), key=lambda i: (-int(inst.budgets[i]), i))
    assignment = np.zeros((inst.n_agents, inst.n_tasks), dtype=np.int64)
    uncovered = list(range(inst.n_tasks))
    prev_hub_covered: list[int] = []
    prev_hub_touched: list[int] = []
    for agent in order:
        if not uncovered:
            break
        budget = int(inst.budgets[agent])
        if budget <= 0:
            continue
        touched: list[int] = []
        if prev_hub_touched:
            link = min(prev_hub_covered) if prev_hub_covered else min(prev_hub_touched)
            assignment[agent, link] += 1
            budget -= 1
            touched.append(link)
        covered: list[int] = []
        while budget > 0 and uncovered:
            k = uncovered.pop(0)
            assignment[agent, k] += 1
            budget -= 1
            covered.append(k)
        if not covered and uncovered:
            # chain-only hub: no coverage progress, try the next agent
            if touched:
                prev_hub_covered, prev_hub_touched = covered, touched
            continue
        prev_hub_covered, prev_hub_touched = covered, touched + covered
    if uncovered:
        raise StallError(
            f"hub capacity exhausted with {len(uncovered)} task(s) still uncovered"
        )
    return assignment


def _mu2(inst: ProblemInstance, assignment: np.ndarray) -> float:
    """mu2 of the active part; 0 when that part is disconnected."""
    try:
        return spectral.mu2_of_assignment(inst.energies, assignment)
    except ReducibleChainError:
        return 0.0


def _offer_stack(
    b: np.ndarray,
    rows_on: np.ndarray,
    cols_on: np.ndarray,
    agents: np.ndarray,
    tasks: np.ndarray,
    units: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Active parts of ``b`` after each offer, for offers of one active shape.

    Rows and columns keep their index order, as ``mu2_of_assignment`` cuts
    them. Returns the (C, n, k) stack and each part's task columns.
    """
    rows = np.broadcast_to(np.flatnonzero(rows_on), (len(agents), int(rows_on.sum())))
    cols = np.broadcast_to(np.flatnonzero(cols_on), (len(tasks), int(cols_on.sum())))
    if not rows_on[agents[0]]:
        rows = np.sort(np.column_stack([rows, agents]), axis=1)
    if not cols_on[tasks[0]]:
        cols = np.sort(np.column_stack([cols, tasks]), axis=1)
    stack = b[rows[:, :, np.newaxis], cols[:, np.newaxis, :]]
    at_agent = (rows < agents[:, np.newaxis]).sum(axis=1)
    at_task = (cols < tasks[:, np.newaxis]).sum(axis=1)
    stack[np.arange(len(agents)), at_agent, at_task] += units
    return stack, cols


def _eig_mu2(energies: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """mu2 of each assignment of a (C, n, k) active-shape stack, pi from a dense ``eig``.

    The left eigenvector of each chain at eigenvalue 1, normalized to sum 1,
    with a ConvergenceError when no eigenvalue is near 1, the eigenvector
    sums to 0 or it has mass below -1e-9. Only ``_best_offer``'s tie
    re-score uses it: greedy's recorded assignments rest on this pi's
    roundoff between exactly tied offers (ROADMAP.md item 1).
    """
    P = spectral.transition_matrix(spectral.edvw_matrices(energies, stack))
    evals, evecs = np.linalg.eig(np.swapaxes(P, -1, -2))
    chains = np.arange(len(P))
    idx = np.abs(evals - 1.0).argmin(axis=-1)
    if (np.abs(evals[chains, idx] - 1.0) > 1e-6).any():
        raise ConvergenceError("no eigenvalue close to 1; is the chain stochastic?")
    pi = evecs[chains, :, idx].real
    total = pi.sum(axis=-1, keepdims=True)
    if (np.abs(total) < 1e-12).any():
        raise ConvergenceError("degenerate stationary eigenvector")
    pi = pi / total
    if pi.min() < -1e-9:
        raise ConvergenceError("stationary eigenvector has negative mass; chain may be reducible")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum(axis=-1, keepdims=True)
    return spectral.spectrum(spectral.laplacian(P, pi))[:, 1]


def _best_offer(
    inst: ProblemInstance,
    b: np.ndarray,
    agents: np.ndarray,
    tasks: np.ndarray,
    units: np.ndarray,
) -> tuple[float, float, int, int, int]:
    """(base mu2, gain, agent, task, units) of the best offer on ``b``.

    Offer i puts ``units[i]`` more on (agents[i], tasks[i]). The gain is the
    mu2 change per unit; offers come in (agent, task) order and the first
    maximum wins. A candidate's active part is the base's plus the offer's
    agent and task, so offers fall into at most four active shapes: waking
    an idle agent or not, filling an empty task or not. Each shape is
    stacked and scored with ``mu2_batch`` in slices of the size it scores
    in one chunk. Offers that wake an idle agent onto an active task are
    scored once per (task, units) class, by the class's first offer, whose
    mu2 every member takes: they differ only by a row permutation. The
    offers whose gain lies within ``1e-9 * max mu2`` of the top are then
    re-scored one by one with ``_eig_mu2``, and the first maximum of those
    wins: the solve and ``eig`` agree to about 1e-14, far inside the
    window, so this is the offer an all-``eig`` scan would pick.
    """
    base = _mu2(inst, b)
    # an offer that joins the base's agents or tasks keeps a connected base
    # connected; a base of 0 (split, or under two active agents) gets every
    # candidate checked, and a split candidate scores 0
    check = base == 0.0
    rows_on, cols_on = b.sum(axis=1) > 0, b.sum(axis=0) > 0
    shape = 2 * rows_on[agents] + cols_on[tasks]
    mu2 = np.zeros(len(agents))
    for key in np.unique(shape):
        if key == 0:
            # an idle agent alone on an empty task is split from the base, or
            # the only active agent: it scores 0
            continue
        group = np.flatnonzero(shape == key)
        woken, filled = key < 2, key % 2 == 0
        # waking any idle agent with the same units on the same task gives the
        # same hypergraph up to a row permutation, and mu2 and connectivity
        # ignore row order: each such class scores its first offer
        classes = np.column_stack([tasks[group], units[group]]) if key == 1 else group
        _, first, members = np.unique(classes, axis=0, return_index=True, return_inverse=True)
        offers = group[first]
        scored = np.zeros(offers.size)
        size = spectral.batch_rows(int(rows_on.sum() + woken), int(cols_on.sum() + filled))
        for lo in range(0, offers.size, size):
            sel = offers[lo : lo + size]
            stack, cols = _offer_stack(b, rows_on, cols_on, agents[sel], tasks[sel], units[sel])
            keep = reaches_all(stack > 0) if check else slice(None)
            scored[lo : lo + size][keep] = spectral.mu2_batch(inst.energies[cols[keep]], stack[keep])
        mu2[group] = scored[members.reshape(-1)]
    gains = (mu2 - base) / units
    window = np.flatnonzero(gains >= gains.max() - 1e-9 * mu2.max())
    # only connected candidates of two agents or more score above 0
    rescore = window[mu2[window] > 0]
    for key in np.unique(shape[rescore]):
        sel = rescore[shape[rescore] == key]
        stack, cols = _offer_stack(b, rows_on, cols_on, agents[sel], tasks[sel], units[sel])
        gains[sel] = (_eig_mu2(inst.energies[cols], stack) - base) / units[sel]
    i = int(window[np.argmax(gains[window])])
    return base, float(gains[i]), int(agents[i]), int(tasks[i]), int(units[i])


def phase1(
    inst: ProblemInstance,
    assignment: np.ndarray,
    params: GreedyParams | None = None,
    trace: list[TraceRow] | None = None,
) -> np.ndarray:
    """Fill every task's energy shortfall, best connectivity gain per unit first.

    One packet lands per round. Every agent with remaining budget offers
    ``min(remaining, shortfall, packet_size)`` units to every still-short
    task; the offer with the highest mu2 gain per unit wins, the first in
    (agent, task) order among equal gains. Idle agents offering the same
    units to the same active task score alike, so each such class is
    scored once. Offers tied in exact arithmetic are split by roundoff:
    the offers near the top, every member of a class among them, are
    re-scored one by one with a dense ``eig`` pi, which goes when
    ROADMAP.md item 1's lowest-index tie rule lands. A disconnected active
    part scores mu2 = 0. When
    more agents have budget than ``random_threshold``, the agent is drawn
    uniformly at random and only that agent's offers are scored.
    """
    params = params or GreedyParams()
    rng = substream(params.seed, "greedy-phase1")
    b = np.array(assignment, dtype=np.int64)
    remaining = inst.budgets - b.sum(axis=1)
    if np.any(remaining < 0):
        raise ValueError("seed assignment exceeds a budget")
    shortfall = inst.energies - b.sum(axis=0)
    step = 0
    while np.any(shortfall > 0):
        open_tasks = np.flatnonzero(shortfall > 0)
        available = np.flatnonzero(remaining > 0)
        if available.size == 0:
            raise StallError(
                "no remaining budget while tasks are still short (greedy infeasible)"
            )
        if available.size > params.random_threshold:
            available = available[[rng.integers(available.size)]]
        agents = np.repeat(available, open_tasks.size)
        tasks = np.tile(open_tasks, available.size)
        offered = np.minimum(np.minimum(remaining[agents], shortfall[tasks]), params.packet_size)
        base, best_gain, agent, task, units = _best_offer(inst, b, agents, tasks, offered)
        b[agent, task] += units
        remaining[agent] -= units
        shortfall[task] -= units
        step += 1
        if trace is not None:
            mu2 = base + best_gain * units
            trace.append(
                TraceRow(step, 0.0, mu2, mu2, bool(np.all(shortfall <= 0)), True, "1")
            )
    return b


def phase2(
    inst: ProblemInstance,
    assignment: np.ndarray,
    params: GreedyParams | None = None,
    trace: list[TraceRow] | None = None,
) -> np.ndarray:
    """Spend leftover budget on the tasks with the best connectivity gain.

    One packet lands per round: every agent with remaining budget offers
    ``min(remaining, packet_size)`` units to every task, and the single best
    gain-per-unit offer is applied (ties resolved as in phase 1). A round
    whose best offer is negative ends the phase when ``stochastic_accept``
    is off, leaving the rest of the budget unspent; with it on, the offer is
    instead accepted with probability exp(gain / temperature) and re-drawn
    next round otherwise. The same ``random_threshold`` shortcut as phase 1
    applies.
    """
    params = params or GreedyParams()
    rng = substream(params.seed, "greedy-phase2")
    b = np.array(assignment, dtype=np.int64)
    remaining = inst.budgets - b.sum(axis=1)
    if np.any(remaining < 0):
        raise ValueError("assignment exceeds a budget")
    step = 0
    max_rounds = 2 * int(remaining.sum() // params.packet_size) + inst.n_agents + 1
    for _ in range(max_rounds):
        available = np.flatnonzero(remaining > 0)
        if available.size == 0:
            break
        exhaustive = available.size <= params.random_threshold
        if not exhaustive:
            available = available[[rng.integers(available.size)]]
        agents = np.repeat(available, inst.n_tasks)
        tasks = np.tile(np.arange(inst.n_tasks), available.size)
        offered = np.minimum(remaining[agents], params.packet_size)
        base, best_gain, agent, task, units = _best_offer(inst, b, agents, tasks, offered)
        accept = best_gain >= 0
        if not accept:
            if not params.stochastic_accept:
                if exhaustive:
                    # no move anywhere can help; spending more only hurts
                    break
                continue  # unlucky draw, burn the round and redraw
            accept = rng.random() < math.exp(
                best_gain * units / params.phase2_temperature
            )
        if accept:
            b[agent, task] += units
            remaining[agent] -= units
            step += 1
            if trace is not None:
                mu2 = base + best_gain * units
                trace.append(TraceRow(step, 0.0, mu2, mu2, True, True, "2"))
    return b


def greedy_optimize(inst: ProblemInstance, params: GreedyParams | None = None) -> OptimizationResult:
    """Centralized init, then phase 1 (feasibility) and phase 2 (spare budget).

    Phase 2 is skipped when there is no spare budget at all, i.e. when total
    budget equals total energy; the skip is recorded in the result notes.
    """
    params = params or GreedyParams()
    if inst.budgets.sum() < inst.energies.sum():
        raise InfeasibleError("total budget cannot cover total energy")
    trace: list[TraceRow] = []
    seed_assignment = centralized_init(inst)
    mu2_seed = _mu2(inst, seed_assignment)
    seed_feasible = bool(np.all(inst.energies - seed_assignment.sum(axis=0) <= 0))
    trace.append(TraceRow(0, 0.0, mu2_seed, mu2_seed, seed_feasible, True, "init"))
    filled = phase1(inst, seed_assignment, params, trace)
    notes: tuple[str, ...] = ()
    if int(inst.budgets.sum()) == int(inst.energies.sum()):
        notes = ("phase 2 skipped: no spare budget (total budget equals total energy)",)
        final = filled
    else:
        final = phase2(inst, filled, params, trace)
    mu2 = _mu2(inst, final)
    report = validate(inst.with_assignment(final))
    # connectivity is judged over participating agents only: an agent that
    # spends nothing is not part of the produced hypergraph
    active = final.sum(axis=1) > 0
    return OptimizationResult(
        best_assignment=final,
        best_penalty=mu2,
        best_mu2=mu2,
        feasible=report.feasible and bool(reaches_all(final[active] > 0)),
        trace=trace,
        iterations_run=len(trace) - 1,
        notes=notes,
    )
