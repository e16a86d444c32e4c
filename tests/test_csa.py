"""Annealing optimizer: initialization, penalty, moves, and the chain itself."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    eig_mu2,
    full_lift_mu2,
    make_instance,
    random_connected_instance,
    subprocess_env,
    toy_path,
)
from hyperteam import bipartite, csa, spectral
from hyperteam.bipartite import bipartite_connectivity
from hyperteam.csa import (
    CsaParams,
    anneal,
    evaluate,
    factor_metrics,
    initialize_assignment,
    perturb,
    random_feasible_assignment,
)
from hyperteam.errors import ConvergenceError, InfeasibleError, ReducibleChainError
from hyperteam.instance import ProblemInstance, bipartite_components, reaches_all, summary_stats
from hyperteam.spectral import mu2_of_assignment


def _candidate_connected(assignment: np.ndarray, active: np.ndarray) -> bool:
    """Connectivity of the hypergraph on budget-positive agents and all tasks.

    The annealer's former test, kept as an oracle: two pre-checks, then a
    component count.
    """
    x = assignment > 0
    if not x.any(axis=0).all():  # a task nobody works on
        return False
    xa = x[active]
    if xa.shape[0] == 0 or not xa.any(axis=1).all():
        return False
    count, _, _ = bipartite_components(xa)
    return count == 1


def _slack_instance(seed=0, n=10, k=4, slack=2):
    rng = np.random.default_rng(seed)
    return random_connected_instance(rng, n, k, slack=slack)


def test_initialize_spends_every_budget():
    inst = _slack_instance()
    rng = np.random.default_rng(0)
    a = initialize_assignment(inst, CsaParams(), rng)
    assert np.array_equal(a.sum(axis=1), inst.budgets)
    assert (a >= 0).all()


def test_initialize_pack_structure():
    inst = make_instance(np.ones((3, 4), dtype=np.int64), budgets=[7, 7, 7], energies=[1, 1, 1, 1])
    rng = np.random.default_rng(5)
    params = CsaParams(pack_size=3)
    a = initialize_assignment(inst, params, rng)
    assert np.array_equal(a.sum(axis=1), [7, 7, 7])
    for row in a:
        # everything lands in packs of 3 except at most one remainder slot
        assert (row % 3 != 0).sum() <= 1


def test_initialize_deterministic_per_stream():
    inst = _slack_instance()
    a1 = initialize_assignment(inst, CsaParams(), np.random.default_rng(9))
    a2 = initialize_assignment(inst, CsaParams(), np.random.default_rng(9))
    assert np.array_equal(a1, a2)


def test_initialize_requires_enough_budget():
    inst = make_instance([[1], [1]], budgets=[1, 1], energies=[5])
    with pytest.raises(InfeasibleError):
        initialize_assignment(inst, CsaParams(), np.random.default_rng(0))


def test_evaluate_overrun_penalty():
    inst = make_instance([[2], [2]], energies=[4])
    penalty, e_tilde = evaluate(np.array([[3], [3]]), inst, CsaParams())
    # mu2 of the balanced pair is 1/2; two units over budget cost 10 each
    assert math.isclose(penalty, 0.5 - 20.0, abs_tol=1e-12)
    assert np.array_equal(e_tilde, [-2])


def test_evaluate_shortfall_penalty():
    inst = make_instance([[2], [2]], energies=[5])
    penalty, e_tilde = evaluate(np.array([[1], [1]]), inst, CsaParams())
    assert math.isclose(penalty, 0.5 - 30.0, abs_tol=1e-12)
    assert np.array_equal(e_tilde, [3])


def test_evaluate_feasible_equals_mu2():
    inst = make_instance([[2], [2]], energies=[4])
    penalty, e_tilde = evaluate(np.array([[2], [2]]), inst, CsaParams())
    assert penalty == mu2_of_assignment(np.asarray(inst.energies), np.array([[2], [2]]))
    assert np.array_equal(e_tilde, [0])


def test_evaluate_disconnected_is_rejected_outright():
    inst = make_instance([[1, 0], [0, 1]], energies=[1, 1])
    penalty, _ = evaluate(np.array([[1, 0], [0, 1]]), inst, CsaParams())
    assert penalty == -math.inf


def test_reach_test_matches_the_component_oracle():
    rng = np.random.default_rng(21)
    seen = {"unbudgeted holder": 0, "idle budgeted": 0, "uncovered task": 0}
    outcomes = set()
    for _ in range(400):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        budgets = rng.integers(0, 3, size=n)
        a = rng.integers(0, 3, size=(n, k)) * (rng.random((n, k)) < rng.uniform(0.2, 0.8))
        inst = make_instance(np.ones((n, k), dtype=np.int64), budgets=budgets, energies=[1] * k)
        active = inst.budgets > 0
        want = _candidate_connected(a, active)
        assert bool(reaches_all(a[active] > 0)) == want
        for objective in ("hypergraph", "bipartite"):
            penalty, _ = evaluate(a, inst, CsaParams(objective=objective))
            assert math.isfinite(penalty) == want
        outcomes.add(want)
        seen["unbudgeted holder"] += bool((a[~active] > 0).any())
        seen["idle budgeted"] += bool((a[active].sum(axis=1) == 0).any())
        seen["uncovered task"] += bool((a.sum(axis=0) == 0).any())
    assert outcomes == {True, False}
    assert min(seen.values()) > 20


@pytest.mark.parametrize("objective", ["hypergraph", "bipartite"])
def test_a_failed_solve_is_not_taken_for_a_split(monkeypatch, objective):
    # only a reducible chain means "disconnected"; other solver failures raise
    def failing(energies, assignment):
        raise ConvergenceError("stationary residual above 1e-9")

    module = bipartite if objective == "bipartite" else spectral
    monkeypatch.setattr(module, "mu2_of_assignment", failing)
    with pytest.raises(ConvergenceError) as info:
        anneal(_slack_instance(seed=4), CsaParams(max_iters=5, objective=objective))
    assert not isinstance(info.value, ReducibleChainError)


def test_a_candidate_with_an_empty_task_is_rejected():
    # the objective's degree check rejects an empty task
    inst = make_instance([[1, 1], [1, 1]], energies=[2, 2])
    for objective in ("hypergraph", "bipartite"):
        params = CsaParams(objective=objective)
        for candidate, finite in (([[2, 0], [2, 0]], False), ([[0, 2], [1, 1]], True)):
            penalty, _ = evaluate(np.array(candidate), inst, params)
            assert math.isfinite(penalty) == finite
    # one budgeted agent next to an empty task is rejected before it scores 0
    lone = make_instance([[2, 0], [0, 0]], budgets=[2, 0], energies=[1, 1])
    assert evaluate(np.array([[2, 0], [0, 0]]), lone, CsaParams())[0] == -math.inf
    assert evaluate(np.array([[1, 1], [0, 0]]), lone, CsaParams())[0] == 0.0


def test_an_initial_with_units_on_a_zero_budget_agent_keeps_the_column_test():
    # task 0 is met only by agent 0, who has no budget: the budgeted rows
    # leave it empty although the shortfall says it is covered
    inst = make_instance([[1, 0], [0, 2], [0, 2]], budgets=[0, 2, 2], energies=[1, 2])
    initial = np.array([[1, 0], [0, 2], [0, 2]])
    penalty, e_tilde = evaluate(initial, inst, CsaParams())
    assert penalty == -math.inf and not (e_tilde > 0).any()
    result = anneal(inst, CsaParams(max_iters=3), initial=initial)
    assert result.trace[0].penalty == -math.inf and not result.feasible


def test_anneal_scores_each_candidate_as_the_connectivity_oracle_does(monkeypatch):
    # idle budgeted agents, units on unbudgeted agents and empty tasks, at the
    # start or made by moves: a candidate scores -inf exactly when the oracle
    # calls its active part disconnected
    states, finite = [], []
    step, score = csa.perturb, csa._evaluate_full

    def recording_step(*args):
        candidate, e = step(*args)
        states.append(candidate)
        return candidate, e

    def recording_score(*args):
        out = score(*args)
        finite.append(math.isfinite(out[0]))
        return out

    monkeypatch.setattr(csa, "perturb", recording_step)
    monkeypatch.setattr(csa, "_evaluate_full", recording_score)
    rng = np.random.default_rng(31)
    seen = {"unbudgeted holder": 0, "idle budgeted": 0, "uncovered task": 0, "connected": 0}
    for seed in range(80):
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        budgets = rng.integers(0, 3, size=n)
        budgets[0] += k
        initial = rng.integers(0, 3, size=(n, k)) * (rng.random((n, k)) < rng.uniform(0.2, 0.8))
        inst = make_instance(np.ones((n, k), dtype=np.int64), budgets=budgets, energies=[1] * k)
        states[:], finite[:] = [initial], []
        anneal(inst, CsaParams(max_iters=15, seed=seed, p_guided=0.5), initial=initial)
        active = inst.budgets > 0
        want = [_candidate_connected(b, active) for b in states]
        assert finite == want
        seen["unbudgeted holder"] += bool((initial[~active] > 0).any())
        seen["idle budgeted"] += bool((initial[active].sum(axis=1) == 0).any())
        seen["uncovered task"] += sum(bool((b.sum(axis=0) == 0).any()) for b in states)
        seen["connected"] += sum(want)
    assert min(seen.values()) > 10, seen


@pytest.mark.parametrize(
    "params",
    [CsaParams(seed=0), CsaParams(cooling=0.98, seed=0, objective="bipartite")],
    ids=["hypergraph-default", "bipartite-0.98"],
)
def test_anneal_on_coauthor_small_never_searches_a_chain(monkeypatch, coauthor_small, params):
    # every candidate of these chains is scored, and its mu2 certifies it connected
    searches, scores = [], []
    search = spectral._irreducible
    module = bipartite if params.objective == "bipartite" else spectral
    mu2_of = module.mu2_of_assignment
    monkeypatch.setattr(spectral, "_irreducible", lambda P: searches.append(len(P)) or search(P))
    monkeypatch.setattr(module, "mu2_of_assignment", lambda e, a: scores.append(1) or mu2_of(e, a))
    result = anneal(coauthor_small, params)
    assert searches == []
    assert len(scores) == result.iterations_run + 1


def test_evaluate_factor_terms():
    inst = make_instance([[1], [1], [1]])
    params = CsaParams(tasks_factor=1.0, teammates_factor=2.0)
    penalty, _ = evaluate(np.asarray(inst.assignment), inst, params)
    assert math.isclose(penalty, 1 / 3 - 1.0 - 4.0, abs_tol=1e-12)


def test_factor_metrics_match_summary_stats():
    inst = _slack_instance(seed=3)
    a = np.asarray(inst.assignment)
    tasks_pa, teammates = factor_metrics(a)
    rec = summary_stats(inst)
    assert math.isclose(tasks_pa, rec.tasks_per_agent)
    assert math.isclose(teammates, rec.teammates_per_agent)


def test_perturb_conserves_row_sums():
    inst = _slack_instance(seed=1)
    params = CsaParams()
    rng = np.random.default_rng(2)
    a = initialize_assignment(inst, params, rng)
    rows = a.sum(axis=1).copy()
    e = np.asarray(inst.energies) - a.sum(axis=0)
    for _ in range(200):
        a, e = perturb(a, e, params, rng)
        assert np.array_equal(a.sum(axis=1), rows)
        assert np.array_equal(e, np.asarray(inst.energies) - a.sum(axis=0))


def test_perturb_guided_step_moves_one_unit():
    inst = make_instance([[0, 4]], budgets=[4], energies=[2, 2])
    params = CsaParams(p_guided=1.0, moves_per_step=1)
    a, e = perturb(
        np.array([[0, 4]]),
        np.array([2, -2]),
        params,
        np.random.default_rng(0),
    )
    assert np.array_equal(a, [[1, 3]])
    assert np.array_equal(e, [1, -1])


def test_perturb_swaps_preserve_task_totals():
    inst = _slack_instance(seed=4)
    params = CsaParams(p_guided=0.0, moves_per_step=3)
    rng = np.random.default_rng(6)
    a = initialize_assignment(inst, params, rng)
    cols = a.sum(axis=0).copy()
    for _ in range(100):
        a, e = perturb(a, np.asarray(inst.energies) - a.sum(axis=0), params, rng)
        assert np.array_equal(a.sum(axis=0), cols)


def test_perturb_without_deficit_only_swaps():
    # all tasks already covered, so even p_guided=1 falls back to swaps
    a0 = np.array([[2, 1], [1, 2]])
    params = CsaParams(p_guided=1.0, moves_per_step=1)
    rng = np.random.default_rng(7)
    cols = a0.sum(axis=0)
    for _ in range(50):
        a, _ = perturb(a0, np.array([-1, -1]), params, rng)
        assert np.array_equal(a.sum(axis=0), cols)


def _weighted_pick_oracle(rng, indices, weights):
    cum = np.cumsum(weights, dtype=np.float64)
    u = rng.random() * cum[-1]
    pos = int(np.searchsorted(cum, u, side="right"))
    return int(indices[min(pos, len(indices) - 1)])


def _perturb_oracle(assignment, e_tilde, params, rng):
    """The move with numpy bookkeeping, as ``perturb`` once was; kept as an oracle."""
    b = np.array(assignment, dtype=np.int64)
    e = np.array(e_tilde, dtype=np.int64)
    k = b.shape[1]
    for _ in range(params.resolve_moves(*b.shape)):
        deficit = np.flatnonzero(e > 0)
        surplus = np.flatnonzero(e < 0)
        if deficit.size and surplus.size and rng.random() < params.p_guided:
            donor = _weighted_pick_oracle(rng, surplus, -e[surplus].astype(np.float64))
            recipient = _weighted_pick_oracle(rng, deficit, e[deficit].astype(np.float64))
            members = np.flatnonzero(b[:, donor] > 0)
            agent = int(members[rng.integers(members.size)])
            b[agent, donor] -= 1
            b[agent, recipient] += 1
            e[donor] += 1
            e[recipient] -= 1
            continue
        if k < 2:
            continue
        for _ in range(16):
            k1, k2 = rng.choice(k, size=2, replace=False)
            m1 = np.flatnonzero(b[:, k1] > 0)
            m2 = np.flatnonzero(b[:, k2] > 0)
            if m1.size and m2.size:
                u = int(m1[rng.integers(m1.size)])
                v = int(m2[rng.integers(m2.size)])
                b[u, k1] -= 1
                b[u, k2] += 1
                b[v, k2] -= 1
                b[v, k1] += 1
                break
    return b, e


def test_perturb_matches_the_numpy_oracle():
    # same moves, same shortfall and the same generator state afterwards
    seen = {"K=1": 0, "swap retries run out": 0, "guided": 0, "swap": 0, "pack_size > 1": 0}
    seen["a task leaves its list"] = 0
    draw = np.random.default_rng(31)
    for case in range(300):
        n, k = int(draw.integers(1, 9)), int(draw.integers(1, 5))
        a = draw.integers(0, 4, size=(n, k)) * (draw.random((n, k)) < 0.6)
        if case % 3 == 0 and k > 1:
            a[:, int(draw.integers(k))] = 0  # a swap that picks this task retries
        energies = draw.integers(0, 3 * n + 1, size=k)
        params = CsaParams(
            p_guided=float(draw.choice([0.0, 0.5, 1.0])),
            pack_size=int(draw.integers(1, 4)),
            moves_per_step=int(draw.integers(1, 6)),
        )
        seed = int(draw.integers(1 << 30))
        fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = slow = (a, energies - a.sum(axis=0))
        e = fast[1]
        seen["K=1"] += k == 1
        seen["swap retries run out"] += k == 2 and (a.sum(axis=0) == 0).any() and params.p_guided == 0
        seen["guided"] += (e > 0).any() and (e < 0).any() and params.p_guided > 0
        seen["swap"] += k > 1 and params.p_guided < 1
        seen["pack_size > 1"] += params.pack_size > 1
        for _ in range(4):
            before = fast[1]
            fast = perturb(*fast, params, fast_rng)
            slow = _perturb_oracle(*slow, params, slow_rng)
            assert np.array_equal(fast[0], slow[0]) and fast[0].dtype == slow[0].dtype
            assert np.array_equal(fast[1], slow[1]) and fast[1].dtype == slow[1].dtype
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
            seen["a task leaves its list"] += bool(((before != 0) & (fast[1] == 0)).any())
    assert min(seen.values()) >= 10, seen


def test_perturb_single_covered_task_is_noop():
    a0 = np.array([[3], [2]])
    a, e = perturb(a0, np.array([-1]), CsaParams(moves_per_step=2), np.random.default_rng(0))
    assert np.array_equal(a, a0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cooling": 1.0},
        {"cooling": 0.0},
        {"t0": 0.0},
        {"t_threshold": 0.0},
        {"pack_size": 0},
        {"p_guided": 1.5},
        {"objective": "simplex"},
    ],
)
def test_bad_params_rejected(kwargs):
    with pytest.raises(ValueError):
        CsaParams(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iters", "5"),
        ("max_iters", 5.0),
        ("pack_size", 1.5),
        ("moves_per_step", 2.5),
        ("seed", True),
        ("cooling", "0.9"),
        ("task_penalty", None),
        ("teammates_factor", False),
    ],
)
def test_params_of_the_wrong_type_name_their_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        CsaParams(**{field: value})


def test_params_take_numpy_numbers():
    params = CsaParams(max_iters=np.int64(5), cooling=np.float64(0.9), moves_per_step=np.int32(2))
    assert params.resolve_moves(3, 3) == 2


def test_moves_per_step_default_scales_with_size():
    assert CsaParams().resolve_moves(10, 4) == 1
    assert CsaParams().resolve_moves(781, 704) == 30
    assert CsaParams(moves_per_step=5).resolve_moves(3, 3) == 5
    with pytest.raises(ValueError, match="^moves_per_step must be >= 1"):
        CsaParams(moves_per_step=0)


def test_anneal_deterministic():
    inst = _slack_instance(seed=8, n=8, k=3)
    params = CsaParams(t_threshold=0.2, seed=13)
    r1 = anneal(inst, params)
    r2 = anneal(inst, params)
    assert np.array_equal(r1.best_assignment, r2.best_assignment)
    assert r1.best_penalty == r2.best_penalty
    assert len(r1.trace) == len(r2.trace)
    assert r1.iterations_run == r2.iterations_run


def test_anneal_frozen_chain_returns_initial():
    inst = _slack_instance(seed=9, n=8, k=3)
    rng = np.random.default_rng(0)
    initial = random_feasible_assignment(inst, rng)
    params = CsaParams(t0=1e-5, t_threshold=1e-4)
    result = anneal(inst, params, initial=initial)
    assert result.iterations_run == 0
    assert len(result.trace) == 1
    assert np.array_equal(result.best_assignment, initial)
    assert result.feasible


def test_anneal_rejects_bad_initial_shape():
    inst = _slack_instance(seed=10, n=6, k=3)
    with pytest.raises(ValueError):
        anneal(inst, CsaParams(), initial=np.zeros((2, 2), dtype=np.int64))


@pytest.mark.parametrize(
    "initial, message",
    [(0.5, "whole unit counts"), (np.nan, "whole unit counts"), (-3, "negative entries")],
)
def test_anneal_rejects_an_initial_it_cannot_hold(initial, message):
    # a cast to int64 would turn 0.5 into 0 and keep -3 as an entry
    inst = _slack_instance(seed=10, n=6, k=3)
    start = np.asarray(inst.assignment, dtype=np.float64)
    start[0, 0] = initial
    with pytest.raises(ValueError, match=message):
        anneal(inst, CsaParams(), initial=start)


def test_anneal_takes_an_integral_float_initial():
    inst = _slack_instance(seed=9, n=8, k=3)
    start = random_feasible_assignment(inst, np.random.default_rng(0))
    params = CsaParams(t_threshold=0.2, seed=1)
    as_float = anneal(inst, params, initial=start.astype(np.float64))
    assert np.array_equal(as_float.best_assignment, anneal(inst, params, initial=start).best_assignment)
    assert as_float.best_assignment.dtype == np.int64


@pytest.mark.parametrize(
    "drift, message",
    [
        ((0, 0, 1), "shortfall drifted"),
        ((1, -1, 0), "a move changed a row sum"),  # a unit moved between agents
        ((-1, 0, 1), "a move changed a row sum"),  # a unit dropped: no overrun, shortfall in step
    ],
)
def test_anneal_checks_the_carried_bookkeeping(monkeypatch, drift, message):
    # the loop scores the shortfall that perturb carries; its debug check must
    # catch a carried vector or a row sum that no longer matches the state
    move = csa.perturb

    def drifting(assignment, e_tilde, params, rng):
        b, e = move(assignment, e_tilde, params, rng)
        b[0, 0] += drift[0]
        b[1, 0] += drift[1]
        e[0] += drift[2]
        return b, e

    monkeypatch.setattr(csa, "perturb", drifting)
    with pytest.raises(AssertionError, match=message):
        anneal(_slack_instance(seed=4), CsaParams(max_iters=5))


def test_anneal_infeasible_totals():
    inst = make_instance([[1], [1]], budgets=[1, 1], energies=[9])
    with pytest.raises(InfeasibleError):
        anneal(inst, CsaParams())


def test_anneal_never_feasible_returns_its_initial_state():
    # one unit per agent cannot cover two tasks and keep both agents linked
    inst = make_instance([[1, 0], [0, 1]], budgets=[1, 1], energies=[1, 1])
    initial = np.array([[1, 0], [0, 1]])
    result = anneal(inst, CsaParams(cooling=0.9, t_threshold=0.01), initial=initial)
    assert result.iterations_run > 0
    assert not result.feasible
    assert result.notes == ("no feasible state visited",)
    assert np.array_equal(result.best_assignment, initial)
    assert result.best_penalty == -math.inf and math.isnan(result.best_mu2)


def test_anneal_prefers_feasible_over_a_higher_infeasible_penalty():
    # with no task penalty the short start scores mu2 = 1/2, above the 2/5
    # of every feasible state; the chain must still return a feasible one
    inst = make_instance([[1, 1], [1, 1]], budgets=[2, 2], energies=[3, 1])
    initial = np.array([[1, 1], [1, 1]])
    params = CsaParams(task_penalty=0.0, cooling=0.9, t_threshold=0.01, seed=0)
    result = anneal(inst, params, initial=initial)
    infeasible = [row.penalty for row in result.trace if not row.feasible]
    feasible = [row.penalty for row in result.trace if row.feasible]
    assert math.isclose(max(infeasible), 0.5, abs_tol=1e-12)
    assert result.feasible and result.notes == ()
    assert math.isclose(result.best_penalty, 0.4, abs_tol=1e-12)
    assert result.best_penalty == max(feasible)
    assert result.best_assignment.sum(axis=0).tolist() == [3, 1]


# The two chains on coauthor_small (cooling 0.98, seed 0), recorded under
# numpy 2.4.6 and OpenBLAS's default x86-64 kernel: for each objective, the
# sha256 of the accept flags, the feasible flags and the best assignment, and
# every trace mu2 and penalty. Another BLAS kernel moves most trace values by
# about 1e-14 relative and keeps every decision; the values are compared at
# 1e-12 relative.
_PINNED_CHAINS = json.loads((Path(__file__).parent / "data" / "pinned_chains.json").read_text())


def _replay(objective, inst):
    """(trace rows of [accepted, feasible, mu2, penalty], best assignment) of a pinned chain."""
    result = anneal(inst, CsaParams(cooling=0.98, seed=0, objective=objective))
    rows = [[r.accepted, r.feasible, r.mu2, r.penalty] for r in result.trace]
    return rows, result.best_assignment


# A child process replays the named chains through this module and prints them as JSON.
_REPLAY = """
import json, sys
from hyperteam.instance import load_instance
from test_csa import _replay
inst = load_instance(sys.argv[1])
chains = {objective: _replay(objective, inst) for objective in sys.argv[2:]}
print(json.dumps({objective: [rows, best.tolist()] for objective, (rows, best) in chains.items()}))
"""


def _check_pinned(objective, rows, best):
    """Every decision and the best assignment exactly; trace values at 1e-12 relative."""
    accepted, feasible, mu2, penalty = zip(*rows)
    decisions = np.array(accepted + feasible, dtype=bool).tobytes()
    digest = hashlib.sha256(decisions + np.asarray(best, dtype=np.int64).tobytes()).hexdigest()
    pinned = _PINNED_CHAINS[objective]
    assert digest == pinned["digest"]
    np.testing.assert_allclose(mu2, pinned["mu2"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(penalty, pinned["penalty"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("objective", sorted(_PINNED_CHAINS))
def test_anneal_reproduces_the_pinned_chain(coauthor_small, objective):
    _check_pinned(objective, *_replay(objective, coauthor_small))


def test_the_pinned_chains_hold_under_another_openblas_kernel():
    # pip's OpenBLAS picks its kernel at load time; on another BLAS the child
    # runs the default kernel and the pins hold all the same
    env = {**subprocess_env(), "OPENBLAS_CORETYPE": "Haswell"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
    argv = [sys.executable, "-c", _REPLAY, toy_path("coauthor_small"), *sorted(_PINNED_CHAINS)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    chains = json.loads(proc.stdout)
    assert sorted(chains) == sorted(_PINNED_CHAINS)
    for objective, (rows, best) in chains.items():
        _check_pinned(objective, rows, best)


def test_anneal_best_tracks_the_trace():
    inst = _slack_instance(seed=11, n=8, k=3)
    result = anneal(inst, CsaParams(t_threshold=0.1, seed=3))
    assert result.feasible
    feasible_rows = [row.penalty for row in result.trace if row.feasible]
    assert feasible_rows
    assert math.isclose(result.best_penalty, max(feasible_rows), abs_tol=1e-12)


def test_anneal_improves_on_feasible_start():
    inst = _slack_instance(seed=12, n=10, k=4, slack=2)
    rng = np.random.default_rng(1)
    initial = random_feasible_assignment(inst, rng)
    init_mu2 = mu2_of_assignment(np.asarray(inst.energies), initial)
    result = anneal(inst, CsaParams(t_threshold=0.02, seed=5), initial=initial)
    assert result.feasible
    assert result.best_mu2 >= init_mu2


def test_anneal_bipartite_objective():
    inst = _slack_instance(seed=14, n=8, k=3)
    params = CsaParams(t_threshold=0.2, objective="bipartite", seed=2)
    result = anneal(inst, params)
    assert result.feasible
    optimized = inst.with_assignment(result.best_assignment)
    assert math.isclose(result.best_mu2, bipartite_connectivity(optimized), abs_tol=1e-12)


def test_bipartite_anneal_follows_the_full_lift_trace(monkeypatch, coauthor_small):
    # the side-chain pi must steer the chain exactly as the periodic lift's
    params = CsaParams(cooling=0.98, max_iters=150, objective="bipartite", seed=0)
    runs = []
    for mu2_of in (bipartite.mu2_of_assignment, full_lift_mu2):
        scores = []

        def recording(energies, assignment, mu2_of=mu2_of, scores=scores):
            scores.append(mu2_of(energies, assignment))
            return scores[-1]

        monkeypatch.setattr(bipartite, "mu2_of_assignment", recording)
        runs.append((anneal(coauthor_small, params).trace, np.array(scores)))
    (fast, fast_scores), (full, full_scores) = runs
    assert [row.accepted for row in fast] == [row.accepted for row in full]
    assert len(fast_scores) == len(full_scores) > 100
    assert (np.abs(fast_scores - full_scores) <= 1e-12 * np.abs(full_scores)).all()


def test_hypergraph_anneal_follows_the_eig_trace(monkeypatch, coauthor_small):
    # the checked solve must steer the chain exactly as the dense eig pi did;
    # the whole schedule runs, since its first 150 steps accept every candidate
    def eig_objective(energies, assignment):
        if not reaches_all(assignment > 0):
            raise ReducibleChainError("split candidate")
        return eig_mu2(energies, assignment)

    params = CsaParams(cooling=0.98, seed=0)
    runs = []
    for mu2_of in (spectral.mu2_of_assignment, eig_objective):
        scores = []

        def recording(energies, assignment, mu2_of=mu2_of, scores=scores):
            scores.append(mu2_of(energies, assignment))
            return scores[-1]

        monkeypatch.setattr(spectral, "mu2_of_assignment", recording)
        runs.append((anneal(coauthor_small, params).trace, np.array(scores)))
    (fast, fast_scores), (full, full_scores) = runs
    assert [row.accepted for row in fast] == [row.accepted for row in full]
    assert not all(row.accepted for row in full)
    assert len(fast_scores) == len(full_scores) > 400
    assert (np.abs(fast_scores - full_scores) <= 1e-12 * np.abs(full_scores)).all()


@pytest.mark.parametrize("objective", ["hypergraph", "bipartite"])
def test_split_candidates_are_rejected_inside_the_loop(monkeypatch, objective):
    # bench `anneal` never proposes a split; here six of eight agents hold a
    # single unit, so many candidates split and the solve must reject them
    inst = make_instance(
        np.ones((8, 3), dtype=np.int64), budgets=[2, 2, 1, 1, 1, 1, 1, 1], energies=[3, 3, 3]
    )
    params = CsaParams(cooling=0.95, seed=0, objective=objective)
    module = bipartite if objective == "bipartite" else spectral
    solve = module.mu2_of_assignment
    splits = []

    def counting(energies, assignment):
        try:
            return solve(energies, assignment)
        except ReducibleChainError:
            splits.append(assignment.copy())
            raise

    def gated(energies, assignment):
        if not _candidate_connected(assignment, np.ones(len(assignment), dtype=bool)):
            raise ReducibleChainError("split candidate")
        return solve(energies, assignment)

    runs = []
    for mu2_of in (counting, gated):
        monkeypatch.setattr(module, "mu2_of_assignment", mu2_of)
        runs.append(anneal(inst, params))
    solved, oracle = runs
    assert len(splits) > 20
    assert not any(_candidate_connected(a, np.ones(len(a), dtype=bool)) for a in splits)
    assert all(math.isfinite(row.penalty) for row in solved.trace if row.accepted)
    assert repr([astuple(row) for row in solved.trace]) == repr([astuple(row) for row in oracle.trace])
    assert np.array_equal(solved.best_assignment, oracle.best_assignment)


def test_random_feasible_assignment_properties():
    inst = _slack_instance(seed=15, n=9, k=4)
    rng = np.random.default_rng(3)
    a = random_feasible_assignment(inst, rng)
    assert np.array_equal(a.sum(axis=0), inst.energies)
    assert (a.sum(axis=1) <= inst.budgets).all()
    assert (a >= 0).all()

    b1 = random_feasible_assignment(inst, np.random.default_rng(4))
    b2 = random_feasible_assignment(inst, np.random.default_rng(4))
    assert np.array_equal(b1, b2)

    tight = make_instance([[1], [1]], budgets=[1, 1], energies=[7])
    with pytest.raises(InfeasibleError):
        random_feasible_assignment(tight, rng)
