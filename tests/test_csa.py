"""Annealing optimizer: initialization, penalty, moves, and the chain itself."""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple

import numpy as np
import pytest

from conftest import full_lift_mu2, make_instance, random_connected_instance
from hyperteam import bipartite
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
from hyperteam.errors import InfeasibleError
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
        penalty, _ = evaluate(a, inst, CsaParams())
        assert math.isfinite(penalty) == want
        outcomes.add(want)
        seen["unbudgeted holder"] += bool((a[~active] > 0).any())
        seen["idle budgeted"] += bool((a[active].sum(axis=1) == 0).any())
        seen["uncovered task"] += bool((a.sum(axis=0) == 0).any())
    assert outcomes == {True, False}
    assert min(seen.values()) > 20


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


def test_moves_per_step_default_scales_with_size():
    assert CsaParams().resolve_moves(10, 4) == 1
    assert CsaParams().resolve_moves(781, 704) == 30
    assert CsaParams(moves_per_step=5).resolve_moves(3, 3) == 5
    with pytest.raises(ValueError):
        CsaParams(moves_per_step=0).resolve_moves(3, 3)


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


# sha256 of the trace rows and best assignment (numpy 2.4.6, OpenBLAS,
# x86-64); roundoff in another LAPACK build may move a trace value and so the
# digest. The hypergraph chain was recorded with the former two-tracker
# anneal; the bipartite one since its task chain takes the linear solve,
# which moved trace mu2 values by at most 3e-14 and kept every accept flag
# and the best assignment.
_PINNED_DIGESTS = {
    "hypergraph": "3baf9cf4b26a8ab3fb3e4e7ea4045450d4efb01fc071f26e0c72a8226bb8115a",
    "bipartite": "a613ade434e06dd5d7365530db9ba83efe3ba0ff04ce35c405f8b5a156af5c29",
}


@pytest.mark.parametrize("objective", sorted(_PINNED_DIGESTS))
def test_anneal_reproduces_the_pinned_chain(coauthor_small, objective):
    result = anneal(coauthor_small, CsaParams(cooling=0.98, seed=0, objective=objective))
    rows = repr([astuple(row) for row in result.trace]).encode()
    digest = hashlib.sha256(rows + result.best_assignment.tobytes()).hexdigest()
    assert digest == _PINNED_DIGESTS[objective]


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
