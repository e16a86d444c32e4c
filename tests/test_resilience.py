"""Agent removal, ring-based patching, and the attack experiment loop."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import make_instance, random_connected_instance
from hyperteam.instance import ProblemInstance, co_membership_graph
from hyperteam.resilience import attack_experiment, gain, patch, remove_agents


def _chain_instance():
    """a3 holds two units of t0; help is two co-membership hops away.

    t0 = {a3:2, a0}, t1 = {a0, a1}, t2 = {a1, a2}; only a2 has spare budget.
    """
    assignment = np.array(
        [
            [1, 1, 0],
            [0, 1, 1],
            [0, 0, 1],
            [2, 0, 0],
        ]
    )
    return make_instance(assignment, budgets=[2, 2, 3, 2], energies=[3, 2, 2])


def test_remove_agents_zeroes_rows():
    a = np.array([[1, 2], [3, 0], [0, 1]])
    out = remove_agents(a, [1])
    assert np.array_equal(out, [[1, 2], [0, 0], [0, 1]])
    assert np.array_equal(a[1], [3, 0])  # original untouched


def test_remove_agents_guards():
    a = np.ones((3, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        remove_agents(a, [0, 0])
    with pytest.raises(ValueError):
        remove_agents(a, [0, 1, 2])


def _patch_oracle(inst, damaged, removed):
    """Ring BFS on the agent co-membership matrix of the damaged assignment.

    The package walks the member and task lists of the damaged incidence
    instead; this is the dense formulation it replaced. Returns (patched,
    cost, unsatisfied).
    """
    removed_mask = np.zeros(inst.n_agents, dtype=bool)
    removed_mask[list(removed)] = True
    spare = np.where(removed_mask, 0, inst.budgets) - damaged.sum(axis=1)
    adjacency = co_membership_graph(damaged)
    incidence = damaged > 0
    shortfall = inst.energies - damaged.sum(axis=0)
    patched = damaged.copy()
    cost = 0.0
    for k in sorted(range(inst.n_tasks), key=lambda k: (-int(shortfall[k]), k)):
        need = int(shortfall[k])
        visited = incidence[:, k].copy()
        frontier = visited.copy()
        ring = 0
        while need > 0 and frontier.any():
            for agent in np.flatnonzero(frontier):
                take = int(min(spare[agent], need))
                if take > 0:
                    spare[agent] -= take
                    patched[agent, k] += take
                    cost += take * float(ring + 1)
                    need -= take
            frontier = adjacency[frontier].any(axis=0) & ~visited
            visited |= frontier
            ring += 1
    return patched, cost, inst.energies - patched.sum(axis=0)


def _assert_matches_oracle(inst, damaged, removed):
    result = patch(inst, damaged, removed)
    patched, cost, unsatisfied = _patch_oracle(inst, damaged, removed)
    assert np.array_equal(result.patched_assignment, patched)
    assert result.patching_cost == cost
    assert np.array_equal(result.unsatisfied, unsatisfied)


def test_patch_matches_co_membership_oracle():
    rng = np.random.default_rng(71)
    for _ in range(60):
        n, k = int(rng.integers(3, 14)), int(rng.integers(1, 7))
        inst = random_connected_instance(rng, n, k, slack=int(rng.integers(0, 3)))
        removed = rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()
        damaged = remove_agents(np.asarray(inst.assignment), removed)
        _assert_matches_oracle(inst, damaged, removed)


def test_patch_matches_co_membership_oracle_on_coauthor_large(coauthor_large):
    a = np.asarray(coauthor_large.assignment)
    summary = attack_experiment(coauthor_large, a, m=20, n_exp=5, seed=0)
    assert summary.patching_cost_mean > 0
    for run in summary.runs:
        _assert_matches_oracle(coauthor_large, remove_agents(a, run.removed), run.removed)


def _assert_run_matches_patch_and_oracle(inst, assignment, run):
    damaged = remove_agents(assignment, run.removed)
    patched, cost, unsatisfied = _patch_oracle(inst, damaged, run.removed)
    for result in (run, patch(inst, damaged, run.removed)):
        assert np.array_equal(result.patched_assignment, patched)
        assert result.patching_cost == cost
        assert np.array_equal(result.unsatisfied, unsatisfied)


@pytest.mark.parametrize("m", [20, 200])
def test_attack_runs_match_patch_and_oracle_on_coauthor_large(coauthor_large, m):
    a = np.asarray(coauthor_large.assignment)
    summary = attack_experiment(coauthor_large, a, m=m, n_exp=3, seed=0)
    for run in summary.runs:
        _assert_run_matches_patch_and_oracle(coauthor_large, a, run)
    if m == 200:
        # deep damage: units come from ring 2 or later, and some stay missing
        units = [sum(u for _, _, u in run.recruits) for run in summary.runs]
        assert all(r.patching_cost > 2 * n for r, n in zip(summary.runs, units))
        assert all(891 <= r.unsatisfied_sum <= 907 for r in summary.runs)


@pytest.mark.parametrize("strategy", ["random", "degree"])
def test_attack_runs_match_patch_and_oracle(strategy):
    rng = np.random.default_rng(72)
    for _ in range(40):
        n, k = int(rng.integers(3, 14)), int(rng.integers(1, 7))
        inst = random_connected_instance(rng, n, k, slack=int(rng.integers(0, 3)))
        a = np.asarray(inst.assignment)
        m = int(rng.integers(1, n))
        summary = attack_experiment(inst, a, m=m, n_exp=3, seed=int(rng.integers(100)), strategy=strategy)
        for run in summary.runs:
            _assert_run_matches_patch_and_oracle(inst, a, run)


def test_results_keep_their_patched_assignment_after_the_input_changes():
    inst = _chain_instance()
    a = np.array(inst.assignment)
    damaged = remove_agents(a, [3])
    results = attack_experiment(inst, a, m=2, n_exp=4, seed=0).runs + (patch(inst, damaged, [3]),)
    before = [r.patched_assignment for r in results]
    a[:] = 9
    damaged[:] = 9
    for result, patched in zip(results, before):
        assert np.array_equal(result.patched_assignment, patched)


def test_attack_runs_allocate_no_assignment_sized_copies(coauthor_large):
    # one read-only snapshot per experiment; a per-run copy of the (N, K)
    # matrix, as remove_agents makes, would push the peak past twice its size
    a = np.asarray(coauthor_large.assignment)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        attack_experiment(coauthor_large, a, m=20, n_exp=10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * a.nbytes


def test_patch_walks_the_rings():
    inst = _chain_instance()
    damaged = remove_agents(np.asarray(inst.assignment), [3])
    result = patch(inst, damaged, [3])
    # two units recruited from a2 at ring 2, one unit costs 3
    assert result.patching_cost == 6.0
    assert result.success
    assert result.unsatisfied_sum == 0
    expected = damaged.copy()
    expected[2, 0] += 2
    assert np.array_equal(result.patched_assignment, expected)


def test_patch_ring_zero_costs_one():
    inst = make_instance([[1, 0], [1, 1]], budgets=[1, 3], energies=[2, 1])
    damaged = remove_agents(np.asarray(inst.assignment), [0])
    result = patch(inst, damaged, [0])
    assert result.patching_cost == 1.0
    assert result.success
    assert result.patched_assignment[1, 0] == 2


def test_patch_nothing_to_do():
    inst = make_instance([[1, 1], [1, 1]], budgets=[3, 3])
    spare_only = remove_agents(np.asarray(inst.assignment), [])
    result = patch(inst, spare_only, [])
    assert result.patching_cost == 0.0
    assert result.success
    assert np.array_equal(result.patched_assignment, inst.assignment)


def test_patch_reports_unreachable_deficits():
    # two isolated pairs; the damaged task's component has no spare at all
    inst = make_instance(
        [[1, 0], [1, 0], [0, 1], [0, 1]], budgets=[1, 1, 1, 2], energies=[2, 2]
    )
    damaged = remove_agents(np.asarray(inst.assignment), [0])
    result = patch(inst, damaged, [0])
    assert not result.success
    assert result.unsatisfied_sum == 1
    assert result.patching_cost == 0.0


def test_patch_orders_tasks_by_shortfall():
    # one donor with two spare units serves the deeper shortfall first
    inst = make_instance(
        [[1, 0], [0, 2], [1, 1]], budgets=[1, 2, 4], energies=[2, 3]
    )
    damaged = remove_agents(np.asarray(inst.assignment), [0, 1])
    result = patch(inst, damaged, [0, 1])
    assert result.patching_cost == 2.0  # both spare units go to t1 at ring 0
    assert np.array_equal(result.unsatisfied, [1, 0])
    assert not result.success


def test_patch_validates_damaged_matrix():
    inst = _chain_instance()
    with pytest.raises(ValueError):
        patch(inst, np.asarray(inst.assignment), [3])  # row 3 not zeroed
    over = remove_agents(np.asarray(inst.assignment), [3])
    over[0, 0] += 9  # now a0 spends more than its budget
    with pytest.raises(ValueError):
        patch(inst, over, [3])


def test_patch_never_overdraws():
    rng = np.random.default_rng(4)
    for _ in range(50):
        inst = random_connected_instance(rng, 8, 4, slack=int(rng.integers(0, 3)))
        m = int(rng.integers(1, 4))
        removed = rng.choice(8, size=m, replace=False).tolist()
        damaged = remove_agents(np.asarray(inst.assignment), removed)
        result = patch(inst, damaged, removed)
        patched = result.patched_assignment
        assert (patched[removed] == 0).all()
        survivors = np.setdiff1d(np.arange(8), removed)
        assert (patched[survivors].sum(axis=1) <= np.asarray(inst.budgets)[survivors]).all()
        assert (patched >= damaged).all()


def test_extra_budget_never_hurts_coverage():
    rng = np.random.default_rng(5)
    for _ in range(25):
        inst = random_connected_instance(rng, 8, 4)
        richer = ProblemInstance(
            agent_ids=inst.agent_ids,
            budgets=np.asarray(inst.budgets) + 1,
            task_ids=inst.task_ids,
            energies=inst.energies,
            assignment=inst.assignment,
        )
        removed = rng.choice(8, size=2, replace=False).tolist()
        damaged = remove_agents(np.asarray(inst.assignment), removed)
        lean = patch(inst, damaged, removed)
        rich = patch(richer, damaged, removed)
        assert rich.unsatisfied_sum <= lean.unsatisfied_sum
        if lean.success and rich.success:
            # with full coverage on both sides, closer spare can only be cheaper
            assert rich.patching_cost <= lean.patching_cost


def test_attack_experiment_is_reproducible():
    rng = np.random.default_rng(6)
    inst = random_connected_instance(rng, 10, 4, slack=1)
    a = np.asarray(inst.assignment)
    s1 = attack_experiment(inst, a, m=3, n_exp=8, seed=42)
    s2 = attack_experiment(inst, a, m=3, n_exp=8, seed=42)
    assert [r.removed for r in s1.runs] == [r.removed for r in s2.runs]
    assert s1.patching_cost_mean == s2.patching_cost_mean
    assert s1.unsatisfied_mean == s2.unsatisfied_mean


def test_attack_experiment_summary_arithmetic():
    rng = np.random.default_rng(7)
    inst = random_connected_instance(rng, 9, 3, slack=1)
    a = np.asarray(inst.assignment)
    summary = attack_experiment(inst, a, m=2, n_exp=6, seed=0)
    costs = np.array([r.patching_cost for r in summary.runs])
    assert np.isclose(summary.patching_cost_mean, costs.mean())
    assert np.isclose(
        summary.patching_cost_stderr, costs.std(ddof=1) / np.sqrt(len(costs))
    )
    single = attack_experiment(inst, a, m=2, n_exp=1, seed=0)
    assert single.patching_cost_stderr == 0.0
    assert single.unsatisfied_stderr == 0.0


def test_attack_experiment_degree_strategy():
    # the hub carries the largest weighted degree and is always hit first
    hub = make_instance(
        [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        budgets=[3, 2, 2, 2],
    )
    a = np.asarray(hub.assignment)
    summary = attack_experiment(hub, a, m=1, n_exp=3, seed=0, strategy="degree")
    assert all(r.removed == (0,) for r in summary.runs)


def test_attack_experiment_validation():
    inst = _chain_instance()
    a = np.asarray(inst.assignment)
    with pytest.raises(ValueError):
        attack_experiment(inst, a, m=0)
    with pytest.raises(ValueError):
        attack_experiment(inst, a, m=4)
    with pytest.raises(ValueError):
        attack_experiment(inst, a, m=1, n_exp=0)
    with pytest.raises(ValueError):
        attack_experiment(inst, a, m=1, strategy="spite")


def test_success_means_no_unmet_energy():
    inst = _chain_instance()
    damaged = remove_agents(np.asarray(inst.assignment), [3])
    result = patch(inst, damaged, [3])
    assert result.success == (result.unsatisfied_sum == 0)


def test_gain_ratio():
    assert gain(0.3, 0.1) == pytest.approx(3.0)
    assert gain(0.1, 0.1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gain(0.5, 0.0)
    with pytest.raises(ValueError):
        gain(0.5, -1.0)
