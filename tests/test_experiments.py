"""Enumeration, community rewiring, scaling fits, and the budget sweep."""

from __future__ import annotations

import hashlib
import math
import re
from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import count_connected_covering, make_instance
from hyperteam import experiments
from hyperteam.errors import ConvergenceError
from hyperteam.experiments import (
    SCHEMES,
    CommunitySpec,
    budget_sweep,
    build_communities,
    diffusion_comparison,
    enumerate_small,
    fit_power_law,
    rewire,
    scaling_experiment,
    to_instance,
)
from hyperteam.instance import ProblemInstance, bipartite_components
from hyperteam.seeds import substream
from hyperteam.spectral import batch_rows, mu2_batch, mu2_of_assignment


def test_enumeration_count_small():
    found = enumerate_small(4, 2)
    assert len(found) == count_connected_covering(4, 2)


def test_enumeration_count_default_size():
    found = enumerate_small(5, 3)
    assert len(found) == 1755
    assert len(found) == count_connected_covering(5, 3)


def _loop_enumeration(n_nodes, n_edges):
    """The per-candidate enumeration loop: component count, then one mu2 each.

    Each candidate is a ``mu2_batch`` batch of one, bit-identical to its entry
    in the stacks that ``enumerate_small`` scores.
    """
    subsets = [s for r in range(2, n_nodes + 1) for s in combinations(range(n_nodes), r)]
    found = []
    for edges in combinations(subsets, n_edges):
        incidence = np.zeros((n_nodes, n_edges), dtype=np.int64)
        for k, edge in enumerate(edges):
            incidence[list(edge), k] = 1
        if bipartite_components(incidence > 0)[0] == 1:
            energies = incidence.sum(axis=0)[np.newaxis]
            found.append((edges, mu2_batch(energies, incidence[np.newaxis])[0]))
    found.sort(key=lambda h: (-h[1], h[0]))
    return found


@pytest.mark.parametrize("n_nodes, n_edges", [(4, 2), (5, 3)])
def test_enumeration_matches_the_candidate_loop(n_nodes, n_edges):
    # identical edge lists and bit-identical mu2, not merely close ones
    got = [(h.edges, h.mu2) for h in enumerate_small(n_nodes, n_edges)]
    assert got == _loop_enumeration(n_nodes, n_edges)


def test_enumeration_sorted_and_connected():
    found = enumerate_small(4, 2)
    mu2s = [h.mu2 for h in found]
    assert mu2s == sorted(mu2s, reverse=True)
    assert all(h.mu2 > 0 for h in found)
    for h in found:
        inst = to_instance(h.edges, 4)
        count, _, _ = bipartite_components(np.asarray(inst.assignment) > 0)
        assert count == 1


def _canonical(edges, n_nodes):
    """Least sorted relabelled edge tuple over all relabellings: the oracle of dedup."""
    return min(
        tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))
        for perm in permutations(range(n_nodes))
    )


def test_enumeration_dedup_covers_all_classes():
    full = enumerate_small(4, 2)
    reps = enumerate_small(4, 2, dedup=True)
    classes = {_canonical(h.edges, 4) for h in full}
    rep_classes = [_canonical(h.edges, 4) for h in reps]
    assert len(rep_classes) == len(set(rep_classes))
    assert set(rep_classes) == classes


@pytest.mark.parametrize("n_nodes, n_edges", [(4, 2), (4, 3), (4, 5), (5, 2), (5, 3)])
def test_enumeration_dedup_keeps_what_the_permutation_loop_kept(n_nodes, n_edges):
    # the numpy canonical form against the per-hypergraph loop over all
    # relabellings that it replaced: the same first member of each class
    kept, seen = [], set()
    for h in enumerate_small(n_nodes, n_edges):
        canon = _canonical(h.edges, n_nodes)
        if canon not in seen:
            seen.add(canon)
            kept.append(h)
    assert enumerate_small(n_nodes, n_edges, dedup=True) == kept


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_small(8, 4)


def test_to_instance_marginals():
    edges = ((0, 1), (1, 2, 3))
    inst = to_instance(edges, 4)
    assert np.array_equal(inst.budgets, [1, 2, 1, 1])
    assert np.array_equal(inst.energies, [2, 3])
    assert inst.assignment[1, 0] == 1 and inst.assignment[1, 1] == 1


def test_diffusion_comparison():
    insts = [to_instance(h.edges, 4) for h in enumerate_small(4, 2)[:3]]
    times = np.linspace(0.0, 200.0, 31)
    traces = diffusion_comparison(insts, times=times)
    assert len(traces) == 3
    for trace in traces:
        assert trace.states.shape == (31, 4)
        assert np.allclose(trace.states[0], [1, 0, 0, 0], atol=1e-12)
        assert np.allclose(trace.states[-1], 0.25, atol=1e-5)
        assert trace.mu2 > 0

    lopsided = [insts[0], to_instance(((0, 1),), 2)]
    with pytest.raises(ValueError):
        diffusion_comparison(lopsided)


def test_build_communities_block_structure():
    inst = build_communities(CommunitySpec(2))
    a = np.asarray(inst.assignment)
    assert a.shape == (12, 12)
    assert (a[:6, :6] == 1).all() and (a[6:, 6:] == 1).all()
    assert not a[:6, 6:].any() and not a[6:, :6].any()
    assert np.array_equal(inst.energies, [6] * 12)
    count, _, _ = bipartite_components(a > 0)
    assert count == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        CommunitySpec(1)
    with pytest.raises(ValueError):
        CommunitySpec(2, nodes_per_community=1)
    with pytest.raises(ValueError):
        CommunitySpec(2, edges_per_community=0)
    with pytest.raises(ValueError):
        CommunitySpec(2, scheme="braid")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rewire_conserves_marginals_and_connects(scheme):
    spec = CommunitySpec(4, 5, 5, scheme)
    base = build_communities(spec)
    rng = substream(0, "test-rewire", scheme)
    out = rewire(base, spec, rng)
    a, b = np.asarray(out.assignment), np.asarray(base.assignment)
    assert np.array_equal(a.sum(axis=1), b.sum(axis=1))
    assert np.array_equal(a.sum(axis=0), b.sum(axis=0))
    count, _, _ = bipartite_components(a > 0)
    assert count == 1
    if scheme != "random":
        # three swaps, each toggling four cells by one unit
        assert np.abs(a - b).sum() == 4 * (spec.n_communities - 1)


# sha256 of each scheme's rewired assignments (little-endian int64) over
# coupled and 6x6 layouts of 2-6 communities, three seeds each; they pin the
# order of every draw in the swap loop
REWIRE_SHA256 = {
    "one_node": "56e9a744698d3d59892a221f05db80bb2c7e93e5c251dbfadcd844d6fa43cf58",
    "one_edge": "f1862f558c3c312929f229057968430f2bd1074e47a1f2347e9e755c5ef0866c",
    "head2tail": "4f6389f3969db0c4d48dc5c6a0bb49588c50dd6d045b3bf18e0a46b71d8ec0f8",
    "random": "3e45e8ad4d944da3f3e1917fc9b3b8fe56e34db57015b80c5fe9863da663ab5a",
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rewire_draws_match_the_recorded_digests(scheme):
    digest = hashlib.sha256()
    for size in (2, 3, 4, 5, 6):
        for spec in (CommunitySpec(size, size, size, scheme), CommunitySpec(size, scheme=scheme)):
            for rep in range(3):
                rng = substream(rep, "rewire-digest", scheme, size)
                out = rewire(build_communities(spec), spec, rng)
                digest.update(np.asarray(out.assignment, dtype="<i8").tobytes())
    assert digest.hexdigest() == REWIRE_SHA256[scheme]


def test_rewire_one_node_builds_a_centroid_agent():
    spec = CommunitySpec(4, 5, 5, "one_node")
    out = rewire(build_communities(spec), spec, substream(1, "t"))
    a = np.asarray(out.assignment)
    for c in range(1, 4):
        cols = slice(c * 5, (c + 1) * 5)
        assert a[0, cols].sum() >= 1


def test_rewire_one_edge_builds_a_centroid_task():
    spec = CommunitySpec(4, 5, 5, "one_edge")
    out = rewire(build_communities(spec), spec, substream(2, "t"))
    a = np.asarray(out.assignment)
    for c in range(1, 4):
        rows = slice(c * 5, (c + 1) * 5)
        assert a[rows, 0].sum() >= 1


def test_rewire_head2tail_links_neighbours():
    spec = CommunitySpec(4, 5, 5, "head2tail")
    out = rewire(build_communities(spec), spec, substream(3, "t"))
    a = np.asarray(out.assignment)
    for c in range(3):
        rows_next = slice((c + 1) * 5, (c + 2) * 5)
        cols_here = slice(c * 5, (c + 1) * 5)
        rows_here = slice(c * 5, (c + 1) * 5)
        cols_next = slice((c + 1) * 5, (c + 2) * 5)
        crossings = a[rows_next, cols_here].sum() + a[rows_here, cols_next].sum()
        assert crossings >= 1


def test_rewire_structural_requirements():
    # a centroid node cannot donate more home memberships than it has
    spec = CommunitySpec(8, 6, 2, "one_node")
    with pytest.raises(ValueError):
        rewire(build_communities(spec), spec, substream(4, "t"))
    spec = CommunitySpec(8, 2, 6, "one_edge")
    with pytest.raises(ValueError):
        rewire(build_communities(spec), spec, substream(5, "t"))


def test_scaling_experiment_smoke():
    fits, samples = scaling_experiment(("random",), (2, 3, 4), reps=2, seed=0)
    assert len(samples) == 6
    assert {s[1] for s in samples} == {2, 3, 4}
    assert all(v > 0 for *_, v in samples)
    fit = fits[0]
    assert fit.scheme == "random"
    assert math.isfinite(fit.exponent)
    assert len(fit.mean_mu2) == 3


def test_scaling_experiment_fixed_layout():
    fits, samples = scaling_experiment(
        ("head2tail",), (2, 3, 4), reps=1, seed=1, coupled=False
    )
    assert len(samples) == 3
    assert math.isfinite(fits[0].exponent)


@pytest.mark.parametrize(
    "coupled, sizes, reps", [(True, (2, 8, 10), 5), (False, (2, 3, 4), 3)], ids=["coupled", "fixed"]
)
def test_scaling_samples_are_the_mu2_of_each_reps_rewiring(coupled, sizes, reps):
    # reps are scored as stacks in pieces of batch_rows; each sample must be
    # the single-state mu2 of that rep's own rewiring, bit for bit
    if coupled:
        # the 5 reps go in one piece at size 2, in pieces of 4 and 1 at size 8,
        # and one by one at size 10 (N = 100)
        assert [batch_rows(n * n, n * n) for n in sizes] == [1024, 4, 1]
    _, samples = scaling_experiment(SCHEMES, sizes, reps=reps, seed=3, coupled=coupled)
    assert [s[:3] for s in samples] == [(s, n, r) for s in SCHEMES for n in sizes for r in range(reps)]
    for scheme, size, rep, mu2 in samples:
        spec = CommunitySpec(size, size, size, scheme) if coupled else CommunitySpec(size, scheme=scheme)
        rewired = rewire(build_communities(spec), spec, substream(3, "scaling", scheme, size, rep))
        assert mu2 == mu2_of_assignment(rewired.energies, rewired.assignment)


def _hub_instance(n_tasks=12, members=4, pattern=(1, 3)):
    """Task-transitive family: dedicated members plus one coordinator on all."""
    n = n_tasks * members + 1
    a = np.zeros((n, n_tasks), dtype=np.int64)
    for k in range(n_tasks):
        a[k * members : (k + 1) * members, k] = 1
    a[-1, :] = 1
    budgets = a.sum(axis=1)
    budgets[:-1] = np.tile(pattern, n_tasks * members // len(pattern))
    return ProblemInstance(
        agent_ids=tuple(f"a{i}" for i in range(n)),
        budgets=budgets,
        task_ids=tuple(f"t{k}" for k in range(n_tasks)),
        energies=a.sum(axis=0),
        assignment=a,
    )


def test_budget_sweep_grouping():
    inst = _hub_instance()
    result = budget_sweep(inst, multipliers=(1, 2), sub_sizes=(3, 4, 6), reps=2, seed=0)
    assert len(result.points) == 12
    for p in result.points:
        assert p.multiplier in (1, 2)
        assert abs(p.n_agents - 4 * p.n_tasks) <= 0.4 * p.n_tasks
        assert p.mu2 > 0
    assert [c.multiplier for c in result.curves] == [1, 2]
    for curve in result.curves:
        assert len(curve.mean_mu2) == 3
        assert math.isfinite(curve.fit.exponent)


def test_budget_sweep_needs_suitable_ratio(coauthor_small):
    # a two-agents-per-task dataset never hits the four-to-one window; the
    # error names the window and the nearest ratio the draws reached
    with pytest.raises(ConvergenceError, match=r"3\.6-4\.4 agents per task.* had 3\.50$"):
        budget_sweep(coauthor_small, multipliers=(1,), sub_sizes=(4,), reps=1, seed=0)


def test_budget_sweep_error_without_two_task_draws():
    # four disjoint tasks: every two-task draw splits into one-task components
    disjoint = make_instance(np.kron(np.eye(4, dtype=np.int64), np.ones((4, 1), dtype=np.int64)))
    with pytest.raises(ConvergenceError, match=r"3\.6-4\.4 agents per task, and no draw had two"):
        budget_sweep(disjoint, multipliers=(1,), sub_sizes=(2,), reps=1, seed=0)


@pytest.mark.parametrize("bad", [0, 1, 26])
def test_budget_sweep_rejects_sub_sizes_before_any_draw(coauthor_small, bad):
    # size 4 comes first and alone would fail its draws with ConvergenceError
    with pytest.raises(ValueError, match=rf"sub-size {bad} is outside 2\.\.25"):
        budget_sweep(coauthor_small, multipliers=(1,), sub_sizes=(4, bad), reps=1, seed=0)


def _no_draws(monkeypatch):
    def drawing(*_):
        raise AssertionError("the arguments should be rejected before any draw")

    monkeypatch.setattr(experiments, "rewire", drawing)
    monkeypatch.setattr(experiments, "_sample_subinstance", drawing)


@pytest.mark.parametrize(
    "sizes, reps, message",
    [
        ((2, 3, 4), 0, "reps must be >= 1, got 0"),
        ((2, 3), 2, "3 or more distinct sizes, each >= 2; got (2, 3)"),
        ((2, 2, 2), 2, "3 or more distinct sizes, each >= 2; got (2, 2, 2)"),
        ((1, 2, 3), 2, "3 or more distinct sizes, each >= 2; got (1, 2, 3)"),
    ],
)
def test_scaling_rejects_its_arguments_before_any_draw(monkeypatch, sizes, reps, message):
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(message)):
        scaling_experiment(("random",), sizes, reps=reps, seed=0)


@pytest.mark.parametrize("multipliers, reps", [((1, 3), 0), ((1, 0), 1), ((-2,), 1)])
def test_budget_sweep_rejects_reps_and_multipliers_before_any_draw(
    monkeypatch, coauthor_small, multipliers, reps
):
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"reps and multipliers must be >= 1"):
        budget_sweep(coauthor_small, multipliers=multipliers, sub_sizes=(4,), reps=reps, seed=0)


def test_fit_power_law_exact():
    xs = np.array([2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law(xs, 5.0 * xs**-2)
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_power_law_flat():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    fit = fit_power_law(xs, np.full(4, 7.0))
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_noisy():
    rng = np.random.default_rng(0)
    xs = np.linspace(3.0, 60.0, 50)
    ys = 2.0 * xs**-1.5 * np.exp(rng.normal(0, 0.05, size=50))
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent + 1.5) < 0.05
    assert fit.r_squared > 0.98


def test_fit_power_law_guards():
    with pytest.raises(ValueError):
        fit_power_law(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_power_law(np.array([1.0, 2.0, 0.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        fit_power_law(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
