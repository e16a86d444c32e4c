"""The agent/task two-mode walk and its relation to the one-mode walk."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    DISCONNECTED,
    bipartite_bundle,
    eig_stationary,
    full_lift,
    full_lift_mu2,
    lift_adjacency,
    make_instance,
    random_active_assignment,
    random_connected_instance,
)
from hyperteam import bipartite, spectral
from hyperteam.bipartite import bipartite_laplacian, side_laplacians
from hyperteam.errors import ConvergenceError, DegreeError, DisconnectedError, ReducibleChainError
from hyperteam.instance import bipartite_components
from hyperteam.spectral import (
    laplacian,
    spectrum,
    stationary_distribution,
    transition_matrix,
    walk_blocks,
)


def _instances(seed, count, n=7, k=4):
    rng = np.random.default_rng(seed)
    return [random_connected_instance(rng, n, k) for _ in range(count)]


def _package_blocks(inst):
    return walk_blocks(inst.energies, inst.assignment)


def _package_lift(inst):
    """(A, B, q): the lift's blocks and the task chain's stationary q."""
    A, B = _package_blocks(inst)
    return A, B, stationary_distribution(B @ A)


def test_adjacency_blocks():
    inst = make_instance([[2, 0], [1, 1], [0, 3]])
    A = lift_adjacency(inst.energies, inst.assignment)
    n, k = 3, 2
    assert A.shape == (n + k, n + k)
    assert not A[:n, :n].any()
    assert not A[n:, n:].any()
    assert np.array_equal(A[:n, n:], [[3, 0], [3, 4], [0, 4]])
    assert np.array_equal(A[n:, :n], inst.assignment.T)


def test_transition_alternates_sides():
    inst = make_instance([[1], [1]])
    P = full_lift(inst.energies, inst.assignment)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    # agents can only hop to the task, the task splits evenly
    assert np.allclose(P[:2, 2], [1.0, 1.0], atol=1e-12)
    assert np.allclose(P[2, :2], [0.5, 0.5], atol=1e-12)
    assert not P[:2, :2].any()
    # the package's steps are the lift's off-diagonal blocks
    A, B = _package_blocks(inst)
    assert np.array_equal(A, P[:2, 2:]) and np.array_equal(B, P[2:, :2])


def test_two_step_is_block_diagonal():
    for inst in _instances(5, 10):
        n = inst.n_agents
        P2 = bipartite_bundle(inst).P_star
        assert np.abs(P2[:n, n:]).max() < 1e-12
        assert np.abs(P2[n:, :n]).max() < 1e-12


def test_two_step_agent_block_is_the_hypergraph_walk():
    for inst in _instances(6, 10):
        n = inst.n_agents
        P2 = bipartite_bundle(inst).P_star
        P = transition_matrix(inst.energies, inst.assignment)
        assert np.allclose(P2[:n, :n], P, atol=1e-12)


def test_two_step_block_spectra_agree():
    # both blocks share their nonzero spectrum (AB vs BA)
    for inst in _instances(7, 8):
        n = inst.n_agents
        P2 = bipartite_bundle(inst).P_star
        upper = np.sort(np.linalg.eigvals(P2[:n, :n]).real)[::-1]
        lower = np.sort(np.linalg.eigvals(P2[n:, n:]).real)[::-1]
        common = min(len(upper), len(lower))
        assert np.allclose(upper[:common], lower[:common], atol=1e-9)


def test_bipartite_laplacian_shape_and_kernel():
    for inst in _instances(8, 8):
        P = full_lift(inst.energies, inst.assignment)
        L = bipartite_laplacian(P)
        size = inst.n_agents + inst.n_tasks
        assert L.shape == (size, size)
        assert np.allclose(L, L.T, atol=1e-12)
        assert np.allclose(L @ np.ones(size), 0.0, atol=1e-10)
        assert spectrum(L)[0] >= -1e-10


def test_bipartite_laplacian_above_dense_limit():
    # the periodic lift of 480 agents and 40 tasks takes the linear solve
    inst = random_connected_instance(np.random.default_rng(61), 480, 40, max_weight=1)
    P = full_lift(inst.energies, inst.assignment)
    L = bipartite_laplacian(P)
    assert np.abs(L - laplacian(P, eig_stationary(P))).max() <= 1e-12
    assert np.abs(L @ np.ones(len(P))).max() <= 1e-12


def test_two_step_laplacian_agent_block_halves_the_hypergraph():
    for inst in _instances(9, 8):
        n = inst.n_agents
        P = transition_matrix(inst.energies, inst.assignment)
        L_h = laplacian(P, stationary_distribution(P))
        upper, _ = side_laplacians(inst)
        for block in (upper, bipartite_bundle(inst).L_star[:n, :n]):
            assert np.allclose(block, 0.5 * L_h, atol=1e-12)
            # so the agent-block spectrum is the hypergraph spectrum halved
            assert np.allclose(spectrum(block), 0.5 * spectrum(L_h), atol=1e-9)


def test_connectivity_positive_when_connected():
    for inst in _instances(10, 6):
        assert bipartite.mu2_of_assignment(inst.energies, inst.assignment) > 0


def test_connectivity_requires_connected():
    two = make_instance([[1, 0], [1, 0], [0, 1], [0, 1]])
    with pytest.raises(ReducibleChainError):
        bipartite.mu2_of_assignment(two.energies, two.assignment)
    with pytest.raises(DisconnectedError):
        side_laplacians(two)


@pytest.mark.parametrize("case", DISCONNECTED)
def test_connectivity_and_side_chains_reject_a_disconnected_instance(case):
    inst = DISCONNECTED[case]
    # the idle agent fails the walk's degree check, the split team its search
    error = {"idle-agent": DegreeError, "split": ReducibleChainError}[case]
    with pytest.raises(error):
        bipartite.mu2_of_assignment(inst.energies, inst.assignment)
    with pytest.raises(DisconnectedError, match="side chains need a connected instance"):
        side_laplacians(inst)


def test_bundle_consistency():
    inst = make_instance([[2, 1], [1, 0], [0, 2]])
    bundle = bipartite_bundle(inst)
    assert np.allclose(bundle.P_star, bundle.P @ bundle.P, atol=1e-12)
    assert np.isclose(bundle.pi.sum(), 1.0, atol=1e-10)
    assert np.allclose(bundle.pi @ bundle.P, bundle.pi, atol=1e-8)
    n = inst.n_agents
    assert np.array_equal(bundle.adjacency[:n, n:] > 0, np.asarray(inst.assignment) > 0)
    # the package's lift Laplacian is the oracle's
    L = bipartite._lift_laplacian(*_package_lift(inst))
    assert np.abs(L - bundle.L).max() <= 1e-12


def test_relabelling_leaves_spectra_alone():
    rng = np.random.default_rng(12)
    inst = random_connected_instance(rng, 6, 4)
    a = np.asarray(inst.assignment)
    perm_a = rng.permutation(6)
    perm_t = rng.permutation(4)
    shuffled = make_instance(
        a[np.ix_(perm_a, perm_t)], energies=np.asarray(inst.energies)[perm_t]
    )
    s1 = spectrum(bipartite_laplacian(full_lift(inst.energies, inst.assignment)))
    s2 = spectrum(bipartite_laplacian(full_lift(shuffled.energies, shuffled.assignment)))
    assert np.allclose(s1, s2, atol=1e-10)
    for side1, side2 in zip(side_laplacians(inst), side_laplacians(shuffled)):
        assert np.allclose(spectrum(side1), spectrum(side2), atol=1e-10)


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize(
    "n, k, seed",
    [(9, 4, 0), (6, 6, 1), (4, 7, 2), (5, 1, 3), (2, 1, 4), (2, 5, 5), (1, 3, 6)],
)
def test_mu2_matches_the_full_lift(n, k, seed):
    # pi from the task chain must agree with pi taken from the periodic
    # (N+K) chain itself, whichever side is larger
    rng = np.random.default_rng(seed)
    for _ in range(5):
        inst = random_connected_instance(rng, n, k)
        mu2 = bipartite.mu2_of_assignment(inst.energies, inst.assignment)
        assert _rel(mu2, full_lift_mu2(inst.energies, inst.assignment)) <= 1e-12


def test_mu2_matches_the_full_lift_on_coauthor_small(coauthor_small):
    e, a = coauthor_small.energies, coauthor_small.assignment
    assert _rel(bipartite.mu2_of_assignment(e, a), full_lift_mu2(e, a)) <= 1e-12


@pytest.mark.parametrize("n, k", [(8, 3), (3, 8), (5, 5)])
def test_bundle_pi_is_the_lift_stationary_distribution(n, k):
    inst = random_connected_instance(np.random.default_rng(n * k), n, k)
    _, B, q = _package_lift(inst)
    pi = bipartite._lift_stationary(B, q)
    assert np.isclose(pi[:n].sum(), 0.5, rtol=0, atol=1e-12)
    assert np.isclose(pi[n:].sum(), 0.5, rtol=0, atol=1e-12)
    assert np.abs(pi - bipartite_bundle(inst).pi).max() <= 1e-12


@pytest.mark.parametrize("n, k", [(8, 3), (5, 5), (3, 8), (6, 1)])
def test_block_built_lift_laplacian_matches_the_generic_one(n, k):
    inst = random_connected_instance(np.random.default_rng(7 * n + k), n, k)
    A, B, q = _package_lift(inst)
    L = bipartite._lift_laplacian(A, B, q)
    pi_b = bipartite._lift_stationary(B, q)
    assert np.abs(L - laplacian(full_lift(inst.energies, inst.assignment), pi_b)).max() <= 1e-15


def test_bundle_builds_the_weight_matrices_once(monkeypatch):
    # side_laplacians builds W and R once
    inst = random_connected_instance(np.random.default_rng(6), 7, 4)
    calls = []
    build = spectral.walk_blocks

    def recording(energies, assignment):
        calls.append(np.shape(assignment))
        return build(energies, assignment)

    monkeypatch.setattr(spectral, "walk_blocks", recording)
    upper, lower = side_laplacians(inst)
    assert calls == [(7, 4)]
    assert upper.shape == (7, 7) and lower.shape == (4, 4)


@pytest.mark.parametrize("n, k", [(8, 3), (3, 8), (5, 5)])
def test_bundle_two_step_laplacian_solves_one_chain(monkeypatch, n, k):
    # side_laplacians solves the task chain alone ...
    inst = random_connected_instance(np.random.default_rng(n + 2 * k), n, k)
    sizes = []
    solve = spectral.stationary_distribution

    def recording(P):
        sizes.append(np.shape(P))
        return solve(P)

    monkeypatch.setattr(spectral, "stationary_distribution", recording)
    upper, lower = side_laplacians(inst)
    assert sizes == [(k, k)]
    # ... and the oracle re-solves both side chains: the independent path
    want = bipartite_bundle(inst).L_star
    assert np.abs(upper - want[:n, :n]).max() <= 1e-14
    assert np.abs(lower - want[n:, n:]).max() <= 1e-14


@pytest.mark.parametrize("n, k, seed", [(9, 4, 0), (12, 3, 1), (4, 9, 2), (3, 11, 3)])
def test_side_laplacians_are_the_two_step_laplacian_blocks(n, k, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        inst = random_connected_instance(rng, n, k)
        L_star = bipartite_bundle(inst).L_star
        upper, lower = side_laplacians(inst)
        assert np.abs(upper - L_star[:n, :n]).max() <= 1e-12
        assert np.abs(lower - L_star[n:, n:]).max() <= 1e-12


def test_side_laplacians_are_the_two_step_laplacian_blocks_on_coauthor_small(coauthor_small):
    n = coauthor_small.n_agents
    L_star = bipartite_bundle(coauthor_small).L_star
    upper, lower = side_laplacians(coauthor_small)
    assert np.abs(upper - L_star[:n, :n]).max() <= 1e-12
    assert np.abs(lower - L_star[n:, n:]).max() <= 1e-12


@pytest.mark.parametrize("n, k", [(30, 7), (7, 30)])
def test_mu2_never_solves_a_chain_above_the_task_side(monkeypatch, n, k):
    # every solve and search the objective can run, recorded by chain size
    sizes = []
    for name in ("_solve_stationary", "stationary_distribution", "_irreducible"):

        def recording(P, _fn=getattr(spectral, name)):
            sizes.append(np.shape(P))
            return _fn(P)

        monkeypatch.setattr(spectral, name, recording)
    inst = random_connected_instance(np.random.default_rng(n + k), n, k)
    bipartite.mu2_of_assignment(inst.energies, inst.assignment)
    assert sizes and max(max(shape) for shape in sizes) <= k


def _searched_lift_mu2(energies, assignment) -> float:
    """Lift mu2 by the searched path: the task chain checked before its solve."""
    A, B = walk_blocks(energies, assignment)
    return float(spectrum(bipartite._lift_laplacian(A, B, stationary_distribution(B @ A)))[1])


def test_mu2_splits_as_the_component_oracle_does():
    # split lifts are caught whether the task chain's solve fails or passes,
    # and every connected lift scores exactly as the searched path does
    rng = np.random.default_rng(29)
    seen = {"connected": 0, "split, solve failed": 0, "split, solve passed": 0}
    for _ in range(400):
        energies, a = random_active_assignment(rng)
        if bipartite_components(a > 0)[0] == 1:
            mu2 = bipartite.mu2_of_assignment(energies, a)
            assert mu2 == _searched_lift_mu2(energies, a) > spectral._CERTIFIED_MU2
            seen["connected"] += 1
            continue
        with pytest.raises(ReducibleChainError):
            bipartite.mu2_of_assignment(energies, a)
        A, B = walk_blocks(energies, a)
        try:
            spectral._solve_stationary(B @ A)
            seen["split, solve passed"] += 1
        except ConvergenceError:
            seen["split, solve failed"] += 1
    assert min(seen.values()) >= 20, seen


def test_mu2_of_a_connected_lift_below_the_bound_still_scores(monkeypatch):
    # two heavy tasks joined by a task of energy 1
    energies = np.array([10**9, 10**9, 1])
    a = np.array([[1, 0, 0], [1, 0, 1], [0, 1, 1], [0, 1, 0]])
    searches = []
    search = spectral._irreducible
    monkeypatch.setattr(spectral, "_irreducible", lambda P: searches.append(len(P)) or search(P))
    mu2 = bipartite.mu2_of_assignment(energies, a)
    assert searches == [3]
    assert 0 < mu2 <= spectral._CERTIFIED_MU2
    assert mu2 == _searched_lift_mu2(energies, a)


def test_a_failed_solve_of_a_connected_lift_propagates(monkeypatch):
    def failing(P):
        raise ConvergenceError("stationary residual 1 above 1e-9")

    monkeypatch.setattr(spectral, "_solve_stationary", failing)
    inst = random_connected_instance(np.random.default_rng(4), 7, 4)
    with pytest.raises(ConvergenceError, match="residual 1 above") as info:
        bipartite.mu2_of_assignment(inst.energies, inst.assignment)
    assert not isinstance(info.value, ReducibleChainError)
    with pytest.raises(ReducibleChainError):
        bipartite.mu2_of_assignment(np.array([1, 1]), np.array([[1, 0], [1, 0], [0, 1], [0, 1]]))
