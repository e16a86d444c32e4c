"""The agent/task two-mode walk and its relation to the one-mode walk."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    eig_stationary,
    full_lift,
    full_lift_mu2,
    make_instance,
    random_connected_instance,
)
from hyperteam import bipartite, spectral
from hyperteam.bipartite import (
    bipartite_adjacency,
    bipartite_bundle,
    bipartite_connectivity,
    bipartite_laplacian,
    bipartite_transition,
    two_step,
    two_step_laplacian,
)
from hyperteam.errors import DisconnectedError
from hyperteam.spectral import (
    build_matrices,
    laplacian,
    spectrum,
    stationary_distribution,
    transition_matrix,
)


def _instances(seed, count, n=7, k=4):
    rng = np.random.default_rng(seed)
    return [random_connected_instance(rng, n, k) for _ in range(count)]


def test_adjacency_blocks():
    inst = make_instance([[2, 0], [1, 1], [0, 3]])
    A = bipartite_adjacency(inst)
    n, k = 3, 2
    assert A.shape == (n + k, n + k)
    assert not A[:n, :n].any()
    assert not A[n:, n:].any()
    m = build_matrices(inst)
    assert np.array_equal(A[:n, n:], m.W)
    assert np.array_equal(A[n:, :n], m.R.T)


def test_transition_alternates_sides():
    inst = make_instance([[1], [1]])
    P = bipartite_transition(inst)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    # agents can only hop to the task, the task splits evenly
    assert np.allclose(P[:2, 2], [1.0, 1.0], atol=1e-12)
    assert np.allclose(P[2, :2], [0.5, 0.5], atol=1e-12)
    assert not P[:2, :2].any()


def test_two_step_is_block_diagonal():
    for inst in _instances(5, 10):
        n = inst.n_agents
        P2 = two_step(bipartite_transition(inst))
        assert np.abs(P2[:n, n:]).max() < 1e-12
        assert np.abs(P2[n:, :n]).max() < 1e-12


def test_two_step_agent_block_is_the_hypergraph_walk():
    for inst in _instances(6, 10):
        n = inst.n_agents
        P2 = two_step(bipartite_transition(inst))
        P = transition_matrix(build_matrices(inst))
        assert np.allclose(P2[:n, :n], P, atol=1e-12)


def test_two_step_block_spectra_agree():
    # both blocks share their nonzero spectrum (AB vs BA)
    for inst in _instances(7, 8):
        n = inst.n_agents
        P2 = two_step(bipartite_transition(inst))
        upper = np.sort(np.linalg.eigvals(P2[:n, :n]).real)[::-1]
        lower = np.sort(np.linalg.eigvals(P2[n:, n:]).real)[::-1]
        common = min(len(upper), len(lower))
        assert np.allclose(upper[:common], lower[:common], atol=1e-9)


def test_bipartite_laplacian_shape_and_kernel():
    for inst in _instances(8, 8):
        P = bipartite_transition(inst)
        L = bipartite_laplacian(P)
        size = inst.n_agents + inst.n_tasks
        assert L.shape == (size, size)
        assert np.allclose(L, L.T, atol=1e-12)
        assert np.allclose(L @ np.ones(size), 0.0, atol=1e-10)
        assert spectrum(L)[0] >= -1e-10


def test_bipartite_laplacian_above_dense_limit():
    # the periodic lift of 480 agents and 40 tasks takes the linear solve
    inst = random_connected_instance(np.random.default_rng(61), 480, 40, max_weight=1)
    P = bipartite_transition(inst)
    L = bipartite_laplacian(P)
    assert np.abs(L - laplacian(P, eig_stationary(P))).max() <= 1e-12
    assert np.abs(L @ np.ones(len(P))).max() <= 1e-12


def test_two_step_laplacian_agent_block_halves_the_hypergraph():
    for inst in _instances(9, 8):
        n = inst.n_agents
        bundle = bipartite_bundle(inst)
        P = transition_matrix(build_matrices(inst))
        L_h = laplacian(P, stationary_distribution(P))
        assert np.allclose(bundle.L_star[:n, :n], 0.5 * L_h, atol=1e-12)
        # so the agent-block spectrum is the hypergraph spectrum halved
        upper = spectrum(bundle.L_star[:n, :n])
        assert np.allclose(upper, 0.5 * spectrum(L_h), atol=1e-9)


def test_two_step_laplacian_rejects_bad_split():
    inst = make_instance([[1, 1], [1, 0], [0, 1]])
    P2 = two_step(bipartite_transition(inst))
    with pytest.raises(ValueError):
        two_step_laplacian(P2, 1)


def test_connectivity_positive_when_connected():
    for inst in _instances(10, 6):
        assert bipartite_connectivity(inst) > 0


def test_connectivity_requires_connected():
    two = make_instance([[1, 0], [1, 0], [0, 1], [0, 1]])
    with pytest.raises(DisconnectedError):
        bipartite_connectivity(two)
    with pytest.raises(DisconnectedError):
        bipartite_bundle(two)


def test_bundle_consistency():
    inst = make_instance([[2, 1], [1, 0], [0, 2]])
    bundle = bipartite_bundle(inst)
    assert np.allclose(bundle.P_star, bundle.P @ bundle.P, atol=1e-12)
    assert np.isclose(bundle.pi.sum(), 1.0, atol=1e-10)
    assert np.allclose(bundle.pi @ bundle.P, bundle.pi, atol=1e-8)
    n = inst.n_agents
    assert np.array_equal(bundle.adjacency[:n, n:] > 0, np.asarray(inst.assignment) > 0)


def test_relabelling_leaves_spectra_alone():
    rng = np.random.default_rng(12)
    inst = random_connected_instance(rng, 6, 4)
    a = np.asarray(inst.assignment)
    perm_a = rng.permutation(6)
    perm_t = rng.permutation(4)
    shuffled = make_instance(
        a[np.ix_(perm_a, perm_t)], energies=np.asarray(inst.energies)[perm_t]
    )
    s1 = spectrum(bipartite_laplacian(bipartite_transition(inst)))
    s2 = spectrum(bipartite_laplacian(bipartite_transition(shuffled)))
    assert np.allclose(s1, s2, atol=1e-10)


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
    pi = bipartite_bundle(inst).pi
    assert np.isclose(pi[:n].sum(), 0.5, rtol=0, atol=1e-12)
    assert np.isclose(pi[n:].sum(), 0.5, rtol=0, atol=1e-12)
    assert np.abs(pi - eig_stationary(full_lift(inst.energies, inst.assignment))).max() <= 1e-12


@pytest.mark.parametrize("n, k", [(8, 3), (3, 8), (5, 5)])
def test_bundle_two_step_laplacian_solves_one_chain(monkeypatch, n, k):
    inst = random_connected_instance(np.random.default_rng(n + 2 * k), n, k)
    sizes = []
    solve = spectral.stationary_distribution

    def recording(P):
        sizes.append(np.shape(P))
        return solve(P)

    monkeypatch.setattr(spectral, "stationary_distribution", recording)
    bundle = bipartite_bundle(inst)
    assert sizes == [(k, k)]
    # two_step_laplacian re-solves both side chains: the independent path
    want = two_step_laplacian(bundle.P_star, n)
    assert np.abs(bundle.L_star - want).max() <= 1e-14


@pytest.mark.parametrize("n, k", [(30, 7), (7, 30)])
def test_mu2_never_solves_a_chain_above_the_task_side(monkeypatch, n, k):
    sizes = []
    solve = spectral.stationary_distribution

    def recording(P):
        sizes.append(np.shape(P))
        return solve(P)

    monkeypatch.setattr(spectral, "stationary_distribution", recording)
    inst = random_connected_instance(np.random.default_rng(n + k), n, k)
    bipartite.mu2_of_assignment(inst.energies, inst.assignment)
    assert sizes and max(max(shape) for shape in sizes) <= k
