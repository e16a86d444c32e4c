"""Random-walk matrices, Laplacians, and diffusion against hand-computed values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    component_bundle,
    eig_mu2,
    eig_stationary,
    make_instance,
    random_connected_instance,
)
from hyperteam import greedy, spectral
from hyperteam.errors import ConvergenceError, DegreeError, DisconnectedError
from hyperteam.greedy import centralized_init
from hyperteam.spectral import (
    batch_rows,
    build_matrices,
    diffuse,
    laplacian,
    mu2_batch,
    mu2_of_assignment,
    spectral_bundle,
    spectrum,
    stationary_distribution,
    transition_matrix,
)


def _pair():
    return make_instance([[1], [1]])


def _triple():
    return make_instance([[1], [1], [1]])


def _weighted_triple():
    # one task, weights 2, 1, 1
    return make_instance([[2], [1], [1]])


def test_build_matrices_single_task():
    m = build_matrices(_pair())
    assert np.array_equal(m.W, [[2.0], [2.0]])
    assert np.array_equal(m.R, [[1.0], [1.0]])
    assert np.array_equal(m.d_v, [2.0, 2.0])
    assert np.array_equal(m.d_e, [2.0])


def test_vertex_degree_sums_energies():
    # an agent on two tasks with energies 3 and 5 weighs 8
    inst = make_instance([[1, 1], [1, 0], [0, 1], [0, 1]], energies=[3, 5])
    m = build_matrices(inst)
    assert m.d_v[0] == 8.0


def test_edge_degree_sums_weights():
    m = build_matrices(_weighted_triple())
    assert m.d_e[0] == 4.0


def test_degree_errors():
    idle = make_instance([[1], [0]], budgets=[1, 2])
    with pytest.raises(DegreeError):
        build_matrices(idle)
    empty = make_instance([[1, 0], [1, 0]], energies=[2, 1])
    with pytest.raises(DegreeError):
        build_matrices(empty)


def test_transition_hand_values():
    P = transition_matrix(build_matrices(_triple()))
    assert np.allclose(P, np.full((3, 3), 1 / 3), atol=1e-12)

    P = transition_matrix(build_matrices(_weighted_triple()))
    expected_row = np.array([0.5, 0.25, 0.25])
    assert np.allclose(P, np.tile(expected_row, (3, 1)), atol=1e-12)


def test_transition_rows_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(25):
        inst = random_connected_instance(rng, 8, 5)
        P = transition_matrix(build_matrices(inst))
        assert P.min() >= 0
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-10)


def test_stationary_hand_values():
    P = transition_matrix(build_matrices(_weighted_triple()))
    pi = stationary_distribution(P)
    assert np.allclose(pi, [0.5, 0.25, 0.25], atol=1e-12)


def test_stationary_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(25):
        inst = random_connected_instance(rng, 9, 4)
        P = transition_matrix(build_matrices(inst))
        pi = stationary_distribution(P)
        assert np.isclose(pi.sum(), 1.0, atol=1e-10)
        assert np.allclose(pi @ P, pi, atol=1e-8)
        assert pi.min() > 0


def test_stationary_solve_of_a_600_state_uniform_chain():
    # the normalized linear solve on a 600-state single-task chain, whose
    # stationary distribution is uniform
    n = 600
    inst = make_instance(np.ones((n, 1), dtype=np.int64))
    P = transition_matrix(build_matrices(inst))
    pi = stationary_distribution(P)
    assert np.allclose(pi, np.full(n, 1 / n), atol=1e-10)


def _residual(pi, P):
    return float(np.abs(pi @ P - pi).sum())


def test_stationary_solve_matches_eig_oracle_above_dense_limit():
    rng = np.random.default_rng(53)
    inst = random_connected_instance(rng, 530, 12, max_weight=1)
    P = transition_matrix(build_matrices(inst))
    pi = stationary_distribution(P)
    assert np.abs(pi - eig_stationary(P)).max() <= 1e-12
    assert _residual(pi, P) <= 1e-12


def test_stationary_solve_rejects_reducible_chain():
    # two closed classes: every mixture of their distributions is stationary.
    # In one of these draws the solve alone returns such a mixture, positive
    # and with a tiny residual, so only the reducibility check catches it.
    rng = np.random.default_rng(0)
    for _ in range(5):
        blocks = [
            transition_matrix(build_matrices(random_connected_instance(rng, n, 10)))
            for n in (260, 280)
        ]
        P = np.zeros((540, 540))
        P[:260, :260], P[260:, 260:] = blocks
        with pytest.raises(ConvergenceError):
            stationary_distribution(P)


def test_stationary_rejects_small_reducible_chain():
    # the same two-closed-class trap at 10 + 12 states: the solve's
    # reducibility check holds at every size
    rng = np.random.default_rng(0)
    for _ in range(3):
        blocks = [
            transition_matrix(build_matrices(random_connected_instance(rng, n, 4)))
            for n in (10, 12)
        ]
        P = np.zeros((22, 22))
        P[:10, :10], P[10:, 10:] = blocks
        with pytest.raises(ConvergenceError):
            stationary_distribution(P)


def test_stationary_checks_both_directions_of_an_asymmetric_chain():
    # a 3-cycle is irreducible; once state 2 is absorbing, state 0 still
    # reaches everything, the solve finds the unique pi = e_2, and only the
    # backward search sees that state 2 never returns
    cycle = np.roll(np.eye(3), 1, axis=1)
    assert np.allclose(stationary_distribution(cycle), np.full(3, 1 / 3), atol=1e-12)
    absorbing = cycle.copy()
    absorbing[2] = [0.0, 0.0, 1.0]
    with pytest.raises(ConvergenceError):
        stationary_distribution(absorbing)


def _reach_closure(support: np.ndarray) -> np.ndarray:
    """Which states reach which, by squaring (I | support) to a fixed point."""
    reach = support | np.eye(len(support), dtype=bool)
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(wider, reach):
            return reach
        reach = wider


@pytest.mark.parametrize("n", [7, 40, 120])
def test_irreducible_matches_the_closure_oracle(n):
    # sparse random supports, symmetric and directed
    rng = np.random.default_rng(n)
    outcomes = set()
    for trial in range(24):
        support = rng.random((n, n)) < rng.choice([1.5, 3.0, 6.0]) / n
        if trial % 2:
            support = support | support.T
        P = support * rng.random((n, n))
        reach = _reach_closure(support)
        want = bool(reach[0].all() and reach[:, 0].all())
        assert spectral._irreducible(P) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_stationary_solve_matches_eig_oracle_on_coauthor_small(coauthor_small):
    m = build_matrices(coauthor_small)
    A, B = m.W / m.d_v[:, np.newaxis], (m.R / m.d_e).T
    agent_chain = transition_matrix(m)
    for P in (agent_chain, B @ A):
        pi = stationary_distribution(P)
        assert np.abs(pi - eig_stationary(P)).max() <= 1e-12
        assert _residual(pi, P) <= 1e-12
    assert agent_chain.shape == (52, 52) and (B @ A).shape == (25, 25)


def test_coauthor_large_mu2_matches_eig_oracle(coauthor_large):
    bundle = spectral_bundle(coauthor_large)
    assert _residual(bundle.pi, bundle.P) <= 1e-12
    oracle = spectrum(laplacian(bundle.P, eig_stationary(bundle.P)))[1]
    assert abs(bundle.eigenvalues[1] - oracle) <= 1e-12 * abs(oracle)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), large=st.booleans())
def test_stationary_residual_and_relabelling(seed, large):
    # small chains and chains above N=512
    rng = np.random.default_rng(seed)
    if large:
        n, k = int(rng.integers(513, 560)), int(rng.integers(8, 13))
    else:
        n, k = int(rng.integers(2, 40)), int(rng.integers(3, 8))
    P = transition_matrix(build_matrices(random_connected_instance(rng, n, k)))
    pi = stationary_distribution(P)
    assert _residual(pi, P) < 1e-12
    perm = rng.permutation(n)
    relabelled = stationary_distribution(P[np.ix_(perm, perm)])
    assert np.abs(relabelled - pi[perm]).max() <= 1e-12


def test_stationary_rejects_non_square():
    with pytest.raises(ValueError):
        stationary_distribution(np.ones((2, 3)))


def test_laplacian_two_agents():
    m = build_matrices(_pair())
    P = transition_matrix(m)
    L = laplacian(P, stationary_distribution(P))
    assert np.allclose(L, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)
    assert np.allclose(spectrum(L), [0.0, 0.5], atol=1e-12)


def test_laplacian_three_agents():
    P = transition_matrix(build_matrices(_triple()))
    L = laplacian(P, stationary_distribution(P))
    assert np.allclose(L, np.eye(3) / 3 - np.ones((3, 3)) / 9, atol=1e-12)
    assert np.allclose(spectrum(L), [0.0, 1 / 3, 1 / 3], atol=1e-12)


def test_laplacian_weighted_triple():
    P = transition_matrix(build_matrices(_weighted_triple()))
    L = laplacian(P, stationary_distribution(P))
    expected = np.array(
        [
            [1 / 4, -1 / 8, -1 / 8],
            [-1 / 8, 3 / 16, -1 / 16],
            [-1 / 8, -1 / 16, 3 / 16],
        ]
    )
    assert np.allclose(L, expected, atol=1e-12)
    assert np.allclose(spectrum(L), [0.0, 1 / 4, 3 / 8], atol=1e-12)


def test_laplacian_structure_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(25):
        inst = random_connected_instance(rng, 7, 5)
        P = transition_matrix(build_matrices(inst))
        pi = stationary_distribution(P)
        L = laplacian(P, pi)
        assert np.allclose(L, L.T, atol=1e-12)
        assert np.allclose(L @ np.ones(len(pi)), 0.0, atol=1e-10)
        assert spectrum(L)[0] >= -1e-10


def _three_pass_laplacian(P, pi):
    """Pi - (Pi P + P^T Pi) / 2 with an identity temporary and a symmetrizing pass."""
    pip = pi[..., np.newaxis] * P
    L = pi[..., np.newaxis] * np.eye(P.shape[-1]) - 0.5 * (pip + np.swapaxes(pip, -1, -2))
    return 0.5 * (L + np.swapaxes(L, -1, -2))


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    zero = want == 0
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))


def test_laplacian_matches_the_three_pass_oracle_on_a_stack():
    rng = np.random.default_rng(29)
    stack = np.asarray(
        [transition_matrix(build_matrices(random_connected_instance(rng, 7, 3))) for _ in range(4)]
    )
    pi = np.asarray([stationary_distribution(P) for P in stack])
    _assert_same_bits(laplacian(stack, pi), _three_pass_laplacian(stack, pi))


def test_laplacian_matches_the_three_pass_oracle_with_exact_zeros():
    # two tasks sharing one agent: agents 0 and 2 never meet, so P and L
    # hold exact zeros off the diagonal
    P = transition_matrix(build_matrices(make_instance([[1, 0], [1, 1], [0, 1]])))
    assert (P == 0).any()
    pi = stationary_distribution(P)
    _assert_same_bits(laplacian(P, pi), _three_pass_laplacian(P, pi))


def test_laplacian_ignores_memory_layout():
    rng = np.random.default_rng(19)
    for _ in range(5):
        P = transition_matrix(build_matrices(random_connected_instance(rng, 6, 4)))
        pi = stationary_distribution(P)
        want = _three_pass_laplacian(P, pi)
        for layout in (P, np.asfortranarray(P), P.T.copy().T):
            _assert_same_bits(laplacian(layout, pi), want)


def test_mu2_against_general_eigensolver():
    # same matrix through a different LAPACK route
    rng = np.random.default_rng(23)
    for _ in range(20):
        inst = random_connected_instance(rng, rng.integers(4, 13), rng.integers(2, 5))
        bundle = spectral_bundle(inst)
        raw = np.sort(np.linalg.eigvals(bundle.L).real)
        assert abs(bundle.eigenvalues[1] - raw[1]) < 1e-9


def test_relabelling_equivariance():
    rng = np.random.default_rng(31)
    inst = random_connected_instance(rng, 8, 5)
    a = np.asarray(inst.assignment)
    perm_a = rng.permutation(8)
    perm_t = rng.permutation(5)
    shuffled = make_instance(
        a[np.ix_(perm_a, perm_t)], energies=np.asarray(inst.energies)[perm_t]
    )

    P = transition_matrix(build_matrices(inst))
    Q = transition_matrix(build_matrices(shuffled))
    assert np.allclose(Q, P[np.ix_(perm_a, perm_a)], atol=1e-10)

    s1 = spectral_bundle(inst).eigenvalues
    s2 = spectral_bundle(shuffled).eigenvalues
    assert np.allclose(s1, s2, atol=1e-10)


def test_scale_covariance():
    # scaling every weight and energy by the same factor changes nothing
    rng = np.random.default_rng(37)
    inst = random_connected_instance(rng, 6, 4)
    scaled = make_instance(
        np.asarray(inst.assignment) * 3, energies=np.asarray(inst.energies) * 3
    )
    P1 = transition_matrix(build_matrices(inst))
    P2 = transition_matrix(build_matrices(scaled))
    assert np.allclose(P1, P2, atol=1e-12)
    assert np.isclose(
        mu2_of_assignment(np.asarray(inst.energies), np.asarray(inst.assignment)),
        mu2_of_assignment(np.asarray(scaled.energies), np.asarray(scaled.assignment)),
        atol=1e-12,
    )


def test_diffusion_basics():
    inst = _triple()
    bundle = spectral_bundle(inst)
    x0 = np.array([1.0, 0.0, 0.0])
    times = np.array([0.0, 1.0, 5.0, 50.0])
    states = diffuse(bundle.L, x0, times)
    assert states.shape == (4, 3)
    assert np.allclose(states[0], x0, atol=1e-12)
    assert np.allclose(states.sum(axis=1), 1.0, atol=1e-8)
    assert np.allclose(states[-1], np.full(3, 1 / 3), atol=1e-6)
    with pytest.raises(ValueError):
        diffuse(bundle.L, x0, np.array([-1.0]))


def test_bundle_builds_the_weight_matrices_once(monkeypatch):
    inst = random_connected_instance(np.random.default_rng(4), 6, 3)
    calls = []
    build = spectral.edvw_matrices

    def recording(energies, assignment):
        calls.append(np.shape(assignment))
        return build(energies, assignment)

    monkeypatch.setattr(spectral, "edvw_matrices", recording)
    bundle = spectral_bundle(inst)
    assert calls == [(6, 3)]
    P = transition_matrix(build_matrices(inst))
    assert np.array_equal(bundle.P, P)
    assert np.array_equal(bundle.L, laplacian(P, stationary_distribution(P)))


def _disconnected_instance(rng):
    """Two to four random components, agents and tasks shuffled; some have one agent."""
    blocks = [
        random_connected_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4))).assignment
        for _ in range(int(rng.integers(2, 5)))
    ]
    a = np.zeros((sum(len(b) for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.int64)
    i = k = 0
    for b in blocks:
        a[i : i + b.shape[0], k : k + b.shape[1]] = b
        i, k = i + b.shape[0], k + b.shape[1]
    return make_instance(a[rng.permutation(i)][:, rng.permutation(k)]), [len(b) for b in blocks]


def test_disconnected_bundle_matches_the_per_component_assembly():
    rng = np.random.default_rng(13)
    singletons = 0
    for _ in range(60):
        inst, sizes = _disconnected_instance(rng)
        count = len(sizes)
        singletons += 1 in sizes
        bundle = spectral_bundle(inst, allow_disconnected=True)
        P, pi, L = component_bundle(inst)
        assert np.abs(bundle.P - P).max() <= 1e-14
        assert np.abs(bundle.pi - pi).max() <= 1e-14
        assert np.abs(bundle.L - L).max() <= 1e-14
        assert np.abs(bundle.eigenvalues - np.linalg.eigvalsh(L)).max() <= 1e-14
        assert (np.abs(bundle.eigenvalues) < 1e-10).sum() == count
        with pytest.raises(DisconnectedError, match=f"hypergraph has {count} components"):
            spectral_bundle(inst)
    assert singletons


def test_connected_bundle_labels_no_components(monkeypatch):
    def labelling(incidence):
        raise AssertionError("a connected bundle needs no component labels")

    monkeypatch.setattr(spectral, "bipartite_components", labelling)
    inst = random_connected_instance(np.random.default_rng(5), 7, 4)
    P = transition_matrix(build_matrices(inst))
    assert np.array_equal(spectral_bundle(inst).P, P)


def test_disconnected_bundle_builds_the_weight_matrices_once(monkeypatch):
    inst, _ = _disconnected_instance(np.random.default_rng(8))
    calls = []
    build = spectral.edvw_matrices

    def recording(energies, assignment):
        calls.append(np.shape(assignment))
        return build(energies, assignment)

    monkeypatch.setattr(spectral, "edvw_matrices", recording)
    spectral_bundle(inst, allow_disconnected=True)
    assert calls == [inst.assignment.shape]


def test_diffusion_rate_tracks_connectivity():
    fast = spectral_bundle(_triple())
    slow_inst = make_instance([[1, 0], [1, 1], [0, 1]])
    slow = spectral_bundle(slow_inst)
    assert fast.eigenvalues[1] > slow.eigenvalues[1]
    x0 = np.array([1.0, 0.0, 0.0])
    t = np.array([8.0])
    gap_fast = np.abs(diffuse(fast.L, x0, t)[0] - 1 / 3).max()
    gap_slow = np.abs(diffuse(slow.L, x0, t)[0] - 1 / 3).max()
    assert gap_fast < gap_slow


def test_bundle_rejects_disconnected():
    two = make_instance([[1, 0], [1, 0], [0, 1], [0, 1]])
    with pytest.raises(DisconnectedError):
        spectral_bundle(two)


def test_bundle_disconnected_mode():
    two = make_instance([[1, 0], [1, 0], [0, 1], [0, 1]])
    bundle = spectral_bundle(two, allow_disconnected=True)
    eigs = bundle.eigenvalues
    assert (np.abs(eigs) < 1e-10).sum() == 2
    assert np.isclose(bundle.pi.sum(), 1.0, atol=1e-12)

    three = make_instance(
        [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]
    )
    eigs = spectral_bundle(three, allow_disconnected=True).eigenvalues
    assert (np.abs(eigs) < 1e-10).sum() == 3


def test_mu2_ignores_idle_rows_and_empty_columns():
    a = np.array([[1, 0], [1, 0], [0, 0]])
    energies = np.array([2, 1])
    assert np.isclose(
        mu2_of_assignment(energies, a),
        spectrum(
            laplacian(
                transition_matrix(build_matrices(_pair())),
                np.array([0.5, 0.5]),
            )
        )[1],
        atol=1e-12,
    )
    # fewer than two active agents leaves nothing to connect
    assert mu2_of_assignment(np.array([1]), np.array([[2], [0]])) == 0.0


def test_mu2_matches_bundle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        inst = random_connected_instance(rng, 7, 4)
        bundle = spectral_bundle(inst)
        direct = mu2_of_assignment(np.asarray(inst.energies), np.asarray(inst.assignment))
        assert np.isclose(direct, bundle.eigenvalues[1], atol=1e-12)


@pytest.mark.parametrize("c, n, k", [(40, 60, 6), (300, 6, 3), (2, 515, 5)])
def test_mu2_batch_matches_eig_oracle(c, n, k):
    # (40, 60) spans ten chunks of four; 515 agents take one chain per chunk
    rng = np.random.default_rng(n)
    stack = rng.integers(1, 4, size=(c, n, k)) * (rng.random((c, n, k)) < 0.5)
    # agent 0 on every task and every agent on task 0: connected, all active
    stack[:, :, 0] = np.maximum(stack[:, :, 0], 1)
    stack[:, 0, :] = np.maximum(stack[:, 0, :], 1)
    energies = rng.integers(1, 6, size=(c, k))
    got = mu2_batch(energies, stack)
    want = np.array([eig_mu2(e, a) for e, a in zip(energies, stack)])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # each entry is exactly the batch-of-one value
    assert got.tolist() == [mu2_batch(e[None], a[None])[0] for e, a in zip(energies, stack)]
    # the single-state path takes the checked solve and agrees with the oracle
    single = np.array([mu2_of_assignment(e, a) for e, a in zip(energies, stack)])
    assert np.all(np.abs(single - want) <= 1e-12 * np.abs(want))


def _greedy_first_round(inst):
    """Greedy's first-round offers that wake an idle agent, as one stack.

    After the hub seed every task is covered, so each unit an idle agent
    offers adds its row to the seed's active part: one (C, n + 1, K) shape.
    """
    b = centralized_init(inst)
    rows_on, cols_on = b.sum(axis=1) > 0, b.sum(axis=0) > 0
    assert cols_on.all()
    agents = np.repeat(np.flatnonzero(~rows_on & (inst.budgets > 0)), inst.n_tasks)
    tasks = np.tile(np.arange(inst.n_tasks), len(agents) // inst.n_tasks)
    stack, cols = greedy._offer_stack(b, rows_on, cols_on, agents, tasks, np.ones_like(agents))
    return inst.energies[cols], stack


@pytest.mark.parametrize("case", ["own-assignment", "greedy-first-round", "515-agent-chunk"])
def test_one_assignment_through_both_solvers(coauthor_small, monkeypatch, case):
    # the stacked solve of mu2_batch, the checked solve of mu2_of_assignment
    # and the dense eig oracle give one mu2
    if case == "own-assignment":
        energies, stack = coauthor_small.energies[np.newaxis], coauthor_small.assignment[np.newaxis]
    elif case == "greedy-first-round":
        energies, stack = _greedy_first_round(coauthor_small)
        assert stack.shape == (48 * 25, 5, 25)
    else:
        # three chains in one chunk, each solved in the stack
        c, n, k = 3, 515, 5
        monkeypatch.setattr(spectral, "_BATCH_ENTRIES", c * n * n)
        rng = np.random.default_rng(c)
        stack = rng.integers(1, 4, size=(c, n, k)) * (rng.random((c, n, k)) < 0.5)
        stack[:, :, 0] = np.maximum(stack[:, :, 0], 1)
        stack[:, 0, :] = np.maximum(stack[:, 0, :], 1)
        energies = rng.integers(1, 6, size=(c, k))
        assert batch_rows(n, k) == c
    got = mu2_batch(energies, stack)
    single = np.array([mu2_of_assignment(e, a) for e, a in zip(energies, stack)])
    want = np.array([eig_mu2(e, a) for e, a in zip(energies, stack)])
    assert want.min() > 0
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert np.all(np.abs(single - want) <= 1e-12 * want)
    assert got.tolist() == single.tolist()
    # each entry is exactly the batch-of-one value
    assert got.tolist() == [mu2_batch(e[None], a[None])[0] for e, a in zip(energies, stack)]


def test_stacked_solve_is_each_chains_solve_and_checks_every_chain():
    rng = np.random.default_rng(17)
    insts = [random_connected_instance(rng, 9, 4) for _ in range(5)]
    chains = np.stack([transition_matrix(build_matrices(inst)) for inst in insts])
    pi = spectral._solve_stationary(chains)
    assert pi.tolist() == [stationary_distribution(P).tolist() for P in chains]
    # the diagonal shift writes through a view of the solve's own copy, so the
    # memory order of P does not matter
    for P in (np.asfortranarray(chains[0]), chains[:, ::-1, ::-1].swapaxes(1, 2)):
        assert spectral._solve_stationary(P).tolist() == spectral._solve_stationary(P.copy()).tolist()
    # one chain that leaks half its mass per step fails the residual check
    chains[3] *= 0.5
    with pytest.raises(ConvergenceError, match="residual 0.5 above"):
        spectral._solve_stationary(chains)


def test_mu2_of_assignment_runs_each_chain_function_once(monkeypatch):
    names = (
        "edvw_matrices",
        "transition_matrix",
        "stationary_distribution",
        "laplacian",
        "spectrum",
    )
    calls = []
    for name in names:

        def recording(*args, _name=name, _fn=getattr(spectral, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(spectral, name, recording)
    inst = random_connected_instance(np.random.default_rng(8), 7, 4)
    mu2_of_assignment(inst.energies, inst.assignment)
    assert calls == list(names)


def test_batch_rows_bounds_the_largest_array():
    # N x N, or N x K when K > N, entries per assignment; one from N = 128
    assert [batch_rows(6, 3), batch_rows(52, 25), batch_rows(4, 64)] == [455, 6, 64]
    assert batch_rows(128, 5) == batch_rows(781, 704) == 1


def test_mu2_batch_edge_cases():
    assert mu2_batch(np.zeros((0, 1)), np.zeros((0, 3, 1))).shape == (0,)
    # fewer than two agents leaves nothing to connect
    stack = np.array([[[1, 1]], [[2, 3]]])
    assert mu2_batch(np.array([[1, 2], [2, 3]]), stack).tolist() == [0.0, 0.0]
    # an idle agent or an empty task is outside the active shape
    for stack in ([[[1, 0], [0, 0]]], [[[1, 0], [1, 0]]]):
        with pytest.raises(ValueError):
            mu2_batch(np.array([[1, 1]]), np.array(stack))
    # energies come one row per assignment
    with pytest.raises(ValueError, match="energies"):
        mu2_batch(np.array([1, 1]), np.ones((3, 2, 2)))
