"""Random-walk matrices, Laplacians, and diffusion against hand-computed values."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    component_bundle,
    eig_mu2,
    eig_stationary,
    make_instance,
    random_active_assignment,
    random_connected_instance,
)
from hyperteam import bipartite, greedy, spectral
from hyperteam.errors import ConvergenceError, DegreeError, DisconnectedError, ReducibleChainError
from hyperteam.greedy import centralized_init
from hyperteam.instance import bipartite_components
from hyperteam.spectral import (
    batch_rows,
    diffuse,
    laplacian,
    mu2_batch,
    mu2_of_assignment,
    spectral_bundle,
    spectrum,
    stationary_distribution,
    transition_matrix,
    walk_blocks,
)


def _pair():
    return make_instance([[1], [1]])


def _triple():
    return make_instance([[1], [1], [1]])


def _weighted_triple():
    # one task, weights 2, 1, 1
    return make_instance([[2], [1], [1]])


def _walk(inst):
    """The agent walk P of an instance."""
    return transition_matrix(inst.energies, inst.assignment)


def test_walk_blocks_single_task():
    A, B = walk_blocks(_pair().energies, _pair().assignment)
    assert np.array_equal(A, [[1.0], [1.0]])
    assert np.array_equal(B, [[0.5, 0.5]])


def test_vertex_degree_sums_energies():
    # an agent on two tasks with energies 3 and 5 weighs 8
    inst = make_instance([[1, 1], [1, 0], [0, 1], [0, 1]], energies=[3, 5])
    A, _ = walk_blocks(inst.energies, inst.assignment)
    assert A[0].tolist() == [3 / 8, 5 / 8]


def test_edge_degree_sums_weights():
    inst = _weighted_triple()
    _, B = walk_blocks(inst.energies, inst.assignment)
    assert B[0].tolist() == [2 / 4, 1 / 4, 1 / 4]


def test_degree_errors():
    # the agent or task is named by its index, within its own assignment
    idle = make_instance([[1], [0]], budgets=[1, 2])
    with pytest.raises(DegreeError, match="agent 1 belongs to no task"):
        walk_blocks(idle.energies, idle.assignment)
    empty = make_instance([[1, 0], [1, 0]], energies=[2, 1])
    with pytest.raises(DegreeError, match="task 1 has no agents"):
        transition_matrix(empty.energies, empty.assignment)
    stack = np.ones((3, 2, 2), dtype=np.int64)
    stack[2, :, 1] = 0
    with pytest.raises(DegreeError, match="task 1 has no agents"):
        walk_blocks(np.array([1, 1]), stack)
    stack[1, 1] = 0
    with pytest.raises(ValueError, match="agent 1 belongs to no task"):
        walk_blocks(np.array([1, 1]), stack)


def test_a_stack_walks_as_its_assignments_do():
    rng = np.random.default_rng(2)
    insts = [random_connected_instance(rng, 6, 3) for _ in range(4)]
    energies = np.stack([inst.energies for inst in insts])
    stack = np.stack([inst.assignment for inst in insts])
    A, B = walk_blocks(energies, stack)
    assert A.shape == (4, 6, 3) and B.shape == (4, 3, 6)
    for a, b, inst in zip(A, B, insts):
        want_a, want_b = walk_blocks(inst.energies, inst.assignment)
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
    assert np.array_equal(transition_matrix(energies, stack), A @ B)
    assert np.allclose(A.sum(axis=-1), 1.0) and np.allclose(B.sum(axis=-1), 1.0)
    # the degrees divide copies, never the caller's arrays
    floats = stack.astype(np.float64)
    walk_blocks(energies.astype(np.float64), floats)
    assert np.array_equal(floats, stack)


def test_transition_hand_values():
    P = _walk(_triple())
    assert np.allclose(P, np.full((3, 3), 1 / 3), atol=1e-12)

    P = _walk(_weighted_triple())
    expected_row = np.array([0.5, 0.25, 0.25])
    assert np.allclose(P, np.tile(expected_row, (3, 1)), atol=1e-12)


def test_transition_rows_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(25):
        inst = random_connected_instance(rng, 8, 5)
        P = _walk(inst)
        assert P.min() >= 0
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-10)


def test_stationary_hand_values():
    P = _walk(_weighted_triple())
    pi = stationary_distribution(P)
    assert np.allclose(pi, [0.5, 0.25, 0.25], atol=1e-12)


def test_stationary_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(25):
        inst = random_connected_instance(rng, 9, 4)
        P = _walk(inst)
        pi = stationary_distribution(P)
        assert np.isclose(pi.sum(), 1.0, atol=1e-10)
        assert np.allclose(pi @ P, pi, atol=1e-8)
        assert pi.min() > 0


def test_stationary_solve_of_a_600_state_uniform_chain():
    # the normalized linear solve on a 600-state single-task chain, whose
    # stationary distribution is uniform
    n = 600
    inst = make_instance(np.ones((n, 1), dtype=np.int64))
    P = _walk(inst)
    pi = stationary_distribution(P)
    assert np.allclose(pi, np.full(n, 1 / n), atol=1e-10)


def _residual(pi, P):
    return float(np.abs(pi @ P - pi).sum())


def test_stationary_solve_matches_eig_oracle_above_dense_limit():
    rng = np.random.default_rng(53)
    inst = random_connected_instance(rng, 530, 12, max_weight=1)
    P = _walk(inst)
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
            _walk(random_connected_instance(rng, n, 10))
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
            _walk(random_connected_instance(rng, n, 4))
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
    A, B = walk_blocks(coauthor_small.energies, coauthor_small.assignment)
    agent_chain = _walk(coauthor_small)
    assert np.array_equal(agent_chain, A @ B)
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
    P = _walk(random_connected_instance(rng, n, k))
    pi = stationary_distribution(P)
    assert _residual(pi, P) < 1e-12
    perm = rng.permutation(n)
    relabelled = stationary_distribution(P[np.ix_(perm, perm)])
    assert np.abs(relabelled - pi[perm]).max() <= 1e-12


def test_stationary_rejects_non_square():
    with pytest.raises(ValueError):
        stationary_distribution(np.ones((2, 3)))


def test_laplacian_two_agents():
    P = _walk(_pair())
    L = laplacian(P, stationary_distribution(P))
    assert np.allclose(L, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)
    assert np.allclose(spectrum(L), [0.0, 0.5], atol=1e-12)


def test_laplacian_three_agents():
    P = _walk(_triple())
    L = laplacian(P, stationary_distribution(P))
    assert np.allclose(L, np.eye(3) / 3 - np.ones((3, 3)) / 9, atol=1e-12)
    assert np.allclose(spectrum(L), [0.0, 1 / 3, 1 / 3], atol=1e-12)


def test_laplacian_weighted_triple():
    P = _walk(_weighted_triple())
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
        P = _walk(inst)
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
        [_walk(random_connected_instance(rng, 7, 3)) for _ in range(4)]
    )
    pi = np.asarray([stationary_distribution(P) for P in stack])
    _assert_same_bits(laplacian(stack, pi), _three_pass_laplacian(stack, pi))


def test_laplacian_matches_the_three_pass_oracle_with_exact_zeros():
    # two tasks sharing one agent: agents 0 and 2 never meet, so P and L
    # hold exact zeros off the diagonal
    P = _walk(make_instance([[1, 0], [1, 1], [0, 1]]))
    assert (P == 0).any()
    pi = stationary_distribution(P)
    _assert_same_bits(laplacian(P, pi), _three_pass_laplacian(P, pi))


def test_laplacian_ignores_memory_layout():
    rng = np.random.default_rng(19)
    for _ in range(5):
        P = _walk(random_connected_instance(rng, 6, 4))
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

    P = _walk(inst)
    Q = _walk(shuffled)
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
    P1 = _walk(inst)
    P2 = _walk(scaled)
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
    build = spectral.walk_blocks

    def recording(energies, assignment):
        calls.append(np.shape(assignment))
        return build(energies, assignment)

    monkeypatch.setattr(spectral, "walk_blocks", recording)
    bundle = spectral_bundle(inst)
    assert calls == [(6, 3)]
    P = _walk(inst)
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
    P = _walk(inst)
    assert np.array_equal(spectral_bundle(inst).P, P)


def test_disconnected_bundle_builds_the_weight_matrices_once(monkeypatch):
    inst, _ = _disconnected_instance(np.random.default_rng(8))
    calls = []
    build = spectral.walk_blocks

    def recording(energies, assignment):
        calls.append(np.shape(assignment))
        return build(energies, assignment)

    monkeypatch.setattr(spectral, "walk_blocks", recording)
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

    # an agent in no task is a component of its own, but it has no walk
    idle = make_instance([[1, 1], [1, 1], [0, 0]], energies=[2, 2])
    with pytest.raises(DisconnectedError, match="hypergraph has 2 components"):
        spectral_bundle(idle)
    with pytest.raises(DegreeError, match="agent 2 belongs to no task"):
        spectral_bundle(idle, allow_disconnected=True)


@pytest.mark.parametrize("objective", [spectral, bipartite], ids=["hypergraph", "bipartite"])
def test_both_objectives_need_a_whole_assignment(objective):
    # an idle agent or an empty task is no part of the walk: greedy cuts
    # them off before it scores, and the annealer rejects the state
    energies = np.array([2, 1])
    with pytest.raises(DegreeError, match="agent 2 belongs to no task"):
        objective.mu2_of_assignment(energies, np.array([[1, 1], [1, 1], [0, 0]]))
    with pytest.raises(DegreeError, match="task 1 has no agents"):
        objective.mu2_of_assignment(energies, np.array([[1, 0], [1, 0]]))
    # a lone agent next to an empty task raises too
    with pytest.raises(DegreeError, match="task 1 has no agents"):
        objective.mu2_of_assignment(energies, np.array([[2, 0]]))
    if objective is spectral:
        # a lone agent on every task has no mixing to measure
        assert spectral.mu2_of_assignment(energies, np.array([[2, 1]])) == 0.0


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
    chains = np.stack([_walk(inst) for inst in insts])
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
    # the certified path solves once and never searches a connected chain
    names = (
        "transition_matrix",
        "walk_blocks",
        "certified_mu2",
        "_solve_stationary",
        "laplacian",
        "spectrum",
    )
    calls = []
    for name in (*names, "stationary_distribution", "_irreducible"):

        def recording(*args, _name=name, _fn=getattr(spectral, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(spectral, name, recording)
    inst = random_connected_instance(np.random.default_rng(8), 7, 4)
    mu2_of_assignment(inst.energies, inst.assignment)
    assert calls == list(names)


def _searched_mu2(P: np.ndarray) -> float:
    """mu2 by the searched path: reducibility checked before the solve."""
    return float(spectrum(laplacian(P, stationary_distribution(P)))[1])


def test_certified_mu2_splits_as_the_component_oracle_does():
    # split chains are caught whether their solve fails or passes, and every
    # connected chain scores exactly as the searched path does
    rng = np.random.default_rng(23)
    seen = {"connected": 0, "split, solve failed": 0, "split, solve passed": 0}
    for _ in range(400):
        energies, a = random_active_assignment(rng)
        if len(a) < 2:
            continue
        P = transition_matrix(energies, a)
        if bipartite_components(a > 0)[0] == 1:
            assert mu2_of_assignment(energies, a) == _searched_mu2(P) > spectral._CERTIFIED_MU2
            seen["connected"] += 1
            continue
        with pytest.raises(ReducibleChainError):
            mu2_of_assignment(energies, a)
        try:
            spectral._solve_stationary(P)
            seen["split, solve passed"] += 1
        except ConvergenceError:
            seen["split, solve failed"] += 1
    assert min(seen.values()) >= 20, seen


def _weak_bridge():
    # two heavy tasks joined by a task of energy 1: the walk crosses it
    # about once in 1e9 steps
    return np.array([10**9, 10**9, 1]), np.array([[1, 0, 0], [1, 0, 1], [0, 1, 1], [0, 1, 0]])


def test_a_connected_chain_below_the_bound_still_scores(monkeypatch):
    energies, a = _weak_bridge()
    searches = []
    search = spectral._irreducible
    monkeypatch.setattr(spectral, "_irreducible", lambda P: searches.append(len(P)) or search(P))
    mu2 = mu2_of_assignment(energies, a)
    assert searches == [4]
    assert 0 < mu2 <= spectral._CERTIFIED_MU2
    assert mu2 == _searched_mu2(transition_matrix(energies, a))


def test_a_failed_solve_of_a_connected_chain_propagates(monkeypatch):
    def failing(P):
        raise ConvergenceError("stationary residual 1 above 1e-9")

    monkeypatch.setattr(spectral, "_solve_stationary", failing)
    inst = random_connected_instance(np.random.default_rng(4), 7, 4)
    with pytest.raises(ConvergenceError, match="residual 1 above") as info:
        mu2_of_assignment(inst.energies, inst.assignment)
    assert not isinstance(info.value, ReducibleChainError)
    # the same failure on a split chain is a split
    with pytest.raises(ReducibleChainError):
        mu2_of_assignment(np.array([1, 1]), np.array([[1, 0], [1, 0], [0, 1], [0, 1]]))


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


# -- symmetric eigen solves on one OpenBLAS thread -----------------------


class _FakeThreads:
    """A (get, set) pair standing in for OpenBLAS's thread-count functions."""

    def __init__(self, count: int):
        self.count, self.sets = count, []

    def get(self) -> int:
        return self.count

    def set(self, count: int) -> None:
        self.sets.append(count)
        self.count = count


def _symmetric(n: int) -> np.ndarray:
    a = np.random.default_rng(n).random((n, n))
    return a + a.T


# each symmetric eigen solve of the package, by the numpy function it calls
_SOLVES = {
    "eigvalsh": spectrum,
    "eigh": lambda L: diffuse(L, np.ones(len(L)), np.array([0.0, 1.0])),
}


def _fake_blas(monkeypatch, count: int) -> _FakeThreads:
    fake = _FakeThreads(count)
    monkeypatch.setattr(spectral, "_blas_threads", lambda: (fake.get, fake.set))
    return fake


@pytest.mark.parametrize("name", sorted(_SOLVES))
def test_a_small_eigen_solve_runs_on_one_thread_and_restores_the_count(monkeypatch, name):
    fake = _fake_blas(monkeypatch, 2)
    solve, seen = getattr(np.linalg, name), []
    monkeypatch.setattr(np.linalg, name, lambda L: seen.append(fake.count) or solve(L))
    L = _symmetric(77)
    out = _SOLVES[name](L)
    assert seen == [1]
    assert fake.sets == [1, 2] and fake.count == 2
    # the fake never changes OpenBLAS's real count, so the expected value is
    # taken with it still installed: both solves run on the same real threads
    monkeypatch.setattr(np.linalg, name, solve)
    np.testing.assert_array_equal(out, _SOLVES[name](L))


@pytest.mark.parametrize("name", sorted(_SOLVES))
def test_the_thread_count_is_restored_when_the_solve_raises(monkeypatch, name):
    fake = _fake_blas(monkeypatch, 3)

    def failing(L):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, name, failing)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        _SOLVES[name](_symmetric(77))
    assert fake.sets == [1, 3] and fake.count == 3


@pytest.mark.parametrize(("n", "count"), [(600, 2), (512, 2), (64, 2), (6, 2), (77, 1), (511, 1)])
def test_no_thread_count_is_set_outside_the_serial_sizes_or_at_one_thread(monkeypatch, n, count):
    # OpenBLAS threads from 65 on, and two threads pay from about 512
    fake = _fake_blas(monkeypatch, count)
    L = _symmetric(n)
    np.testing.assert_array_equal(spectrum(L), np.linalg.eigvalsh(L))
    assert fake.sets == [] and fake.count == count


def test_a_stack_is_sized_by_its_matrices(monkeypatch):
    fake = _fake_blas(monkeypatch, 2)
    stack = np.stack([_symmetric(77), _symmetric(77) + 1.0])
    np.testing.assert_array_equal(spectrum(stack), np.linalg.eigvalsh(stack))
    assert fake.sets == [1, 2]
    fake.sets.clear()
    spectrum(np.stack([_symmetric(6)] * 600))
    assert fake.sets == []


def test_without_openblas_the_solves_run_as_numpy_does(monkeypatch):
    monkeypatch.setattr(spectral, "_blas_threads", lambda: None)
    L = _symmetric(77)
    np.testing.assert_array_equal(spectrum(L), np.linalg.eigvalsh(L))
    evals, evecs = np.linalg.eigh(L)
    x0, times = np.ones(77), np.array([0.5, 2.0])
    want = (np.exp(-np.outer(times, evals)) * (evecs.T @ x0)) @ evecs.T
    np.testing.assert_array_equal(diffuse(L, x0, times), want)


@pytest.mark.parametrize(
    "maps",
    [
        "",
        "7f00-7f01 r--p 00000000 fe:00 1  /usr/lib/libfoo.so\n",
        "7f00-7f01 r--p 00000000 fe:00 1  /nonexistent/libopenblas.so\n",
        None,
    ],
    ids=["empty", "other-library", "unloadable", "no-proc"],
)
def test_the_lookup_finds_nothing_without_an_openblas_mapping(monkeypatch, maps):
    def fake_open(path, *args, **kwargs):
        assert path == "/proc/self/maps"
        if maps is None:  # no /proc, as off Linux
            raise FileNotFoundError(path)
        return io.StringIO(maps)

    monkeypatch.setattr(spectral, "open", fake_open, raising=False)
    assert spectral._blas_threads.__wrapped__() is None


def _numpy_blas() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return ""
    return str(config.get("Build Dependencies", {}).get("blas", {}).get("name", ""))


@pytest.mark.skipif("openblas" not in _numpy_blas().lower(), reason="numpy is not on OpenBLAS")
def test_the_lookup_resolves_numpys_openblas(monkeypatch):
    threads = spectral._blas_threads()
    assert threads is not None
    get, _ = threads
    before, seen = get(), []
    assert before >= 1
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda L: seen.append(get()) or solve(L))
    spectrum(_symmetric(77))
    assert seen == [1]
    assert get() == before
