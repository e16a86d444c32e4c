"""Two-phase greedy optimizer: hub seeding, shortfall filling, spare spending."""

from __future__ import annotations

import hashlib
import math
from functools import partial

import numpy as np
import pytest

from conftest import eig_mu2, eig_mu2_batch, make_instance, random_connected_instance
from hyperteam import greedy, spectral
from hyperteam.errors import InfeasibleError, StallError
from hyperteam.greedy import (
    GreedyParams,
    centralized_init,
    greedy_optimize,
    phase1,
    phase2,
)
from hyperteam.instance import ProblemInstance, bipartite_components, reaches_all
from hyperteam.seeds import substream
from hyperteam.spectral import mu2_batch, mu2_of_assignment


def _budgeted(budgets, energies):
    n, k = len(budgets), len(energies)
    return ProblemInstance(
        agent_ids=tuple(f"a{i}" for i in range(n)),
        budgets=np.asarray(budgets),
        task_ids=tuple(f"t{j}" for j in range(k)),
        energies=np.asarray(energies),
        assignment=np.zeros((n, k), dtype=np.int64),
    )


def _mu2(inst, a):
    """mu2 of the active part: the agents and tasks that hold a unit."""
    rows, cols = a.sum(axis=1) > 0, a.sum(axis=0) > 0
    return mu2_of_assignment(np.asarray(inst.energies)[cols], a[np.ix_(rows, cols)])


def _offer_mu2(inst, a):
    """mu2 of the active part scored as an ``eig_mu2_batch`` batch of one.

    Greedy's offer decisions are those of the all-``eig`` scan, which this
    scores one offer at a time; a batch of one is bit-identical to a stack
    entry. Its base state is scored with ``mu2_of_assignment``.
    """
    rows, cols = a.sum(axis=1) > 0, a.sum(axis=0) > 0
    energies = np.asarray(inst.energies)[cols]
    return eig_mu2_batch(energies[np.newaxis], a[np.ix_(rows, cols)][np.newaxis])[0]


def test_mu2_ignores_idle_rows_and_empty_columns():
    # the active part of two agents on task 0 is the balanced pair, mu2 1/2
    inst = _budgeted([1, 1, 1], [2, 1])
    assert math.isclose(greedy._mu2(inst, np.array([[1, 0], [1, 0], [0, 0]])), 0.5, abs_tol=1e-12)
    # fewer than two active agents leaves nothing to connect
    assert greedy._mu2(_budgeted([2, 1], [1]), np.array([[2], [0]])) == 0.0
    # a split active part scores 0
    assert greedy._mu2(inst, np.array([[1, 0], [0, 1], [0, 0]])) == 0.0


def test_init_single_hub_covers_everything():
    inst = _budgeted([3, 1, 1], [1, 1, 1])
    seed = centralized_init(inst)
    assert np.array_equal(seed, [[1, 1, 1], [0, 0, 0], [0, 0, 0]])


def test_init_chains_two_hubs():
    inst = _budgeted([5, 5], [1] * 8)
    seed = centralized_init(inst)
    expected = np.zeros((2, 8), dtype=np.int64)
    expected[0, :5] = 1  # first hub covers t0..t4
    expected[1, 0] = 1  # second hub links through t0
    expected[1, 5:8] = 1  # then covers the rest
    assert np.array_equal(seed, expected)
    count, _, _ = bipartite_components(seed > 0)
    assert count == 1


def test_init_chain_leaves_spare():
    inst = _budgeted([3, 3], [2, 2, 2, 2])
    seed = centralized_init(inst)
    assert np.array_equal(seed, [[1, 1, 1, 0], [1, 0, 0, 1]])
    count, _, _ = bipartite_components(seed > 0)
    assert count == 1


def test_init_stalls_on_unit_budgets():
    # after the first hub every later agent burns its only unit on the chain
    inst = _budgeted([1, 1, 1], [1, 1])
    with pytest.raises(StallError):
        centralized_init(inst)


def test_init_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(10):
        inst = random_connected_instance(rng, 10, 4, slack=2)
        seed = centralized_init(inst)
        assert (seed.sum(axis=0) >= 1).all()
        assert (seed.sum(axis=1) <= inst.budgets).all()
        active = seed.sum(axis=1) > 0
        count, _, _ = bipartite_components(seed[active] > 0)
        assert count == 1


def _naive_phase1(inst, seed, packet):
    """Reference shortfall filler: scan everything, apply the best offer."""
    b = np.array(seed, dtype=np.int64)
    remaining = np.asarray(inst.budgets) - b.sum(axis=1)
    shortfall = np.asarray(inst.energies) - b.sum(axis=0)
    while (shortfall > 0).any():
        if not (remaining > 0).any():
            raise StallError("out of budget")
        base = _mu2(inst, b)
        offers = []
        for j in range(inst.n_agents):
            if remaining[j] <= 0:
                continue
            for k in range(inst.n_tasks):
                if shortfall[k] <= 0:
                    continue
                u = int(min(remaining[j], shortfall[k], packet))
                b[j, k] += u
                gain = (_offer_mu2(inst, b) - base) / u
                b[j, k] -= u
                offers.append((-gain, j, k, u))
        _, j, k, u = min(offers)
        b[j, k] += u
        remaining[j] -= u
        shortfall[k] -= u
    return b


@pytest.mark.parametrize("packet", [1, 2])
def test_phase1_matches_reference_filler(packet):
    rng = np.random.default_rng(6)
    inst = random_connected_instance(rng, 12, 3, slack=1)
    seed = centralized_init(inst)
    params = GreedyParams(packet_size=packet)
    got = phase1(inst, seed, params)
    want = _naive_phase1(inst, seed, packet)
    assert np.array_equal(got, want)


def test_phase1_fills_exactly():
    rng = np.random.default_rng(7)
    inst = random_connected_instance(rng, 8, 4, slack=2)
    seed = centralized_init(inst)
    filled = phase1(inst, seed)
    # only open shortfalls get topped up, and they get exactly filled
    assert np.array_equal(
        filled.sum(axis=0), np.maximum(seed.sum(axis=0), inst.energies)
    )
    assert (filled.sum(axis=1) <= inst.budgets).all()


def test_phase1_never_overshoots_even_in_packets():
    rng = np.random.default_rng(8)
    inst = random_connected_instance(rng, 8, 4, slack=3)
    seed = centralized_init(inst)
    filled = phase1(inst, seed, GreedyParams(packet_size=4))
    # offers are clipped by the open shortfall, so delivery is exact
    assert np.array_equal(
        filled.sum(axis=0), np.maximum(seed.sum(axis=0), inst.energies)
    )


def test_phase1_tops_up_over_provisioned_seeds():
    inst = _budgeted([4, 4], [1, 3])
    seed = np.array([[3, 0], [0, 0]])  # t0 already holds more than it needs
    filled = phase1(inst, seed)
    assert filled[0, 0] + filled[1, 0] == 3  # untouched
    assert filled.sum(axis=0)[1] == 3


def _split_seed(rng):
    """Two random teams side by side with their agent rows shuffled together.

    The chain of such a seed is reducible; dense ``eig`` may return a mixed-
    sign eigenvector at the repeated eigenvalue 1, so scoring it unguarded
    can raise instead of giving 0.
    """
    blocks = [
        np.asarray(random_connected_instance(rng, int(rng.integers(2, 6)), 2).assignment)
        for _ in range(2)
    ]
    seed = np.zeros(np.add(blocks[0].shape, blocks[1].shape), dtype=np.int64)
    seed[: len(blocks[0]), : blocks[0].shape[1]] = blocks[0]
    seed[len(blocks[0]) :, blocks[0].shape[1] :] = blocks[1]
    return seed[rng.permutation(len(seed))]


def _connected(assignment):
    x = assignment > 0
    return bipartite_components(x[x.any(axis=1)][:, x.any(axis=0)])[0] == 1


def _split_instance(rng):
    """An interleaved two-team seed plus one empty task of energy 2.

    The empty task's first unit cannot bridge the teams, its second can.
    """
    seed = _split_seed(rng)
    budgets = seed.sum(axis=1) + rng.integers(1, 3, size=len(seed))
    inst = ProblemInstance(
        agent_ids=tuple(f"a{i}" for i in range(len(seed))),
        budgets=budgets,
        task_ids=tuple(f"t{k}" for k in range(seed.shape[1] + 1)),
        energies=np.append(seed.sum(axis=0), 2),
        assignment=np.zeros((len(seed), seed.shape[1] + 1), dtype=np.int64),
    )
    return inst, np.pad(seed, ((0, 0), (0, 1)))


def test_disconnected_candidates_score_zero():
    # a split state scores 0, so the first bridging unit is a strict gain
    rng = np.random.default_rng(12)
    for _ in range(40):
        inst, padded = _split_instance(rng)
        filled = phase1(inst, padded)
        assert filled[:, -1].sum() == 2
        assert _connected(filled)
        assert _connected(phase2(inst, padded))
        # the first team alone, its idle agents offered to empty tasks
        lone = np.where(padded[:, 2:4].any(axis=1, keepdims=True), 0, padded)
        assert np.array_equal(phase1(inst, lone).sum(axis=0), inst.energies)


def _loop_mu2(inst, a, check, score):
    if check and not _connected(a):
        return 0.0
    return score(inst, a)


def _loop_best(inst, b, offers):
    """The per-offer scan: strict ``>`` on the gain per unit, offers in order.

    Candidates are checked for a split only when the base scores 0.
    """
    base = _loop_mu2(inst, b, True, _mu2)
    best = (-math.inf, -1, -1, 0)
    for j, k, u in offers:
        b[j, k] += u
        gain = (_loop_mu2(inst, b, base == 0.0, _offer_mu2) - base) / u
        b[j, k] -= u
        if gain > best[0]:
            best = (gain, j, k, u)
    return best


def _loop_phase1(inst, seed, params):
    """Phase 1 with one mu2 call per offer."""
    rng = substream(params.seed, "greedy-phase1")
    b = np.array(seed, dtype=np.int64)
    remaining = inst.budgets - b.sum(axis=1)
    shortfall = inst.energies - b.sum(axis=0)
    while np.any(shortfall > 0):
        available = np.flatnonzero(remaining > 0)
        if available.size > params.random_threshold:
            available = available[[rng.integers(available.size)]]
        offers = [
            (j, k, int(min(remaining[j], shortfall[k], params.packet_size)))
            for j in available.tolist()
            for k in np.flatnonzero(shortfall > 0).tolist()
        ]
        _, j, k, u = _loop_best(inst, b, offers)
        b[j, k] += u
        remaining[j] -= u
        shortfall[k] -= u
    return b


def _loop_phase2(inst, start, params):
    """Phase 2 with one mu2 call per offer."""
    rng = substream(params.seed, "greedy-phase2")
    b = np.array(start, dtype=np.int64)
    remaining = inst.budgets - b.sum(axis=1)
    for _ in range(2 * int(remaining.sum() // params.packet_size) + inst.n_agents + 1):
        available = np.flatnonzero(remaining > 0)
        if available.size == 0:
            break
        exhaustive = available.size <= params.random_threshold
        if not exhaustive:
            available = available[[rng.integers(available.size)]]
        offers = [
            (j, k, int(min(remaining[j], params.packet_size)))
            for j in available.tolist()
            for k in range(inst.n_tasks)
        ]
        gain, j, k, u = _loop_best(inst, b, offers)
        accept = gain >= 0
        if not accept:
            if not params.stochastic_accept:
                if exhaustive:
                    break
                continue
            accept = rng.random() < math.exp(gain * u / params.phase2_temperature)
        if accept:
            b[j, k] += u
            remaining[j] -= u
    return b


@pytest.mark.parametrize(
    "params",
    [
        GreedyParams(),
        GreedyParams(packet_size=2, seed=4),
        GreedyParams(random_threshold=3, seed=5),
        GreedyParams(stochastic_accept=True, phase2_temperature=0.05, seed=6),
    ],
)
def test_phases_match_the_offer_loop(params):
    rng = np.random.default_rng(13)
    for _ in range(4):
        inst = random_connected_instance(rng, int(rng.integers(4, 9)), 3, slack=2)
        seed = centralized_init(inst)
        filled = phase1(inst, seed, params)
        assert np.array_equal(filled, _loop_phase1(inst, seed, params))
        assert np.array_equal(phase2(inst, filled, params), _loop_phase2(inst, filled, params))
    # interleaved two-team seeds score split candidates through the check
    for _ in range(6):
        inst, padded = _split_instance(rng)
        assert np.array_equal(phase1(inst, padded, params), _loop_phase1(inst, padded, params))
        assert np.array_equal(phase2(inst, padded, params), _loop_phase2(inst, padded, params))


def _all_eig_best_offer(rounds):
    """The all-``eig`` ``_best_offer``: every offer scored with ``eig_mu2_batch``.

    Split candidates are checked when the base scores 0, as that scan did.
    An idle agent offered to an empty task, which that scan scored by
    ``eig`` roundoff, is checked too: greedy scores that split 0. Each
    round appends the largest |solve gain - eig gain| over connected offers
    and the window width ``1e-9 * max solve mu2`` to ``rounds``.
    """

    def best_offer(inst, b, agents, tasks, units):
        base = greedy._mu2(inst, b)
        rows_on, cols_on = b.sum(axis=1) > 0, b.sum(axis=0) > 0
        shape = 2 * rows_on[agents] + cols_on[tasks]
        eig, solve = np.zeros(len(agents)), np.zeros(len(agents))
        connected = np.zeros(len(agents), dtype=bool)
        for key in np.unique(shape):
            group = np.flatnonzero(shape == key)
            for lo in range(0, group.size, 64):
                sel = group[lo : lo + 64]
                stack, cols = greedy._offer_stack(b, rows_on, cols_on, agents[sel], tasks[sel], units[sel])
                keep = reaches_all(stack > 0)
                scan = keep if base == 0.0 or key == 0 else np.ones(len(sel), dtype=bool)
                eig[sel[scan]] = eig_mu2_batch(inst.energies[cols[scan]], stack[scan])
                solve[sel[keep]] = mu2_batch(inst.energies[cols[keep]], stack[keep])
                connected[sel] = keep
        gains = (eig - base) / units
        drift = np.abs((solve - base) / units - gains)[connected]
        rounds.append((drift.max(initial=0.0), 1e-9 * solve.max()))
        i = int(np.argmax(gains))
        return base, float(gains[i]), int(agents[i]), int(tasks[i]), int(units[i])

    return best_offer


def _optimize(inst, params):
    result = greedy_optimize(inst, params)
    return result.best_assignment, result.trace


def _phases(inst, start, params):
    trace = []
    return phase2(inst, phase1(inst, start, params, trace), params, trace), trace


def _greedy_runs(coauthor_small):
    """Greedy runs, each returning (assignment, trace) when called.

    coauthor_small at seeds 0-4, then 50 small instances: phase 2 with
    ``stochastic_accept``, interleaved two-team bases, and the first team
    alone beside empty tasks and idle agents.
    """
    runs = [partial(_optimize, coauthor_small, GreedyParams(seed=seed)) for seed in range(5)]
    rng = np.random.default_rng(14)
    for i in range(50):
        if i % 3 == 0:
            inst = random_connected_instance(rng, int(rng.integers(4, 10)), int(rng.integers(2, 5)), slack=2)
            params = GreedyParams(stochastic_accept=True, phase2_temperature=0.05, seed=i)
            runs.append(partial(_optimize, inst, params))
            continue
        inst, padded = _split_instance(rng)
        if i % 3 == 2:
            padded = np.where(padded[:, 2:4].any(axis=1, keepdims=True), 0, padded)
        runs.append(partial(_phases, inst, padded, GreedyParams(packet_size=1 + i % 2, seed=i)))
    return runs


def test_greedy_decides_as_the_all_eig_scan_would(coauthor_small, monkeypatch):
    # the solve scores every offer and eig re-scores only those near the top;
    # every decision and every trace mu2 is that of scoring all offers by eig
    rounds = []
    for run in _greedy_runs(coauthor_small):
        got, got_trace = run()
        with monkeypatch.context() as patch:
            patch.setattr(greedy, "_best_offer", _all_eig_best_offer(rounds))
            want, want_trace = run()
        assert np.array_equal(got, want)
        assert [row.mu2 for row in got_trace] == [row.mu2 for row in want_trace]
    # the solve's gains sit at least 100x closer to eig's than the window is wide
    assert len(rounds) > 500
    assert all(100 * drift <= width for drift, width in rounds)


def test_offer_slices_are_scored_in_one_chunk(monkeypatch):
    # greedy slices each shape group by the rule mu2_batch chunks by
    sizes = []

    def recording(energies, stack):
        sizes.append((len(stack), spectral.batch_rows(*np.shape(stack)[1:])))
        return mu2_batch(energies, stack)

    monkeypatch.setattr(spectral, "mu2_batch", recording)
    inst = random_connected_instance(np.random.default_rng(3), 30, 6, slack=1)
    # every agent of the base is active, so each of the 180 offers of the
    # first round gets its own stack entry, ten times batch_rows(30, 6);
    # idle agents' offers would collapse to one per (task, units) class
    phase2(inst, np.asarray(inst.assignment))
    assert sizes and all(c <= rows for c, rows in sizes)
    assert any(c == rows for c, rows in sizes)


def test_idle_agents_woken_onto_one_task_score_alike():
    # greedy scores one offer per (task, units) class of idle-agent offers:
    # an idle row is 0 before the offer, so any two offers of a class give
    # the same hypergraph with its rows permuted
    rng = np.random.default_rng(16)
    seen = set()
    for trial in range(30):
        if trial % 2:
            seed = _split_seed(rng)
        else:
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            seed = np.asarray(random_connected_instance(rng, n, k).assignment)
        base = np.insert(seed, rng.integers(0, len(seed) + 1, size=3), 0, axis=0)
        energies = rng.integers(1, 5, size=base.shape[1])
        idle = np.flatnonzero(base.sum(axis=1) == 0)
        for task in range(base.shape[1]):
            for units in (1, 3):
                parts = []
                for agent in idle:
                    woken = base.copy()
                    woken[agent, task] += units
                    parts.append(woken[woken.sum(axis=1) > 0])
                reach = reaches_all(np.stack(parts) > 0)
                assert reach.all() or not reach.any()
                seen.add(bool(reach[0]))
                if reach[0]:
                    mu2 = [eig_mu2(energies, part) for part in parts]
                    assert np.allclose(mu2, mu2[0], rtol=1e-12, atol=0)
    assert seen == {False, True}


def test_greedy_scores_one_offer_per_idle_agent_class(coauthor_small, monkeypatch):
    # one default run scores 40,009 offers, 39,275 of which wake an idle
    # agent; those fall into 865 (task, units) classes
    counted = []

    def counting(energies, stack):
        counted.append(len(stack))
        return mu2_batch(energies, stack)

    monkeypatch.setattr(spectral, "mu2_batch", counting)
    greedy_optimize(coauthor_small)
    assert sum(counted) <= 1599


@pytest.mark.kernel_pinned
@pytest.mark.parametrize("seed", [0, 1])
def test_optimize_on_coauthor_small_keeps_its_recorded_assignment(coauthor_small, seed):
    # sha256 of the int64 best_assignment from the per-offer loop
    result = greedy_optimize(coauthor_small, GreedyParams(seed=seed))
    digest = hashlib.sha256(np.asarray(result.best_assignment, dtype=np.int64).tobytes())
    assert digest.hexdigest() == "f853245ed95d76cf32eac9196e4a83c9ed19835e06ac8796409063bd5e633b4a"


def test_phase1_stalls_without_budget():
    inst = _budgeted([1, 1], [3, 3])
    with pytest.raises(StallError):
        phase1(inst, np.zeros((2, 2), dtype=np.int64))


def test_phase1_rejects_overspent_seed():
    inst = _budgeted([1, 1], [1, 1])
    with pytest.raises(ValueError):
        phase1(inst, np.array([[3, 0], [0, 0]]))


def test_phase2_rejects_harmful_spending():
    # the balanced pair is optimal; any extra unit lowers connectivity
    inst = _budgeted([3, 3], [2])
    filled = np.array([[1], [1]])
    final = phase2(inst, filled)
    assert np.array_equal(final, filled)


def test_phase2_spends_to_exhaustion_when_it_helps():
    inst = _budgeted([3, 4, 4], [4, 4])
    result = greedy_optimize(inst)
    remaining = np.asarray(inst.budgets) - result.best_assignment.sum(axis=1)
    assert remaining.sum() == 0
    assert result.feasible


def test_phase2_monotone_without_stochastic_accept():
    rng = np.random.default_rng(9)
    for _ in range(5):
        inst = random_connected_instance(rng, 9, 4, slack=2)
        trace = []
        filled = phase1(inst, centralized_init(inst), trace=trace)
        before = _mu2(inst, filled)
        final = phase2(inst, filled, trace=trace)
        assert _mu2(inst, final) >= before - 1e-12
        mu2s = [row.mu2 for row in trace if row.phase == "2"]
        assert all(b >= a - 1e-12 for a, b in zip(mu2s, mu2s[1:]))
        assert (final.sum(axis=1) <= inst.budgets).all()


def test_phase2_stochastic_mode_is_seeded():
    rng = np.random.default_rng(10)
    inst = random_connected_instance(rng, 9, 4, slack=2)
    filled = phase1(inst, centralized_init(inst))
    params = GreedyParams(stochastic_accept=True, phase2_temperature=0.05, seed=21)
    f1 = phase2(inst, filled, params)
    f2 = phase2(inst, filled, params)
    assert np.array_equal(f1, f2)
    assert (f1.sum(axis=1) <= inst.budgets).all()
    assert (f1.sum(axis=0) >= inst.energies).all()


def test_random_agent_rule_still_terminates():
    rng = np.random.default_rng(11)
    inst = random_connected_instance(rng, 10, 4, slack=2)
    params = GreedyParams(random_threshold=1, seed=3)
    result = greedy_optimize(inst, params)
    assert result.feasible
    r2 = greedy_optimize(inst, params)
    assert np.array_equal(result.best_assignment, r2.best_assignment)


def test_optimize_rejects_infeasible_totals():
    inst = _budgeted([1, 1], [3, 3])
    with pytest.raises(InfeasibleError):
        greedy_optimize(inst)


def test_optimize_skips_phase2_without_spare():
    inst = _budgeted([3, 3], [3, 3])
    result = greedy_optimize(inst)
    assert any("phase 2 skipped" in note for note in result.notes)
    assert np.array_equal(result.best_assignment.sum(axis=0), inst.energies)
    assert not any(row.phase == "2" for row in result.trace)


def test_optimize_end_to_end():
    rng = np.random.default_rng(12)
    inst = random_connected_instance(rng, 10, 4, slack=2)
    result = greedy_optimize(inst)
    assert result.feasible
    assert result.trace[0].phase == "init"
    assert result.best_mu2 > 0
    assert math.isclose(result.best_mu2, _mu2(inst, result.best_assignment), abs_tol=1e-12)
    again = greedy_optimize(inst)
    assert np.array_equal(result.best_assignment, again.best_assignment)


def test_params_validation():
    with pytest.raises(ValueError):
        GreedyParams(packet_size=0)
    with pytest.raises(ValueError):
        GreedyParams(phase2_temperature=0.0)
    with pytest.raises(ValueError):
        GreedyParams(random_threshold=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("packet_size", 1.5),
        ("packet_size", True),
        ("random_threshold", "50"),
        ("seed", 0.0),
        ("phase2_temperature", "hot"),
        ("stochastic_accept", "no"),
        ("stochastic_accept", 1),
    ],
)
def test_params_of_the_wrong_type_name_their_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        GreedyParams(**{field: value})
