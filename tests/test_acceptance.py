"""End-to-end checks, one numbered test per advertised guarantee.

Each test here restates a headline behavior of the package against an
oracle that does not reuse the code path under test: hand-worked matrices,
brute-force counters, naive eigensolves, or byte comparison of replayed
runs. `pytest -v tests/test_acceptance.py` prints one verdict per line.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    count_connected_covering,
    make_instance,
    random_connected_instance,
    subprocess_env,
)
from hyperteam.bipartite import bipartite_transition, two_step
from hyperteam.csa import (
    CsaParams,
    anneal,
    perturb,
    random_feasible_assignment,
)
from hyperteam.experiments import (
    SCHEMES,
    budget_sweep,
    diffusion_comparison,
    enumerate_small,
    scaling_experiment,
    to_instance,
)
from hyperteam.greedy import GreedyParams, greedy_optimize
from hyperteam.instance import ProblemInstance, save_instance
from hyperteam.resilience import attack_experiment, patch, remove_agents
from hyperteam.seeds import substream
from hyperteam.spectral import mu2_of_assignment, spectral_bundle


# ---------------------------------------------------------------------------
# shared builders


def _crew(n_agents=40, n_tasks=10, budget=2, energy=8):
    """Blank tight crew: total budget exactly covers total energy."""
    return ProblemInstance(
        agent_ids=tuple(f"a{i}" for i in range(n_agents)),
        budgets=np.full(n_agents, budget, dtype=np.int64),
        task_ids=tuple(f"t{k}" for k in range(n_tasks)),
        energies=np.full(n_tasks, energy, dtype=np.int64),
        assignment=np.zeros((n_agents, n_tasks), dtype=np.int64),
    )


def _hub(n_tasks=40, members=4, pattern=(1, 3)):
    """Dedicated task members plus one coordinator sitting on every task."""
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


@pytest.fixture(scope="module")
def crew_runs():
    """One greedy run plus five seeded anneals on the tight 40x10 crew."""
    inst = _crew()
    greedy = greedy_optimize(inst, GreedyParams(seed=0))
    runs = []
    for seed in range(5):
        rng = substream(seed, "suite-init")
        start = random_feasible_assignment(inst, rng)
        init_mu2 = mu2_of_assignment(inst.energies, start)
        result = anneal(inst, CsaParams(seed=seed), initial=start)
        runs.append((init_mu2, result))
    return inst, greedy, runs


# ---------------------------------------------------------------------------
# 1. hand-worked random-walk matrices


def test_01_hand_worked_small_team_matrices():
    pair = spectral_bundle(make_instance([[1], [1]]))
    assert np.allclose(pair.P, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    assert np.allclose(pair.pi, [0.5, 0.5], atol=1e-12)
    assert np.allclose(pair.L, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)
    assert np.allclose(pair.eigenvalues, [0.0, 0.5], atol=1e-12)

    triple = spectral_bundle(make_instance([[1], [1], [1]]))
    expected = np.eye(3) / 3 - np.full((3, 3), 1 / 9)
    assert np.allclose(triple.L, expected, atol=1e-12)
    assert abs(triple.eigenvalues[1] - 1 / 3) < 1e-12

    weighted = spectral_bundle(make_instance([[2], [1], [1]]))
    row = np.array([0.5, 0.25, 0.25])
    assert np.allclose(weighted.P, np.tile(row, (3, 1)), atol=1e-12)
    assert np.allclose(weighted.pi, row, atol=1e-12)
    expected = np.array(
        [
            [1 / 4, -1 / 8, -1 / 8],
            [-1 / 8, 3 / 16, -1 / 16],
            [-1 / 8, -1 / 16, 3 / 16],
        ]
    )
    assert np.allclose(weighted.L, expected, atol=1e-12)
    assert np.allclose(weighted.eigenvalues, [0.0, 0.25, 0.375], atol=1e-12)


# ---------------------------------------------------------------------------
# 2. randomized invariants of the spectral chain


def test_02_chain_invariants_hold_on_random_teams():
    rng = np.random.default_rng(515)
    for _ in range(200):
        n_tasks = int(rng.integers(1, 7))
        # with a single task even a few agents rarely all stay busy
        n_agents = int(rng.integers(2, 9 if n_tasks == 1 else 31))
        inst = random_connected_instance(
            rng, n_agents=n_agents, n_tasks=n_tasks, slack=int(rng.integers(0, 3))
        )
        bundle = spectral_bundle(inst)
        n = inst.n_agents
        assert np.abs(bundle.P.sum(axis=1) - 1.0).max() < 1e-10
        assert np.abs(bundle.pi @ bundle.P - bundle.pi).max() < 1e-8
        assert np.abs(bundle.L - bundle.L.T).max() < 1e-12
        assert np.linalg.eigvalsh(bundle.L).min() > -1e-10
        assert np.abs(bundle.L @ np.ones(n)).max() < 1e-10
        assert bundle.eigenvalues[1] > 0

    # split teams keep one zero eigenvalue per component
    for _ in range(20):
        blocks = [
            random_connected_instance(
                rng,
                n_agents=int(rng.integers(2, 7)),
                n_tasks=int(rng.integers(1, 4)),
            )
            for _ in range(int(rng.integers(2, 5)))
        ]
        n_total = sum(b.n_agents for b in blocks)
        k_total = sum(b.n_tasks for b in blocks)
        assignment = np.zeros((n_total, k_total), dtype=np.int64)
        row = col = 0
        for b in blocks:
            assignment[row : row + b.n_agents, col : col + b.n_tasks] = b.assignment
            row += b.n_agents
            col += b.n_tasks
        merged = ProblemInstance(
            agent_ids=tuple(f"a{i}" for i in range(n_total)),
            budgets=np.concatenate([b.budgets for b in blocks]),
            task_ids=tuple(f"t{k}" for k in range(k_total)),
            energies=np.concatenate([b.energies for b in blocks]),
            assignment=assignment,
        )
        eigs = spectral_bundle(merged, allow_disconnected=True).eigenvalues
        assert (np.abs(eigs) < 1e-10).sum() == len(blocks)


# ---------------------------------------------------------------------------
# 3. the squared two-mode walk contains the one-mode walk


def test_03_two_mode_square_recovers_one_mode_chain():
    rng = np.random.default_rng(808)
    for _ in range(100):
        n_tasks = int(rng.integers(1, 7))
        n_agents = int(rng.integers(2, 9 if n_tasks == 1 else 21))
        inst = random_connected_instance(rng, n_agents=n_agents, n_tasks=n_tasks)
        n = inst.n_agents
        P = spectral_bundle(inst).P
        P_star = two_step(bipartite_transition(inst))
        assert np.abs(P_star[:n, :n] - P).max() < 1e-12

        union = np.concatenate(
            [np.linalg.eigvals(P_star[:n, :n]), np.linalg.eigvals(P_star[n:, n:])]
        )
        whole = np.linalg.eigvals(P_star)
        # eigenvalue order is unstable near ties, so match greedily instead
        assert whole.shape == union.shape
        pool = list(union)
        for value in whole:
            gaps = [abs(value - other) for other in pool]
            nearest = int(np.argmin(gaps))
            assert gaps[nearest] < 1e-9
            pool.pop(nearest)


# ---------------------------------------------------------------------------
# 4. exhaustive enumeration, extremes, and diffusion speed


def _naive_mu2(edges, n_nodes):
    """Rebuild the walk from scratch: power iteration plus a general eigensolve."""
    incidence = np.zeros((n_nodes, len(edges)))
    for k, edge in enumerate(edges):
        incidence[list(edge), k] = 1.0
    omega = incidence.sum(axis=0)
    w = (incidence > 0) * omega
    d_v = w.sum(axis=1)
    d_e = incidence.sum(axis=0)
    P = (w / d_v[:, None]) @ (incidence / d_e).T
    pi = np.full(n_nodes, 1.0 / n_nodes)
    for _ in range(500_000):
        nxt = pi @ P
        if np.abs(nxt - pi).max() < 1e-15:
            pi = nxt
            break
        pi = nxt
    pi = pi / pi.sum()
    flow = pi[:, None] * P
    L = np.diag(pi) - (flow + flow.T) / 2.0
    return float(np.sort(np.linalg.eigvals(L).real)[1])


def test_04_enumeration_extremes_and_diffusion_order():
    found = enumerate_small(5, 3)
    assert len(found) == count_connected_covering(5, 3)

    best, worst = found[0], found[-1]
    assert abs(best.mu2 - _naive_mu2(best.edges, 5)) < 1e-9
    assert abs(worst.mu2 - _naive_mu2(worst.edges, 5)) < 1e-9

    # four structures with distinct connectivity, fastest first
    unique = sorted({round(h.mu2, 9) for h in found}, reverse=True)
    targets = [unique[0], unique[len(unique) // 3], unique[2 * len(unique) // 3], unique[-1]]
    reps = [next(h for h in found if round(h.mu2, 9) == t) for t in targets]
    assert len({round(r.mu2, 9) for r in reps}) == 4

    x0 = np.random.default_rng(11).standard_normal(5)
    times = np.linspace(0.0, 400.0, 8001)
    traces = diffusion_comparison([to_instance(r.edges, 5) for r in reps], x0, times)
    target = x0.mean()
    settle = []
    for trace in traces:
        gaps = np.abs(trace.states - target).max(axis=1)
        hit = np.flatnonzero(gaps < 1e-3)
        assert hit.size > 0
        settle.append(times[hit[0]])
    assert settle == sorted(settle)
    assert all(a < b for a, b in zip(settle, settle[1:]))


# ---------------------------------------------------------------------------
# 5. community rewiring schemes separate by decay exponent


def test_05_rewiring_schemes_order_by_decay_exponent():
    fits, _ = scaling_experiment(SCHEMES, (2, 3, 4, 5, 6, 7, 8), reps=30, seed=0)
    by_scheme = {f.scheme: f for f in fits}
    assert all(f.exponent > 0 for f in fits)
    assert by_scheme["head2tail"].exponent > by_scheme["random"].exponent
    assert by_scheme["random"].exponent > by_scheme["one_edge"].exponent

    one_edge, one_node = by_scheme["one_edge"], by_scheme["one_node"]
    half_width = 1.96 * np.hypot(one_edge.exponent_stderr, one_node.exponent_stderr)
    assert abs(one_edge.exponent - one_node.exponent) <= half_width


# ---------------------------------------------------------------------------
# 6. annealing on a tight crew: feasibility, improvement, loss absorption


def test_06_annealing_improves_every_random_feasible_start(crew_runs):
    inst, _, runs = crew_runs
    for init_mu2, result in runs:
        assert result.feasible
        delivered = result.best_assignment.sum(axis=0)
        assert np.array_equal(delivered, inst.energies)
        assert (result.best_assignment.sum(axis=1) <= inst.budgets).all()
        assert result.best_mu2 >= init_mu2 - 1e-12


@pytest.mark.xfail(
    reason="with budgets equal to per-agent load there is no spare capacity to recruit",
    strict=True,
)
def test_06_zero_slack_crew_absorbs_quarter_losses(crew_runs):
    inst, _, runs = crew_runs
    summary = attack_experiment(inst, runs[0][1].best_assignment, m=4, n_exp=10, seed=0)
    assert summary.unsatisfied_mean == 0.0


def test_06_one_spare_unit_each_absorbs_quarter_losses():
    inst = _crew(budget=3)
    start = random_feasible_assignment(inst, substream(0, "suite-init"))
    result = anneal(inst, CsaParams(seed=0), initial=start)
    assert result.feasible
    summary = attack_experiment(inst, result.best_assignment, m=4, n_exp=10, seed=0)
    assert summary.unsatisfied_mean == 0.0
    assert summary.patching_cost_mean > 0.0


# ---------------------------------------------------------------------------
# 7. optimizer quality ordering on the same instance


def test_07_annealing_beats_greedy_beats_random_start(crew_runs):
    _, greedy, runs = crew_runs
    assert greedy.feasible
    ordered = sum(
        1
        for init_mu2, result in runs
        if result.best_mu2 >= greedy.best_mu2 - 1e-12
        and greedy.best_mu2 >= init_mu2 - 1e-12
    )
    assert ordered >= 4


# ---------------------------------------------------------------------------
# 8. budget relaxation raises connectivity but the size decay persists


def test_08_budget_multipliers_lift_curves_without_breaking_decay():
    sweep = budget_sweep(
        _hub(), multipliers=(1, 3, 5), sub_sizes=(3, 4, 6, 9), reps=3, seed=0
    )
    for curve in sweep.curves:
        assert -1.3 <= curve.fit.exponent <= -0.7
    by_mult = {c.multiplier: c for c in sweep.curves}
    for i in range(4):
        assert by_mult[3].mean_mu2[i] >= by_mult[1].mean_mu2[i] - 1e-12
        assert by_mult[5].mean_mu2[i] >= by_mult[3].mean_mu2[i] - 1e-12


# ---------------------------------------------------------------------------
# 9. repair never overdraws; guided moves shrink the deficit one unit at a time


def test_09_patching_respects_budgets_exactly():
    rng = np.random.default_rng(99)
    for _ in range(500):
        inst = random_connected_instance(
            rng,
            n_agents=int(rng.integers(4, 13)),
            n_tasks=int(rng.integers(2, 6)),
            slack=int(rng.integers(0, 4)),
        )
        m = int(rng.integers(1, inst.n_agents - 1))
        removed = [int(r) for r in rng.choice(inst.n_agents, size=m, replace=False)]
        damaged = remove_agents(inst.assignment, removed)
        result = patch(inst, damaged, removed)
        patched = result.patched_assignment
        assert patched.dtype == np.int64
        assert (patched[removed, :] == 0).all()
        assert (patched >= damaged).all()
        alive = np.ones(inst.n_agents, dtype=bool)
        alive[removed] = False
        assert (patched.sum(axis=1)[alive] <= inst.budgets[alive]).all()
        assert np.array_equal(result.unsatisfied, inst.energies - patched.sum(axis=0))
        assert result.patching_cost >= 0.0


def test_09_guided_moves_shrink_the_shortfall_by_exactly_one():
    params = CsaParams(p_guided=1.0, moves_per_step=1)
    rng = np.random.default_rng(7)
    fired = 0
    while fired < 10_000:
        board = rng.integers(0, 4, size=(6, 4))
        totals = board.sum(axis=0)
        if totals.min() == 0:
            continue
        energies = totals.copy()
        energies[0] += int(rng.integers(1, 3))  # one task short
        energies[1] -= 1  # one task over-served
        shortfall = energies - totals
        positive_before = int(shortfall.clip(min=0).sum())
        moved, updated = perturb(board, shortfall, params, rng)
        assert int(updated.clip(min=0).sum()) == positive_before - 1
        assert np.array_equal(updated, energies - moved.sum(axis=0))
        assert moved.sum() == board.sum()
        fired += 1

    # unguided swaps rearrange agents without touching any task total
    params = CsaParams(p_guided=0.0, moves_per_step=1)
    for _ in range(200):
        board = rng.integers(0, 4, size=(5, 3))
        shortfall = rng.integers(-2, 3, size=3)
        moved, updated = perturb(board, shortfall, params, rng)
        assert np.array_equal(moved.sum(axis=0), board.sum(axis=0))
        assert np.array_equal(updated, shortfall)


# ---------------------------------------------------------------------------
# 10. every command-line run replays byte-identically from its manifest


def _cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "hyperteam", *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=str(cwd),
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_10_every_command_line_run_replays_byte_identically(tmp_path):
    tiny = tmp_path / "tiny.edges"
    tiny.write_text("t0: a b\n")
    small = tmp_path / "small.json"
    save_instance(random_connected_instance(np.random.default_rng(0), 8, 3, slack=1), small)
    hub = tmp_path / "hub.json"
    save_instance(_hub(n_tasks=10), hub)
    config = tmp_path / "csa.json"
    config.write_text(json.dumps({"t_threshold": 0.2, "max_iters": 2000}))

    cases = [
        ["stats", "--input", str(tiny)],
        ["optimize", "--input", str(small), "--method", "greedy", "--seed", "3"],
        [
            "optimize",
            "--input",
            str(small),
            "--method",
            "csa",
            "--seed",
            "7",
            "--config",
            str(config),
        ],
        ["attack", "--input", str(small), "--removals", "2", "--n-exp", "3", "--seed", "1"],
        ["experiment", "enumerate", "--nodes", "4", "--edges", "2"],
        [
            "experiment",
            "scaling",
            "--schemes",
            "random",
            "one_node",
            "--sizes",
            "2",
            "3",
            "4",
            "--reps",
            "2",
            "--seed",
            "0",
        ],
        [
            "experiment",
            "budget-sweep",
            "--input",
            str(hub),
            "--multipliers",
            "1",
            "2",
            "--sub-sizes",
            "3",
            "4",
            "6",
            "--reps",
            "1",
            "--seed",
            "0",
        ],
        ["experiment", "diffuse", "--nodes", "4", "--edges", "2", "--representatives", "2"],
    ]
    for i, args in enumerate(cases):
        first = tmp_path / f"run{i}"
        replay = tmp_path / f"replay{i}"
        _cli([*args, "--out", str(first)], tmp_path)
        _cli(["rerun", str(first / "manifest.json"), "--out", str(replay)], tmp_path)
        outputs = json.loads((first / "manifest.json").read_text())["outputs"]
        assert outputs, args
        for name in outputs:
            assert (replay / name).read_bytes() == (first / name).read_bytes(), (
                f"{' '.join(args)} -> {name}"
            )
