"""Output checks owned by the benchmark, independent of the package's code.

Every check returns the problems it found; none means the output passed. The mu2 oracle takes the stationary distribution from a normalized
linear solve and the spectrum from ``eigvalsh``, so it shares no solver with
the package (which uses a dense ``eig`` or power iteration).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
# coauthor_large: mu2 and mu3 are 2% apart and the package's pi comes from
# power iteration, so the oracle agrees only to about 1e-10 there.
REL_TOL_LARGE = 1e-9
# Recorded reference values are compared with room for a solver change that
# moves the last digits; counts and the attack summary must match exactly.
REF_REL_TOL = 1e-9


# -- mu2 oracle ---------------------------------------------------------


def _stationary(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)


def _mu2(P: np.ndarray) -> float:
    pi = _stationary(P)
    flow = pi[:, np.newaxis] * P
    L = np.diag(pi) - 0.5 * (flow + flow.T)
    return float(np.linalg.eigvalsh(0.5 * (L + L.T))[1])


def _blocks(energies: np.ndarray, assignment: np.ndarray):
    a = np.asarray(assignment)
    rows = a.sum(axis=1) > 0
    cols = a.sum(axis=0) > 0
    a = a[np.ix_(rows, cols)].astype(np.float64)
    W = (a > 0) * np.asarray(energies, dtype=np.float64)[cols][np.newaxis, :]
    return W / W.sum(axis=1)[:, np.newaxis], a / a.sum(axis=0)[np.newaxis, :]


def oracle_mu2(energies, assignment) -> float:
    """mu2 of the hypergraph walk on the active part of ``assignment``."""
    to_task, to_agent = _blocks(energies, assignment)
    return _mu2(to_task @ to_agent.T)


def oracle_mu2_bipartite(energies, assignment) -> float:
    """mu2 of the alternating agent/task walk on the active part."""
    to_task, to_agent = _blocks(energies, assignment)
    n, k = to_task.shape
    P = np.zeros((n + k, n + k))
    P[:n, n:] = to_task
    P[n:, :n] = to_agent.T
    return _mu2(P)


def close(value: float, expected: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rel * abs(expected)


# -- readers ------------------------------------------------------------


def read_result(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(budgets, energies, assignment, meta) from a ``result.json``."""
    obj = json.loads(Path(path).read_text())
    agents = {a["id"]: i for i, a in enumerate(obj["agents"])}
    tasks = {t["id"]: k for k, t in enumerate(obj["tasks"])}
    budgets = np.array([a["budget"] for a in obj["agents"]], dtype=np.int64)
    energies = np.array([t["energy"] for t in obj["tasks"]], dtype=np.int64)
    assignment = np.zeros((len(agents), len(tasks)), dtype=np.int64)
    for entry in obj["assignment"]:
        assignment[agents[entry["agent"]], tasks[entry["task"]]] = entry["weight"]
    return budgets, energies, assignment, obj.get("meta", {})


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -- checks -------------------------------------------------------------


def connected(assignment: np.ndarray) -> bool:
    """Active agents plus all tasks form one component (plain BFS)."""
    x = np.asarray(assignment) > 0
    agents = np.flatnonzero(x.any(axis=1))
    n_tasks = x.shape[1]
    if agents.size == 0 or n_tasks == 0:
        return False
    members = [np.flatnonzero(x[:, k]).tolist() for k in range(n_tasks)]
    tasks_of = {int(i): np.flatnonzero(x[i]).tolist() for i in agents}
    seen_agents = {int(agents[0])}
    seen_tasks: set[int] = set()
    frontier = [int(agents[0])]
    while frontier:
        nxt = []
        for i in frontier:
            for k in tasks_of[i]:
                if k in seen_tasks:
                    continue
                seen_tasks.add(k)
                for j in members[k]:
                    if j not in seen_agents:
                        seen_agents.add(j)
                        nxt.append(j)
        frontier = nxt
    return len(seen_agents) == agents.size and len(seen_tasks) == n_tasks


def feasibility(budgets, energies, assignment) -> list[str]:
    problems = []
    if np.any(assignment < 0):
        problems.append("negative assignment entry")
    if np.any(assignment.sum(axis=1) > budgets):
        problems.append("an agent spends more than its budget")
    if np.any(assignment.sum(axis=0) < energies):
        problems.append("a task receives less than its energy")
    if not connected(assignment):
        problems.append("active hypergraph is disconnected")
    return problems


def check_optimize(out_dir: Path, bipartite: bool) -> tuple[list[str], dict]:
    """Feasibility and oracle mu2 of an ``optimize`` run.

    Returns the problems and a summary used for the reference comparison.
    """
    budgets, energies, assignment, meta = read_result(out_dir / "result.json")
    problems = feasibility(budgets, energies, assignment)
    if problems:
        return problems, {}
    oracle = (oracle_mu2_bipartite if bipartite else oracle_mu2)(energies, assignment)
    if not close(float(meta["mu2"]), oracle, REL_TOL):
        problems.append(f"reported mu2 {meta['mu2']!r} differs from oracle {oracle!r}")
    rows = read_csv(out_dir / "trace.csv")
    summary = {
        "best_mu2": float(meta["mu2"]),
        "iterations": int(meta["iterations"]),
        "accepted": sum(1 for row in rows[1:] if row["accepted"] == "true"),
        "assignment": assignment,
    }
    return problems, summary


def check_enumeration(path: Path, n_nodes: int) -> tuple[list[str], list[float]]:
    """Every listed hypergraph is connected, covering, sorted, and its mu2
    matches the oracle. Returns the problems and the mu2 list."""
    problems: list[str] = []
    mu2s: list[float] = []
    seen = set()
    for row in read_csv(path):
        edges = tuple(tuple(int(v) for v in e.split("-")) for e in row["edges"].split(";"))
        incidence = np.zeros((n_nodes, len(edges)), dtype=np.int64)
        for k, edge in enumerate(edges):
            incidence[list(edge), k] = 1
        mu2 = float(row["mu2"])
        mu2s.append(mu2)
        if edges in seen:
            problems.append(f"duplicate hypergraph {row['edges']}")
        seen.add(edges)
        if not incidence.any(axis=1).all() or not connected(incidence):
            problems.append(f"hypergraph {row['edges']} is not connected and covering")
            continue
        oracle = oracle_mu2(incidence.sum(axis=0), incidence)
        if not close(mu2, oracle, REL_TOL):
            problems.append(f"hypergraph {row['edges']}: mu2 {mu2!r} vs oracle {oracle!r}")
    if any(a < b for a, b in zip(mu2s, mu2s[1:])):
        problems.append("enumeration is not sorted by mu2, highest first")
    return problems[:5], mu2s


def _stderr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def check_attack(out_dir: Path, agent_ids: tuple[str, ...], m: int, n_exp: int) -> list[str]:
    """Run rows are well formed and the summary restates them."""
    problems = []
    runs = read_csv(out_dir / "attack_runs.csv")
    if len(runs) != n_exp:
        problems.append(f"{len(runs)} runs listed, expected {n_exp}")
    known = set(agent_ids)
    costs, deficits = [], []
    for row in runs:
        removed = row["removed_ids"].split(";")
        if len(removed) != m or len(set(removed)) != m or not set(removed) <= known:
            problems.append(f"run {row['run']}: removed set is not {m} distinct agents")
        cost, deficit = float(row["patching_cost"]), int(row["unsatisfied_sum"])
        if cost < 0 or deficit < 0 or (row["success"] == "true") != (deficit == 0):
            problems.append(f"run {row['run']}: inconsistent cost/deficit/success")
        costs.append(cost)
        deficits.append(float(deficit))
    summary = {row["metric"]: row for row in read_csv(out_dir / "attack_summary.csv")}
    for metric, values in (("patching_cost", costs), ("unsatisfied_sum", deficits)):
        row = summary.get(metric)
        if row is None:
            problems.append(f"summary lacks {metric}")
            continue
        for field, value in (("mean", float(np.mean(values))), ("stderr", _stderr(values))):
            if abs(float(row[field]) - value) > REL_TOL * max(1.0, abs(value)):
                problems.append(f"summary {metric} {field} does not restate the runs")
    return problems


def check_bundle(bundle, energies, assignment) -> list[str]:
    mu2 = float(bundle.eigenvalues[1])
    oracle = oracle_mu2(energies, assignment)
    if not close(mu2, oracle, REL_TOL_LARGE):
        return [f"spectral_bundle mu2 {mu2!r} differs from oracle {oracle!r}"]
    return []


# -- recorded references ------------------------------------------------


def assignment_digest(assignment: np.ndarray) -> str:
    a = np.ascontiguousarray(assignment, dtype="<i8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def compare_reference(observed: dict, expected: dict) -> list[str]:
    """Recorded floats within ``REF_REL_TOL``, everything else exactly."""
    problems = []
    for key, want in expected.items():
        got = observed.get(key)
        if key == "mu2_runs":
            got, want = _expand(got), _expand(want)
            same = len(got) == len(want) and all(
                close(a, b, REF_REL_TOL) for a, b in zip(got, want)
            )
        elif isinstance(want, float):
            same = got is not None and close(got, want, REF_REL_TOL)
        else:
            same = got == want
        if not same:
            shown = f"{got!r} vs reference {want!r}" if key != "mu2_runs" else "values differ"
            problems.append(f"{key}: {shown}")
    return problems


def _expand(runs) -> list[float]:
    return [float(v) for v, count in runs or () for _ in range(int(count))]


def run_lengths(values: list[float]) -> list[list[float]]:
    """Sorted values as [[value, count], ...], merging neighbours within
    ``REL_TOL``: relabelled copies of one hypergraph differ in the last bits."""
    out: list[list[float]] = []
    for v in sorted(values):
        if out and close(v, out[-1][0], REL_TOL):
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out
