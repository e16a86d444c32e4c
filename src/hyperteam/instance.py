"""Assignment instances: agents with integer budgets working on tasks with integer energies.

An instance is a weighted bipartite structure. ``assignment[i, k]`` counts the
energy units agent ``i`` currently spends on task ``k``; viewing tasks as
hyperedges whose members are the agents with a positive entry gives the
hypergraph that the spectral machinery operates on.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

__all__ = [
    "ProblemInstance",
    "ValidationReport",
    "StatsRecord",
    "load_instance",
    "parse_instance_json",
    "parse_edge_list",
    "save_instance",
    "validate",
    "is_connected",
    "bipartite_components",
    "reaches_all",
    "summary_stats",
    "co_membership_graph",
    "factor_metrics",
]


def _frozen_int_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        # tolerate float arrays that are exactly integral (json numbers)
        rounded = np.rint(arr)
        if not np.all(np.isfinite(arr)) or np.any(rounded != arr):
            raise ValueError(f"{name} must be integer-valued")
        arr = rounded
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem data. Arrays are read-only after construction."""

    agent_ids: tuple[str, ...]
    budgets: np.ndarray
    task_ids: tuple[str, ...]
    energies: np.ndarray
    assignment: np.ndarray

    def __post_init__(self):
        agent_ids = tuple(str(a) for a in self.agent_ids)
        task_ids = tuple(str(t) for t in self.task_ids)
        if len(agent_ids) < 1:
            raise ValueError("instance needs at least one agent")
        if len(task_ids) < 1:
            raise ValueError("instance needs at least one task")
        if len(set(agent_ids)) != len(agent_ids):
            raise ValueError("duplicate agent id")
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("duplicate task id")
        budgets = _frozen_int_array(self.budgets, "budgets", 1)
        energies = _frozen_int_array(self.energies, "energies", 1)
        assignment = _frozen_int_array(self.assignment, "assignment", 2)
        if budgets.shape != (len(agent_ids),):
            raise ValueError("budgets length must match agent count")
        if energies.shape != (len(task_ids),):
            raise ValueError("energies length must match task count")
        if assignment.shape != (len(agent_ids), len(task_ids)):
            raise ValueError("assignment must be (agents x tasks)")
        if np.any(budgets < 0):
            raise ValueError("budgets must be >= 0")
        if np.any(energies < 1):
            raise ValueError("task energies must be >= 1")
        if np.any(assignment < 0):
            raise ValueError("assignment weights must be >= 0")
        object.__setattr__(self, "agent_ids", agent_ids)
        object.__setattr__(self, "task_ids", task_ids)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "assignment", assignment)

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    def incidence(self) -> np.ndarray:
        """Boolean membership matrix (positive assignment entries)."""
        x = self.assignment > 0
        x.flags.writeable = False
        return x

    def with_assignment(self, assignment: np.ndarray) -> "ProblemInstance":
        """Same agents/tasks, different assignment matrix."""
        return ProblemInstance(
            self.agent_ids, self.budgets, self.task_ids, self.energies, assignment
        )

    def to_json_obj(self, meta: dict | None = None) -> dict:
        rows, cols = np.nonzero(self.assignment)
        obj = {
            "agents": [
                {"id": a, "budget": int(b)}
                for a, b in zip(self.agent_ids, self.budgets)
            ],
            "tasks": [
                {"id": t, "energy": int(e)}
                for t, e in zip(self.task_ids, self.energies)
            ],
            "assignment": [
                {
                    "agent": self.agent_ids[i],
                    "task": self.task_ids[k],
                    "weight": int(self.assignment[i, k]),
                }
                for i, k in zip(rows.tolist(), cols.tolist())
            ],
        }
        if meta is not None:
            obj["meta"] = meta
        return obj


@dataclass(frozen=True)
class ValidationReport:
    """Feasibility diagnostics for an instance's current assignment."""

    feasible_total: bool
    task_deficiency: np.ndarray  # E_k minus delivered units; > 0 means short
    agent_overrun: np.ndarray  # units spent above budget, clipped at 0
    connected: bool

    @property
    def feasible(self) -> bool:
        return bool(
            np.all(self.task_deficiency <= 0) and np.all(self.agent_overrun == 0)
        )


@dataclass(frozen=True)
class StatsRecord:
    """Dataset summary row."""

    n_agents: int
    n_tasks: int
    mean_budget: float
    mean_energy: float
    tasks_per_agent: float
    agents_per_task: float
    teammates_per_agent: float


def validate(inst: ProblemInstance) -> ValidationReport:
    """Compute deficiency/overrun vectors and connectivity for an instance."""
    delivered = inst.assignment.sum(axis=0)
    spent = inst.assignment.sum(axis=1)
    deficiency = inst.energies - delivered
    overrun = np.maximum(spent - inst.budgets, 0)
    return ValidationReport(
        feasible_total=bool(inst.budgets.sum() >= inst.energies.sum()),
        task_deficiency=deficiency,
        agent_overrun=overrun,
        connected=is_connected(inst),
    )


def bipartite_components(incidence: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Label the connected components of the agent-task bipartite graph.

    Returns (count, agent_labels, task_labels). Agents with no tasks and
    tasks with no agents each form their own component. This is for callers
    that read the labels; ``reaches_all`` answers "is it connected?".
    """
    x = np.asarray(incidence, dtype=bool)
    n, k = x.shape
    agent_label = np.full(n, -1, dtype=np.int64)
    task_label = np.full(k, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if agent_label[start] >= 0:
            continue
        agent_frontier = np.zeros(n, dtype=bool)
        agent_frontier[start] = True
        agent_label[start] = comp
        while agent_frontier.any():
            tasks_hit = x[agent_frontier].any(axis=0) & (task_label < 0)
            task_label[tasks_hit] = comp
            agents_hit = x[:, tasks_hit].any(axis=1) & (agent_label < 0)
            agent_label[agents_hit] = comp
            agent_frontier = agents_hit
        comp += 1
    for kk in range(k):
        if task_label[kk] < 0:
            task_label[kk] = comp
            comp += 1
    return comp, agent_label, task_label


def reaches_all(incidence: np.ndarray) -> np.ndarray:
    """Whether agent 0 reaches every agent and every task, per incidence.

    The "is it connected?" test on incidences; scoring one state leaves it to
    the stationary solve. Takes one (N, K) incidence or a stack of them and
    returns a bool per incidence. For N, K >= 1 it is the answer of
    ``bipartite_components(x)[0] == 1``, without labelling the components.
    Reach implies that every task has a member and every agent holds an
    entry. An incidence with no agents or no tasks is not connected.
    """
    x = np.asarray(incidence, dtype=bool)
    agents = np.zeros(x.shape[:-1], dtype=bool)
    agents[..., :1] = True
    while True:
        tasks = (x & agents[..., :, np.newaxis]).any(axis=-2)
        grown = agents | (x & tasks[..., np.newaxis, :]).any(axis=-1)
        if np.array_equal(grown, agents):
            return agents.all(axis=-1) & tasks.all(axis=-1) & (min(x.shape[-2:]) > 0)
        agents = grown


def is_connected(inst: ProblemInstance) -> bool:
    """True when all agents and tasks sit in a single bipartite component.

    ``reaches_all`` on the instance's incidence.
    """
    return bool(reaches_all(inst.incidence()))


def co_membership_graph(inst_or_assignment) -> np.ndarray:
    """Boolean agent adjacency: True when two distinct agents share a task."""
    if isinstance(inst_or_assignment, ProblemInstance):
        x = inst_or_assignment.incidence()
    else:
        x = np.asarray(inst_or_assignment) > 0
    # a bool matmul skips BLAS; a sum of 0/1 products is positive exactly
    # when one product is, so the float32 product thresholds exactly
    x = x.astype(np.float32)
    adj = (x @ x.T) > 0
    np.fill_diagonal(adj, False)
    return adj


def factor_metrics(assignment: np.ndarray) -> tuple[float, float]:
    """(mean tasks per agent, mean distinct teammates per agent) of a matrix."""
    x = np.asarray(assignment) > 0
    tasks_per_agent = float(x.sum(axis=1).mean())
    adj = co_membership_graph(assignment)
    teammates = float(adj.sum(axis=1).mean())
    return tasks_per_agent, teammates


def summary_stats(inst: ProblemInstance) -> StatsRecord:
    """Dataset summary: sizes, mean budget/energy, incidence and teammate means."""
    tasks_per_agent, teammates_per_agent = factor_metrics(inst.assignment)
    return StatsRecord(
        n_agents=inst.n_agents,
        n_tasks=inst.n_tasks,
        mean_budget=float(inst.budgets.mean()),
        mean_energy=float(inst.energies.mean()),
        tasks_per_agent=tasks_per_agent,
        agents_per_task=float(inst.incidence().sum(axis=0).mean()),
        teammates_per_agent=teammates_per_agent,
    )


# ---------------------------------------------------------------------------
# file formats


def parse_instance_json(text: str) -> ProblemInstance:
    """Parse the JSON instance format.

    Schema: {"agents": [{"id", "budget"}], "tasks": [{"id", "energy"}],
    "assignment": [{"agent", "task", "weight"}]}. Unknown top-level keys
    (for example a result "meta" block) are ignored.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value must be an object")
    for key in ("agents", "tasks", "assignment"):
        if key not in obj:
            raise FormatError(f"missing required key {key!r}")
        if not isinstance(obj[key], list):
            raise FormatError(f"{key!r} must be a list")

    def _id_and_value(entry, kind, value_key):
        if not isinstance(entry, dict) or "id" not in entry or value_key not in entry:
            raise FormatError(f"each {kind} needs 'id' and {value_key!r}")
        value = entry[value_key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise FormatError(f"{kind} {entry['id']!r}: {value_key} must be an integer")
        return str(entry["id"]), value

    a_index: dict[str, int] = {}
    budgets = []
    for entry in obj["agents"]:
        aid, budget = _id_and_value(entry, "agent", "budget")
        if budget < 0:
            raise FormatError(f"agent {aid!r}: negative budget")
        if aid in a_index:
            raise FormatError(f"duplicate id {aid!r}")
        a_index[aid] = len(budgets)
        budgets.append(budget)
    t_index: dict[str, int] = {}
    energies = []
    for entry in obj["tasks"]:
        tid, energy = _id_and_value(entry, "task", "energy")
        if energy < 1:
            raise FormatError(f"task {tid!r}: energy must be >= 1")
        if tid in t_index:
            raise FormatError(f"duplicate id {tid!r}")
        t_index[tid] = len(energies)
        energies.append(energy)
    if not a_index or not t_index:
        raise FormatError("instance needs at least one agent and one task")
    agent_ids, task_ids = tuple(a_index), tuple(t_index)

    assignment = np.zeros((len(agent_ids), len(task_ids)), dtype=np.int64)
    seen: set[tuple[int, int]] = set()
    for entry in obj["assignment"]:
        if not isinstance(entry, dict):
            raise FormatError("assignment entries must be objects")
        try:
            i = a_index[str(entry["agent"])]
            k = t_index[str(entry["task"])]
            w = entry["weight"]
        except KeyError as exc:
            raise FormatError(f"assignment entry refers to unknown id or misses a key: {entry}") from exc
        if not isinstance(w, int) or isinstance(w, bool):
            raise FormatError(f"assignment weight must be an integer: {entry}")
        if w < 0:
            raise FormatError(f"negative weight: {entry}")
        if w == 0:
            raise FormatError(f"zero-weight assignment entry: {entry}")
        if (i, k) in seen:
            raise FormatError(
                f"duplicate id pair in assignment: {entry['agent']!r}/{entry['task']!r}"
            )
        seen.add((i, k))
        assignment[i, k] = w
    empty = np.flatnonzero(assignment.sum(axis=0) == 0)
    if empty.size:
        raise FormatError(f"empty hyperedge: task {task_ids[int(empty[0])]!r} has no agents")
    return ProblemInstance(agent_ids, budgets, task_ids, energies, assignment)


_TASK_HEAD = re.compile(r"^(?P<tid>[^():\s]+)(?:\((?P<energy>-?\d+)\))?$")


def parse_edge_list(text: str) -> ProblemInstance:
    """Parse the line-oriented edge-list format.

    One task per line: ``taskId: agentId agentId ...`` with optional explicit
    energy ``taskId(E):`` and per-agent weights ``agentId:w``. Lines starting
    with ``#`` are comments. Budgets are the per-agent totals of the listed
    weights; task energies default to the per-task totals.
    """
    agent_ids: list[str] = []
    a_index: dict[str, int] = {}
    tasks: list[tuple[str, int | None, list[tuple[int, int]]]] = []
    task_seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(f"line {lineno}: expected 'taskId: members'")
        m = _TASK_HEAD.match(head.strip())
        if not m:
            raise FormatError(f"line {lineno}: malformed task head {head.strip()!r}")
        tid = m.group("tid")
        energy = None
        if m.group("energy") is not None:
            energy = int(m.group("energy"))
            if energy < 1:
                raise FormatError(f"line {lineno}: task energy must be >= 1")
        if tid in task_seen:
            raise FormatError(f"line {lineno}: duplicate id {tid!r}")
        task_seen.add(tid)
        members: list[tuple[int, int]] = []
        member_ids: set[str] = set()
        for token in rest.split():
            aid, sep2, w_str = token.partition(":")
            weight = 1
            if sep2:
                try:
                    weight = int(w_str)
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: bad weight in {token!r}") from exc
            if weight < 0:
                raise FormatError(f"line {lineno}: negative weight in {token!r}")
            if weight == 0:
                raise FormatError(f"line {lineno}: zero weight in {token!r}")
            if aid in member_ids:
                raise FormatError(f"line {lineno}: duplicate id {aid!r} within task")
            member_ids.add(aid)
            if aid not in a_index:
                a_index[aid] = len(agent_ids)
                agent_ids.append(aid)
            members.append((a_index[aid], weight))
        if not members:
            raise FormatError(f"line {lineno}: empty hyperedge {tid!r}")
        tasks.append((tid, energy, members))
    if not tasks:
        raise FormatError("no tasks found")
    assignment = np.zeros((len(agent_ids), len(tasks)), dtype=np.int64)
    energies = np.zeros(len(tasks), dtype=np.int64)
    task_ids = []
    for k, (tid, energy, members) in enumerate(tasks):
        task_ids.append(tid)
        for i, w in members:
            assignment[i, k] = w
        energies[k] = energy if energy is not None else assignment[:, k].sum()
    budgets = assignment.sum(axis=1)
    return ProblemInstance(tuple(agent_ids), budgets, tuple(task_ids), energies, assignment)


def load_instance(path: str | Path, fmt: str | None = None) -> ProblemInstance:
    """Load an instance from disk. Format is inferred from the extension
    (.json) unless given explicitly as 'json' or 'edgelist'."""
    path = Path(path)
    text = path.read_text()
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "edgelist"
    if fmt == "json":
        return parse_instance_json(text)
    if fmt == "edgelist":
        return parse_edge_list(text)
    raise ValueError(f"unknown format {fmt!r}")


def save_instance(inst: ProblemInstance, path: str | Path, meta: dict | None = None) -> None:
    """Write an instance (plus optional meta block) as JSON."""
    obj = inst.to_json_obj(meta=meta)
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")
