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
    "StatsRecord",
    "load_instance",
    "parse_instance_json",
    "parse_edge_list",
    "save_instance",
    "bipartite_components",
    "reaches_all",
    "summary_stats",
    "co_membership_graph",
    "member_lists",
    "factor_metrics",
]


def _frozen_int_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        # tolerate float arrays that are exactly integral (json numbers); an
        # object array holds a Python int that fits no integer dtype
        try:
            arr = arr.astype(np.float64) if arr.dtype.kind in "bfO" else None
        except (TypeError, ValueError):
            arr = None
        if arr is None or not np.all(np.isfinite(arr)) or np.any(np.rint(arr) != arr):
            raise ValueError(f"{name} must be integer-valued")
    # no signed integer array needs the test, which numpy 1.x makes in float64
    if arr.dtype.kind != "i" and (np.any(arr < -(2**63)) or np.any(arr >= 2**63)):
        raise ValueError(f"{name} must be at least -2**63 and below 2**63")
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _reaches_2_63(arr: np.ndarray, axis: int | None = None):
    """Whether sums of non-negative int64 entries reach 2**63, over ``axis`` or all.

    Exact and without overflow. A float64 sum of n entries is within a factor
    ``1 + n * 2**-53`` of the exact one, so float sums below 2**62 give False
    without a temporary array. Otherwise the sums of each entry's high and
    low 32 bits fit int64, and ``high + low // 2**32`` is the sum's quotient
    by 2**32.
    """
    if (arr.sum(axis, dtype=np.float64) < 2**62).all():
        return False
    return (arr >> 32).sum(axis) + ((arr & 0xFFFFFFFF).sum(axis) >> 32) >= 2**31


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
        # then every row, column and total sum of the three fits int64
        for name, arr in (("budget", budgets), ("energy", energies), ("assigned units", assignment)):
            if _reaches_2_63(arr):
                raise ValueError(f"total {name} must be below 2**63")
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
        a = self.assignment
        rows, cols = np.divmod(np.flatnonzero(a), a.shape[1])  # the entries in row-major order
        obj = {
            "agents": [{"id": i, "budget": b} for i, b in zip(self.agent_ids, self.budgets.tolist())],
            "tasks": [{"id": t, "energy": e} for t, e in zip(self.task_ids, self.energies.tolist())],
            "assignment": [
                {"agent": self.agent_ids[i], "task": self.task_ids[k], "weight": w}
                for i, k, w in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())
            ],
        }
        if meta is not None:
            obj["meta"] = meta
        return obj


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


def _reach(x: np.ndarray, agents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (agents, tasks) that the agent mask ``agents`` reaches in the bool incidence ``x``.

    ``x`` is (..., N, K) and ``agents`` (..., N): each incidence of a stack grows its own mask.
    """
    while True:
        tasks = (x & agents[..., :, np.newaxis]).any(axis=-2)
        grown = agents | (x & tasks[..., np.newaxis, :]).any(axis=-1)
        if np.array_equal(grown, agents):
            return agents, tasks
        agents = grown


def bipartite_components(incidence: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Label the connected components of the agent-task bipartite graph.

    Returns (count, agent_labels, task_labels). Components are numbered in
    the order of their first agent, an agent with no tasks alone in its own;
    tasks with no agents follow, one component each, in index order. This is
    for callers that read the labels; ``reaches_all`` answers "is it
    connected?".
    """
    x = np.asarray(incidence, dtype=bool)
    n, k = x.shape
    agent_label = np.full(n, -1, dtype=np.int64)
    task_label = np.full(k, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if agent_label[start] < 0:
            agents, tasks = _reach(x, np.arange(n) == start)
            agent_label[agents] = task_label[tasks] = comp
            comp += 1
    empty = np.flatnonzero(task_label < 0)
    task_label[empty] = comp + np.arange(len(empty))
    return comp + len(empty), agent_label, task_label


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
    start = np.zeros(x.shape[:-1], dtype=bool)
    start[..., :1] = True
    agents, tasks = _reach(x, start)
    return agents.all(axis=-1) & tasks.all(axis=-1) & (min(x.shape[-2:]) > 0)


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


def member_lists(assignment: np.ndarray) -> tuple[list[list[int]], list[list[int]]]:
    """Ascending members of each task and tasks of each agent, over the entries above 0.

    As lists of Python ints: ``np.flatnonzero`` of each column, then of each row.
    Both come from one scan of the entries: it lists the incidences agent by
    agent, and a stable sort of their tasks lists them task by task.
    """
    held = np.asarray(assignment) > 0
    n, k = held.shape
    # agents sorted, tasks ascending within an agent; a flat scan, which a 2-D np.nonzero is not
    agents, tasks = np.divmod(np.flatnonzero(held), k)
    by_task = np.argsort(tasks, kind="stable")  # agents stay ascending within a task
    return _split(agents[by_task], tasks, k), _split(tasks, agents, n)


def _split(values: np.ndarray, keys: np.ndarray, count: int) -> list[list[int]]:
    """``values`` cut into ``count`` lists of Python ints, the i-th as long as ``keys`` holds i."""
    ends = np.cumsum(np.bincount(keys, minlength=count)).tolist()
    flat = values.tolist()
    return [flat[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]


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


def _matrix(shape: tuple[int, int], cells, weights) -> np.ndarray:
    """The int64 matrix of ``shape`` holding ``weights`` at the flat ``cells``, zero elsewhere."""
    matrix = np.zeros(shape[0] * shape[1], dtype=np.int64)
    matrix[cells] = np.asarray(weights, dtype=np.int64)
    return matrix.reshape(shape)


# the least value of an agent's budget and of a task's energy, and the fault below it
_LEAST = {"agent": (0, "negative budget"), "task": (1, "energy must be >= 1")}


def _ids_and_values(entries: list, kind: str, value_key: str) -> tuple[dict[str, int], list[int]]:
    """The index of the ids and the values of the agents or tasks section, in one lean pass.

    The pass stops at the first faulty entry, and ``_id_fault`` names its fault.
    """
    least = _LEAST[kind][0]
    index: dict[str, int] = {}
    values: list[int] = []
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or value_key not in entry:
            break
        key, value = str(entry["id"]), entry[value_key]
        if type(value) is not int or not least <= value < 2**63 or key in index:
            break
        index[key] = len(values)
        values.append(value)
    else:
        return index, values
    raise _id_fault(entries[len(values)], kind, value_key)


def _id_fault(entry, kind: str, value_key: str) -> FormatError:
    """The fault of the agent or task ``entry`` at which the lean pass stopped, checked in order."""
    if not isinstance(entry, dict) or "id" not in entry or value_key not in entry:
        return FormatError(f"each {kind} needs 'id' and {value_key!r}")
    value, key = entry[value_key], str(entry["id"])
    if not isinstance(value, int) or isinstance(value, bool) or value >= 2**63:
        return FormatError(f"{kind} {entry['id']!r}: {value_key} must be an integer below 2**63")
    least, fault = _LEAST[kind]
    if value < least:
        return FormatError(f"{kind} {key!r}: {fault}")
    return FormatError(f"duplicate id {key!r}")


def _cells_and_weights(entries: list, a_index: dict[str, int], t_index: dict[str, int]) -> tuple[np.ndarray, list[int]]:
    """The flat (agent, task) cells and the weights of the assignment section, in one lean pass.

    The pass stops at the first faulty entry. A pair repeated before it, found
    by one stable sort of the cells, is the first fault; otherwise
    ``_assignment_fault`` names the entry's.
    """
    n_tasks = len(t_index)
    cells: list[int] = []
    weights: list[int] = []
    for entry in entries:
        if not isinstance(entry, dict):
            break
        try:
            cell = a_index[str(entry["agent"])] * n_tasks + t_index[str(entry["task"])]
            w = entry["weight"]
        except KeyError:
            break
        if type(w) is not int or not 0 < w < 2**63:
            break
        cells.append(cell)
        weights.append(w)
    flat = np.asarray(cells, dtype=np.int64)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        entry = entries[int(repeats.min())]
        raise FormatError(f"duplicate id pair in assignment: {entry['agent']!r}/{entry['task']!r}")
    if len(cells) < len(entries):
        raise _assignment_fault(entries[len(cells)], a_index, t_index)
    return flat, weights


def _assignment_fault(entry, a_index: dict[str, int], t_index: dict[str, int]) -> FormatError:
    """The fault of the assignment ``entry`` at which the lean pass stopped, checked in order."""
    if not isinstance(entry, dict):
        return FormatError("assignment entries must be objects")
    try:
        a_index[str(entry["agent"])], t_index[str(entry["task"])]
        w = entry["weight"]
    except KeyError:
        return FormatError(f"assignment entry refers to unknown id or misses a key: {entry}")
    if not isinstance(w, int) or isinstance(w, bool) or w >= 2**63:
        return FormatError(f"assignment weight must be an integer below 2**63: {entry}")
    if w < 0:
        return FormatError(f"negative weight: {entry}")
    return FormatError(f"zero-weight assignment entry: {entry}")


def parse_instance_json(text: str) -> ProblemInstance:
    """Parse the JSON instance format.

    Schema: {"agents": [{"id", "budget"}], "tasks": [{"id", "energy"}],
    "assignment": [{"agent", "task", "weight"}]}. Unknown top-level keys
    (for example a result "meta" block) are ignored.

    A faulty file raises ``FormatError`` naming its first faulty entry in
    file order: the agents, then the tasks, then the assignment. Within an
    entry the checks run in this order: an object; its ids known and its
    keys present; an integer value below 2**63; then the value's sign (an
    assignment weight above 0, a budget at least 0, an energy at least 1);
    and last a repeated agent or task id, or a repeated agent/task pair.
    Each section is read in one lean pass that stops at the first faulty
    entry; repeated pairs are found by one sort of the cells before it.
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
    a_index, budgets = _ids_and_values(obj["agents"], "agent", "budget")
    t_index, energies = _ids_and_values(obj["tasks"], "task", "energy")
    if not a_index or not t_index:
        raise FormatError("instance needs at least one agent and one task")
    agent_ids, task_ids = tuple(a_index), tuple(t_index)

    cells, weights = _cells_and_weights(obj["assignment"], a_index, t_index)
    assignment = _matrix((len(agent_ids), len(task_ids)), cells, weights)
    empty = np.flatnonzero(~assignment.any(axis=0))
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
            if not 1 <= energy < 2**63:
                raise FormatError(f"line {lineno}: task {tid!r}: energy must be >= 1 and below 2**63")
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
            if weight >= 2**63:
                raise FormatError(f"line {lineno}: weight not below 2**63 in {token!r}")
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
    n_tasks = len(tasks)
    cells = [i * n_tasks + k for k, (_, _, members) in enumerate(tasks) for i, _ in members]
    weights = [w for _, _, members in tasks for _, w in members]
    assignment = _matrix((len(agent_ids), n_tasks), cells, weights)
    task_ids = tuple(tid for tid, _, _ in tasks)
    # budgets and default energies are row and column sums, so each must fit
    for ids, axis, kind in ((agent_ids, 1, "agent"), (task_ids, 0, "task")):
        over = np.flatnonzero(_reaches_2_63(assignment, axis))
        if over.size:
            raise FormatError(f"{kind} {ids[over[0]]!r}: weights sum to 2**63 or more")
    energies = assignment.sum(axis=0)
    for k, (_, energy, _) in enumerate(tasks):
        if energy is not None:
            energies[k] = energy
    budgets = assignment.sum(axis=1)
    return ProblemInstance(tuple(agent_ids), budgets, task_ids, energies, assignment)


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
