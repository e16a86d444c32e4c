"""Instance model, parsers, validation, and summary statistics."""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, toy_path
from hyperteam.errors import FormatError
from hyperteam.instance import (
    ProblemInstance,
    bipartite_components,
    co_membership_graph,
    load_instance,
    member_lists,
    parse_edge_list,
    parse_instance_json,
    reaches_all,
    save_instance,
    summary_stats,
)


def test_minimal_edge_list():
    inst = parse_edge_list("t1: a b\n")
    assert inst.n_agents == 2
    assert inst.n_tasks == 1
    assert inst.agent_ids == ("a", "b")
    assert inst.task_ids == ("t1",)
    assert np.array_equal(inst.assignment, [[1], [1]])
    assert np.array_equal(inst.budgets, [1, 1])
    assert np.array_equal(inst.energies, [2])


def test_edge_list_weights_and_energy():
    text = """
    # teams
    t1(5): a:2 b:1

    t2: b c
    """
    inst = parse_edge_list(text)
    assert inst.agent_ids == ("a", "b", "c")
    assert np.array_equal(inst.energies, [5, 2])
    # budgets default to what each agent actually spends
    assert np.array_equal(inst.budgets, [2, 2, 1])
    assert np.array_equal(inst.assignment, [[2, 0], [1, 1], [0, 1]])


def test_edge_list_is_exactly_feasible():
    inst = parse_edge_list("t1(4): a:3 b\nt2: b c\n")
    # every task gets its energy and every agent spends its budget
    assert np.array_equal(inst.assignment.sum(axis=0), inst.energies)
    assert np.array_equal(inst.assignment.sum(axis=1), inst.budgets)


@pytest.mark.parametrize(
    "text",
    [
        "t1:\n",  # empty hyperedge
        "t1: a\nt1: b\n",  # duplicate task id
        "t1: a a\n",  # agent listed twice in one task
        "t1: a:0\n",  # zero weight
        "t1: a:-2\n",  # negative weight
        "t1: a:x\n",  # non-integer weight
        "t1 a b\n",  # missing colon
        "# only a comment\n",  # no tasks at all
        "t1(0): a\n",  # energy below 1
        "t1(z): a\n",  # unparsable energy
    ],
)
def test_edge_list_rejects(text):
    with pytest.raises(FormatError):
        parse_edge_list(text)


def test_json_round_trip(tmp_path):
    inst = make_instance([[2, 0], [1, 1], [0, 3]])
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    assert back.agent_ids == inst.agent_ids
    assert back.task_ids == inst.task_ids
    assert np.array_equal(back.budgets, inst.budgets)
    assert np.array_equal(back.energies, inst.energies)
    assert np.array_equal(back.assignment, inst.assignment)


def test_json_meta_is_ignored_on_parse():
    inst = make_instance([[1, 1], [0, 1]])
    obj = inst.to_json_obj(meta={"comment": "anything"})
    back = parse_instance_json(json.dumps(obj))
    assert np.array_equal(back.assignment, inst.assignment)


def _json_obj():
    return {
        "agents": [{"id": "a", "budget": 2}, {"id": "b", "budget": 1}],
        "tasks": [{"id": "t", "energy": 3}],
        "assignment": [
            {"agent": "a", "task": "t", "weight": 2},
            {"agent": "b", "task": "t", "weight": 1},
        ],
    }


def test_json_fixture_parses():
    inst = parse_instance_json(json.dumps(_json_obj()))
    assert inst.agent_ids == ("a", "b") and inst.task_ids == ("t",)
    assert np.array_equal(inst.assignment, [[2], [1]])


def test_json_parse_errors():
    with pytest.raises(FormatError):
        parse_instance_json("not json {")
    with pytest.raises(FormatError):
        parse_instance_json("[1, 2]")


def _set(path, value):
    def mutate(obj):
        *keys, last = path
        for key in keys:
            obj = obj[key]
        obj[last] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda obj: obj.pop("tasks"), "missing required key 'tasks'"),
        (_set(("agents", 0, "budget"), -1), "agent 'a': negative budget"),
        (_set(("agents", 1, "id"), "a"), "duplicate id 'a'"),
        (lambda obj: obj["tasks"].append({"id": "t", "energy": 1}), "duplicate id 't'"),
        (_set(("tasks", 0, "energy"), 0), "task 't': energy must be >= 1"),
        (_set(("assignment", 0, "weight"), 0), "zero-weight assignment entry"),
        # bools are not unit counts
        (_set(("assignment", 0, "weight"), True), "assignment weight must be an integer"),
        (_set(("assignment", 0, "agent"), "ghost"), "unknown id"),
        (
            lambda obj: obj["assignment"].append({"agent": "a", "task": "t", "weight": 1}),
            "duplicate id pair in assignment: 'a'/'t'",
        ),
        (
            lambda obj: obj["tasks"].append({"id": "empty", "energy": 1}),
            "empty hyperedge: task 'empty' has no agents",
        ),
        (_set(("assignment", 0), [1]), "assignment entries must be objects"),
        (
            _set(("assignment", 0, "weight"), -1),
            "negative weight: {'agent': 'a', 'task': 't', 'weight': -1}",
        ),
        (
            _set(("assignment", 0, "weight"), 2**63),
            "assignment weight must be an integer below 2**63: "
            "{'agent': 'a', 'task': 't', 'weight': 9223372036854775808}",
        ),
        (
            _set(("assignment", 0, "weight"), 1.0),
            "assignment weight must be an integer below 2**63: {'agent': 'a', 'task': 't', 'weight': 1.0}",
        ),
        (
            lambda obj: obj["assignment"][1].pop("weight"),
            "assignment entry refers to unknown id or misses a key: {'agent': 'b', 'task': 't'}",
        ),
        (_set(("agents", 1), "b"), "each agent needs 'id' and 'budget'"),
    ],
)
def test_json_rejects_with_its_message(mutate, message):
    obj = _json_obj()
    mutate(obj)
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_instance_json(json.dumps(obj))


@pytest.mark.parametrize(
    "faults, message",
    [
        # the first faulty entry in file order is reported, whatever its fault
        (
            [{"agent": "a", "task": "t", "weight": 1}, {"agent": "b", "task": "t", "weight": 0}],
            "duplicate id pair in assignment: 'a'/'t'",
        ),
        (
            [{"agent": "b", "task": "t", "weight": 0}, {"agent": "a", "task": "t", "weight": 1}],
            "zero-weight assignment entry: {'agent': 'b', 'task': 't', 'weight': 0}",
        ),
    ],
)
def test_json_reports_the_first_faulty_entry(faults, message):
    obj = _json_obj()
    obj["assignment"][1:] = faults
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_instance_json(json.dumps(obj))


def _parse_oracle(text: str) -> ProblemInstance:
    """The JSON parser as one loop per section, checking entry by entry; kept as an oracle."""
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
        if not isinstance(value, int) or isinstance(value, bool) or value >= 2**63:
            raise FormatError(f"{kind} {entry['id']!r}: {value_key} must be an integer below 2**63")
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
        if not isinstance(w, int) or isinstance(w, bool) or w >= 2**63:
            raise FormatError(f"assignment weight must be an integer below 2**63: {entry}")
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
    empty = np.flatnonzero(~assignment.any(axis=0))
    if empty.size:
        raise FormatError(f"empty hyperedge: task {task_ids[int(empty[0])]!r} has no agents")
    return ProblemInstance(agent_ids, budgets, task_ids, energies, assignment)


# ids that str() maps onto each other ("1" and 1), and values of every JSON type
_IDS = st.sampled_from(["a", "0", "1", 0, 1, 2, True, None, 1.5])
_VALUES = st.sampled_from([0, -1, 2, 2**63 - 1, 2**63, -(2**63) - 1, True, False, 1.0, "1", None, [1]])
_NOT_OBJECTS = st.sampled_from([5, "x", None, [1], True])


@st.composite
def _json_instances(draw):
    """A well-formed instance object, then zero, one or two faults injected into its entries."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # an id is a string or a number, and an entry may name it either way: str() maps 1 to "1"
    name = st.sampled_from([str, lambda i: i])
    obj = {
        "agents": [{"id": draw(name)(i), "budget": draw(st.integers(0, 5))} for i in range(n)],
        "tasks": [{"id": draw(name)(t), "energy": draw(st.integers(1, 5))} for t in range(k)],
        "assignment": [],
    }
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)), min_size=1))
    # one member for every task, so a fault-free object usually parses
    pairs |= {(draw(st.integers(0, n - 1)), t) for t in range(k)}
    for i, t in draw(st.permutations(sorted(pairs))):
        weight = draw(st.integers(1, 9))
        obj["assignment"].append({"agent": draw(name)(i), "task": draw(name)(t), "weight": weight})
    for _ in range(draw(st.sampled_from([0, 1, 2]))):
        section = draw(st.sampled_from(["agents", "tasks", "assignment", "assignment"]))
        entries = obj[section]
        pos = draw(st.integers(0, len(entries) - 1))
        fault = draw(st.sampled_from(["not-object", "drop-key", "set-id", "set-value", "repeat", "remove"]))
        if fault == "remove":
            del entries[pos]
        elif fault == "not-object":
            entries.insert(pos, draw(_NOT_OBJECTS))
        elif fault == "repeat":
            entries.insert(pos, copy.deepcopy(draw(st.sampled_from(entries))))
        elif isinstance(entries[pos], dict):
            value_key = {"agents": "budget", "tasks": "energy", "assignment": "weight"}[section]
            keys = sorted(entries[pos])
            if fault == "drop-key" and keys:
                del entries[pos][draw(st.sampled_from(keys))]
            elif fault == "set-value":
                entries[pos][value_key] = draw(_VALUES)
            elif [key for key in keys if key != value_key]:
                entries[pos][draw(st.sampled_from([key for key in keys if key != value_key]))] = draw(_IDS)
    return obj


def _outcome(parse, text):
    try:
        inst = parse(text)
    except (FormatError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return inst.agent_ids, inst.task_ids, inst.budgets.tolist(), inst.energies.tolist(), inst.assignment.tolist()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(obj=_json_instances())
def test_json_parser_matches_the_entry_by_entry_oracle(obj):
    text = json.dumps(obj)
    assert _outcome(parse_instance_json, text) == _outcome(_parse_oracle, text)


def test_json_parser_matches_the_oracle_on_the_bundled_instances():
    for name in ("coauthor_small", "coauthor_large"):
        text = Path(toy_path(name)).read_text()
        assert _outcome(parse_instance_json, text) == _outcome(_parse_oracle, text)


@pytest.mark.parametrize("key", ["agents", "tasks", "assignment"])
@pytest.mark.parametrize("value", [5, None, "a", {"id": "a"}])
def test_json_rejects_a_section_that_is_not_a_list(key, value):
    obj = _json_obj()
    obj[key] = value
    with pytest.raises(FormatError, match=re.escape(f"'{key}' must be a list")):
        parse_instance_json(json.dumps(obj))


def test_load_instance_format_inference(tmp_path):
    inst = make_instance([[1], [1]])
    jpath = tmp_path / "x.json"
    save_instance(inst, str(jpath))
    epath = tmp_path / "x.edges"
    epath.write_text("t0: a0 a1\n")

    assert np.array_equal(load_instance(str(jpath)).assignment, inst.assignment)
    assert np.array_equal(load_instance(str(epath)).assignment, inst.assignment)
    assert load_instance(str(epath), "edgelist").n_tasks == 1
    with pytest.raises(ValueError):
        load_instance(str(jpath), "yaml")


def test_instance_validation_guards():
    with pytest.raises(ValueError):
        make_instance([[1, 0], [0, 1]], budgets=[-1, 2])
    with pytest.raises(ValueError):
        make_instance([[1, 0], [0, 1]], energies=[0, 1])
    with pytest.raises(ValueError):
        ProblemInstance(
            agent_ids=("a", "b"),
            budgets=np.array([1, 1]),
            task_ids=("t", "u"),
            energies=np.array([1, 1]),
            assignment=np.array([[1.5, 0.0], [0.0, 1.0]]),
        )
    with pytest.raises(ValueError):
        ProblemInstance(
            agent_ids=("a", "a"),
            budgets=np.array([1, 1]),
            task_ids=("t",),
            energies=np.array([2]),
            assignment=np.array([[1], [1]]),
        )
    with pytest.raises(ValueError):
        make_instance([[1, 0], [0, 1]], budgets=[1, 2, 3])


@pytest.mark.parametrize(
    "budgets, message",
    [
        ([10**30, 1], "budgets must be at least -2**63 and below 2**63"),
        ([2**63, 1], "budgets must be at least -2**63 and below 2**63"),
        (np.array([2**64 - 1, 1], dtype=np.uint64), "budgets must be at least -2**63 and below 2**63"),
        (np.array([1e30, 1.0]), "budgets must be at least -2**63 and below 2**63"),
        (np.array([2.0**63, 1.0]), "budgets must be at least -2**63 and below 2**63"),
        ([-(10**30), 1], "budgets must be at least -2**63 and below 2**63"),
        (["1", "2"], "budgets must be integer-valued"),
    ],
)
def test_values_outside_int64_are_rejected(budgets, message):
    # a value no int64 holds is named as such, never cast into one
    with pytest.raises(ValueError, match=re.escape(message)):
        ProblemInstance(("a", "b"), budgets, ("t",), [2], [[1], [1]])


def test_int64_extremes_are_kept():
    # the largest int64 is kept as long as the total stays below 2**63
    inst = ProblemInstance(("a", "b"), [2**63 - 1, 0], ("t",), [2], [[1], [1]])
    assert inst.budgets.tolist() == [2**63 - 1, 0]
    inst = ProblemInstance(("a", "b"), np.array([2**63 - 1, 0], dtype=np.uint64), ("t",), [2], [[1], [1]])
    assert inst.budgets.tolist() == [2**63 - 1, 0]
    with pytest.raises(ValueError, match=re.escape("total budget must be below 2**63")):
        ProblemInstance(("a", "b"), [2**63 - 1, 1], ("t",), [2], [[1], [1]])


def _member_lists_oracle(a):
    members = [np.flatnonzero(a[:, k] > 0).tolist() for k in range(a.shape[1])]
    return members, [np.flatnonzero(row > 0).tolist() for row in a]


def test_member_lists_match_flatnonzero(coauthor_large):
    a = np.asarray(coauthor_large.assignment)
    for layout in (np.ascontiguousarray(a), np.asfortranarray(a)):
        assert member_lists(layout) == _member_lists_oracle(a)
    members, tasks_of = member_lists(np.zeros(a.shape, dtype=np.int64))
    assert members == [[]] * a.shape[1] and tasks_of == [[]] * a.shape[0]
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (1, 6), (6, 1)] + [tuple(rng.integers(1, 30, size=2)) for _ in range(40)]
    idle = empty = 0
    for n, k in shapes:
        # sparse enough to leave idle agents and empty tasks
        a = rng.integers(0, 4, size=(n, k)) * (rng.random((n, k)) < rng.random())
        idle += int((a.sum(axis=1) == 0).any())
        empty += int((a.sum(axis=0) == 0).any())
        strided = np.repeat(a, 2, axis=1)[:, ::2]
        for layout in (np.ascontiguousarray(a), np.asfortranarray(a), strided):
            got = member_lists(layout)
            assert got == _member_lists_oracle(a)
            assert all(type(i) is int for lists in got for entries in lists for i in entries)
    assert idle >= 10 and empty >= 10
    members, tasks_of = member_lists(np.zeros((3, 2), dtype=np.int64))
    assert members == [[], []] and tasks_of == [[], [], []]


def test_integral_floats_accepted():
    inst = ProblemInstance(
        agent_ids=("a", "b"),
        budgets=np.array([1.0, 2.0]),
        task_ids=("t", "u"),
        energies=np.array([1, 2]),
        assignment=np.array([[1.0, 0.0], [0.0, 2.0]]),
    )
    assert inst.assignment.dtype == np.int64
    assert np.array_equal(inst.assignment, [[1, 0], [0, 2]])


def test_arrays_are_read_only():
    inst = make_instance([[1, 1], [1, 0]])
    with pytest.raises(ValueError):
        inst.assignment[0, 0] = 9
    with pytest.raises(ValueError):
        inst.budgets[0] = 9
    assert inst.incidence().dtype == np.bool_
    with pytest.raises(ValueError):
        inst.incidence()[0, 0] = False


def test_connectivity_checks():
    assert reaches_all(make_instance([[1], [1], [1]]).incidence())
    assert not reaches_all(make_instance([[1, 0], [1, 0], [0, 1], [0, 1]]).incidence())
    chain = make_instance([[1, 0], [1, 1], [0, 1]])
    assert reaches_all(chain.incidence())


def test_bipartite_components_isolates():
    # an idle agent and an unstaffed task each form their own component
    incidence = np.array([[True, False], [False, False]])
    count, agents, tasks = bipartite_components(incidence)
    assert count == 3
    assert agents[0] == tasks[0]
    assert agents[1] != agents[0]
    assert tasks[1] not in (agents[0], agents[1])


def _components_oracle(x: np.ndarray) -> tuple[int, list[int], list[int]]:
    """The labelling by one frontier search per unlabelled agent; kept as an oracle.

    Components are numbered in the order of their first agent, then each
    task with no agents in index order: the numbering whose "first largest
    component" the budget sweep's sampler keeps.
    """
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
    return comp, agent_label.tolist(), task_label.tolist()


def test_bipartite_components_match_the_per_start_oracle():
    rng = np.random.default_rng(23)
    shapes = [(0, 0), (0, 3), (1, 0), (4, 0), (1, 1)]
    shapes += [tuple(rng.integers(1, 12, size=2)) for _ in range(200)]
    idle = empty = several = 0
    for n, k in shapes:
        # sparse enough to leave idle agents, empty tasks and several components
        x = rng.random((n, k)) < rng.random() * 0.6
        count, agents, tasks = bipartite_components(x)
        assert type(count) is int
        assert agents.dtype == tasks.dtype == np.int64
        assert (count, agents.tolist(), tasks.tolist()) == _components_oracle(x)
        idle += int((~x.any(axis=1)).any())
        empty += int((~x.any(axis=0)).any())
        several += int(count > 2)
    assert idle >= 50 and empty >= 50 and several >= 50


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    k=st.integers(0, 6),
    density=st.floats(0.0, 1.0),
)
def test_reaches_all_matches_component_count(seed, n, k, density):
    # random bool stacks, some with an idle agent or an empty task blanked in
    rng = np.random.default_rng(seed)
    stack = rng.random((8, n, k)) < density
    stack[1::3, rng.integers(n), :] = False
    if k:
        stack[2::3, :, rng.integers(k)] = False
    # one component, and at least one task: a taskless agent connects nothing
    want = [k > 0 and bipartite_components(x)[0] == 1 for x in stack]
    assert reaches_all(stack).tolist() == want
    assert [bool(reaches_all(x)) for x in stack] == want


def test_reaches_all_without_agents_is_disconnected():
    # the annealer's active part is empty when no agent has a budget
    assert not reaches_all(np.zeros((0, 3), dtype=bool))
    assert reaches_all(np.zeros((2, 0, 3), dtype=bool)).tolist() == [False, False]
    # nor is one with no tasks, where no agent holds an entry
    assert not reaches_all(np.zeros((0, 0), dtype=bool))
    assert not reaches_all(np.zeros((1, 0), dtype=bool))
    for shape in ((3, 0, 0), (3, 1, 0), (3, 2, 0)):
        assert reaches_all(np.zeros(shape, dtype=bool)).tolist() == [False] * 3


def test_co_membership_shapes():
    tri = make_instance([[1], [1], [1]])
    g = co_membership_graph(np.asarray(tri.assignment))
    assert np.array_equal(g, np.ones((3, 3), dtype=bool) ^ np.eye(3, dtype=bool))

    path = make_instance([[1, 0], [1, 1], [0, 1]])
    g = co_membership_graph(np.asarray(path.assignment))
    assert not g[0, 2] and not g[2, 0]
    assert g[0, 1] and g[1, 2]
    assert not g.diagonal().any()
    assert np.array_equal(g, g.T)


def _bool_co_membership(x: np.ndarray) -> np.ndarray:
    """Oracle: the bool matrix product, which numpy runs without BLAS."""
    adj = x @ x.T
    np.fill_diagonal(adj, False)
    return adj


def test_co_membership_matches_bool_matmul_oracle(coauthor_large):
    rng = np.random.default_rng(3)
    for _ in range(60):
        n, k = rng.integers(1, 40, size=2)
        a = rng.integers(0, 3, size=(n, k)) * (rng.random((n, k)) < rng.random())
        g = co_membership_graph(a)
        assert g.dtype == bool
        assert np.array_equal(g, _bool_co_membership(a > 0))
    g = co_membership_graph(coauthor_large)
    assert np.array_equal(g, _bool_co_membership(coauthor_large.incidence()))


def test_summary_stats_one_task():
    rec = summary_stats(make_instance([[1], [1]]))
    assert rec.tasks_per_agent == 1.0
    assert rec.agents_per_task == 2.0
    assert rec.teammates_per_agent == 1.0
    assert rec.mean_energy == 2.0


def test_hub_has_all_teammates():
    # star: the hub shares a task with every leaf, leaves only see the hub
    k = 6
    a = np.zeros((k + 1, k), dtype=np.int64)
    a[0, :] = 1
    a[1:, :] = np.eye(k, dtype=np.int64)
    g = co_membership_graph(a)
    assert g[0].sum() == k
    assert all(g[i].sum() == 1 for i in range(1, k + 1))
    rec = summary_stats(make_instance(a))
    assert math.isclose(rec.teammates_per_agent, 2 * k / (k + 1))


def test_incidence_identity_on_means():
    # total memberships counted by rows equals the count by columns
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(0, 3, size=(6, 4))
        a[0, :] = np.maximum(a[0, :], 1)
        if (a.sum(axis=1) == 0).any() or (a.sum(axis=0) == 0).any():
            continue
        rec = summary_stats(make_instance(a))
        assert math.isclose(rec.tasks_per_agent * rec.n_agents, rec.agents_per_task * rec.n_tasks)


def test_small_dataset_snapshot(coauthor_small):
    rec = summary_stats(coauthor_small)
    assert rec.n_agents == 52
    assert rec.n_tasks == 25
    assert abs(rec.mean_budget - 7.200) <= 0.02
    assert abs(rec.mean_energy - 3.462) <= 0.02
    # every task gets exactly its energy, no agent overspends, and one component
    assert np.array_equal(coauthor_small.assignment.sum(axis=0), coauthor_small.energies)
    assert (coauthor_small.assignment.sum(axis=1) <= coauthor_small.budgets).all()
    assert reaches_all(coauthor_small.incidence())


def test_large_dataset_snapshot(coauthor_large):
    rec = summary_stats(coauthor_large)
    assert rec.n_agents == 781
    assert rec.n_tasks == 704
    assert round(rec.mean_budget, 3) == 16.672
    assert round(rec.mean_energy, 3) == 15.028
    # every task gets at least its energy, no agent overspends, and one component
    assert (coauthor_large.assignment.sum(axis=0) >= coauthor_large.energies).all()
    assert (coauthor_large.assignment.sum(axis=1) <= coauthor_large.budgets).all()
    assert reaches_all(coauthor_large.incidence())


def test_toy_files_load_by_path():
    inst = load_instance(toy_path("coauthor_small"))
    assert inst.n_agents == 52
