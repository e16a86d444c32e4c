"""Instance model, parsers, validation, and summary statistics."""

from __future__ import annotations

import json
import math
import re

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
    is_connected,
    load_instance,
    parse_edge_list,
    parse_instance_json,
    reaches_all,
    save_instance,
    summary_stats,
    validate,
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
    report = validate(inst)
    assert report.feasible
    assert not report.task_deficiency.any()
    assert not report.agent_overrun.any()


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
    ],
)
def test_json_rejects_with_its_message(mutate, message):
    obj = _json_obj()
    mutate(obj)
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_instance_json(json.dumps(obj))


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


def test_validate_arithmetic():
    inst = make_instance([[2, 0], [0, 1]], budgets=[1, 4], energies=[3, 1])
    report = validate(inst)
    assert np.array_equal(report.task_deficiency, [1, 0])
    assert np.array_equal(report.agent_overrun, [1, 0])
    assert not report.feasible

    short = make_instance([[1]], budgets=[1], energies=[5])
    assert not validate(short).feasible_total


def test_connectivity_checks():
    assert is_connected(make_instance([[1], [1], [1]]))
    assert not is_connected(make_instance([[1, 0], [1, 0], [0, 1], [0, 1]]))
    chain = make_instance([[1, 0], [1, 1], [0, 1]])
    assert is_connected(chain)


def test_bipartite_components_isolates():
    # an idle agent and an unstaffed task each form their own component
    incidence = np.array([[True, False], [False, False]])
    count, agents, tasks = bipartite_components(incidence)
    assert count == 3
    assert agents[0] == tasks[0]
    assert agents[1] != agents[0]
    assert tasks[1] not in (agents[0], agents[1])


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
    want = [bipartite_components(x)[0] == 1 for x in stack]
    assert reaches_all(stack).tolist() == want
    assert [bool(reaches_all(x)) for x in stack] == want


def test_reaches_all_without_agents_is_disconnected():
    # the annealer's active part is empty when no agent has a budget
    assert not reaches_all(np.zeros((0, 3), dtype=bool))
    assert reaches_all(np.zeros((2, 0, 3), dtype=bool)).tolist() == [False, False]


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
    report = validate(coauthor_small)
    assert report.feasible and report.connected
    assert not report.task_deficiency.any()


def test_large_dataset_snapshot(coauthor_large):
    rec = summary_stats(coauthor_large)
    assert rec.n_agents == 781
    assert rec.n_tasks == 704
    assert round(rec.mean_budget, 3) == 16.672
    assert round(rec.mean_energy, 3) == 15.028
    report = validate(coauthor_large)
    assert report.feasible and report.connected


def test_toy_files_load_by_path():
    inst = load_instance(toy_path("coauthor_small"))
    assert inst.n_agents == 52
