"""End-to-end command-line runs in subprocesses: outputs, exit codes, reruns."""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import (
    DISCONNECTED,
    bipartite_bundle,
    hub,
    make_instance,
    random_connected_instance,
    subprocess_env,
    toy_path,
)
from hyperteam import bipartite, cli, experiments, spectral
from hyperteam.experiments import enumerate_small, to_instance
from hyperteam.cli import main
from hyperteam.errors import DisconnectedError
from hyperteam.instance import load_instance, save_instance
from hyperteam.spectral import mu2_of_assignment


def run_cli(*args, cwd=None, env_extra=None):
    env = subprocess_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperteam", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "tiny.edges").write_text("t0: a b\n")

    rng = np.random.default_rng(0)
    inst = random_connected_instance(rng, 8, 3, slack=1)
    save_instance(inst, str(d / "small.json"))

    save_instance(hub(10), str(d / "hub.json"))
    return d


EXPECTED_TINY_STATS = (
    "name,N,K,mean_budget,mean_energy,Tbar,Abar,Ahat\n"
    "tiny,2,1,1.0,2.0,1.0,2.0,1.0\n"
)


def test_stats_writes_exact_csv(workdir, tmp_path):
    proc = run_cli("stats", "--input", str(workdir / "tiny.edges"), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stats.csv").read_text() == EXPECTED_TINY_STATS
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "stats"
    assert manifest["outputs"] == {"stats.csv": hashlib.sha256(EXPECTED_TINY_STATS.encode()).hexdigest()}
    # without --stdout the command reports where it wrote
    assert "stats.csv" in proc.stdout
    assert "manifest.json" in proc.stdout


def test_stats_stdout_is_pure(workdir, tmp_path):
    proc = run_cli(
        "stats", "--input", str(workdir / "tiny.edges"), "--out", str(tmp_path), "--stdout"
    )
    assert proc.returncode == 0
    assert proc.stdout == EXPECTED_TINY_STATS
    assert (tmp_path / "stats.csv").exists()


def test_optimize_greedy(workdir, tmp_path):
    proc = run_cli(
        "optimize",
        "--input",
        str(workdir / "small.json"),
        "--method",
        "greedy",
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["meta"]["method"] == "greedy"
    assert result["meta"]["feasible"] is True
    assert result["meta"]["mu2"] > 0
    assert result["meta"]["gain"] >= 0

    optimized = load_instance(str(tmp_path / "result.json"))
    a = np.asarray(optimized.assignment)
    assert (a.sum(axis=1) <= optimized.budgets).all()
    assert (a.sum(axis=0) >= optimized.energies).all()

    trace_header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert trace_header == "iter,temperature,penalty,mu2,feasible,accepted,phase"


def test_optimize_csa_runs_and_repeats(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_threshold": 0.2, "max_iters": 2000}))
    args = (
        "optimize",
        "--input",
        str(workdir / "small.json"),
        "--method",
        "csa",
        "--config",
        str(config),
        "--seed",
        "7",
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    meta = json.loads((out1 / "result.json").read_text())["meta"]
    assert meta["seed"] == 7
    assert meta["params"]["t_threshold"] == 0.2
    # csa traces have no phase column
    header = (out1 / "trace.csv").read_text().splitlines()[0]
    assert header == "iter,temperature,penalty,mu2,feasible,accepted"


def test_optimize_csa_bipartite_gain_compares_bipartite_mu2s(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_threshold": 0.2, "max_iters": 300}))
    proc = run_cli(
        "optimize",
        "--input",
        str(workdir / "small.json"),
        "--method",
        "csa-bipartite",
        "--config",
        str(config),
        "--out",
        str(tmp_path / "out"),
    )
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "out" / "result.json").read_text())["meta"]
    inst = load_instance(str(workdir / "small.json"))
    original = bipartite.mu2_of_assignment(inst.energies, inst.assignment)
    assert meta["mu2_original"] == original
    assert meta["mu2_original"] != mu2_of_assignment(inst.energies, inst.assignment)
    assert meta["gain"] == meta["mu2"] / original


@pytest.mark.parametrize("method", ["csa", "csa-bipartite"])
@pytest.mark.parametrize("case", DISCONNECTED)
def test_optimize_reports_no_gain_over_an_input_with_no_walk(tmp_path, case, method):
    # the objective's own degree check and solve reject the input
    path = tmp_path / "input.json"
    save_instance(DISCONNECTED[case], str(path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cooling": 0.9}))
    out = tmp_path / "out"
    assert main(["optimize", "--input", str(path), "--method", method, "--config", str(config),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "result.json").read_text())["meta"]
    assert meta["mu2_original"] is None and meta["gain"] is None


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("method", ["csa", "csa-bipartite"])
def test_optimize_writes_null_scores_for_a_split_input(tmp_path, method):
    # two teams that share no agent never meet a connected state, so the
    # best mu2 is nan and its penalty -inf: result.json says null, which a
    # strict parser reads, and the trace keeps its float cells
    path = tmp_path / "input.json"
    save_instance(DISCONNECTED["split"], str(path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cooling": 0.9}))
    out = tmp_path / "out"
    assert main(["optimize", "--input", str(path), "--method", method, "--config", str(config),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "result.json").read_text(), parse_constant=_strict_constant)["meta"]
    assert meta["mu2"] is None and meta["penalty"] is None
    json.loads((out / "manifest.json").read_text(), parse_constant=_strict_constant)
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[2:4] == ["-inf", "nan"] for row in rows)


@pytest.mark.parametrize("method", ["csa", "csa-bipartite"])
def test_optimize_reports_no_gain_when_the_run_met_no_connected_state(tmp_path, method):
    # a connected input scores, but with no iterations seeds 1, 2 and 7 start
    # the anneal from a split state and keep it: the best mu2 is nan, so the
    # gain over the input is null rather than a nan that JSON lacks
    path = tmp_path / "input.json"
    save_instance(make_instance([[1, 1], [1, 0], [0, 1]], budgets=[2, 1, 1]), str(path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iters": 0}))
    for seed in ("1", "2", "7"):
        out = tmp_path / f"out{seed}"
        assert main(["optimize", "--input", str(path), "--method", method, "--config", str(config),
                     "--seed", seed, "--out", str(out)]) == 0
        meta = json.loads((out / "result.json").read_text(), parse_constant=_strict_constant)["meta"]
        assert meta["mu2_original"] > 0
        assert meta["mu2"] is None and meta["gain"] is None


def test_optimize_usage_errors(workdir, tmp_path):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"not_a_knob": 1}))
    proc = run_cli(
        "optimize",
        "--input",
        str(workdir / "small.json"),
        "--method",
        "csa",
        "--config",
        str(bad_config),
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 2
    assert "not_a_knob" in proc.stderr

    conflict = tmp_path / "conflict.json"
    conflict.write_text(json.dumps({"objective": "hypergraph"}))
    proc = run_cli(
        "optimize",
        "--input",
        str(workdir / "small.json"),
        "--method",
        "csa-bipartite",
        "--config",
        str(conflict),
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 2

    proc = run_cli(
        "optimize", "--input", str(workdir / "small.json"), "--method", "magic"
    )
    assert proc.returncode == 2


# The rejection lists in this file give every case an explicit id, so a row
# added in the middle renames no other case. The ids of the older rows are the
# positional ones pytest gave them, kept so that lists citing them stay valid.
@pytest.mark.parametrize(
    "method, config",
    [
        pytest.param("csa", {"max_iters": "5"}, id="csa-config0"),
        pytest.param("csa", {"pack_size": 1.5}, id="csa-config1"),
        pytest.param("csa", {"moves_per_step": 2.5}, id="csa-config2"),
        pytest.param("csa-bipartite", {"cooling": True}, id="csa-bipartite-config3"),
        pytest.param("greedy", {"packet_size": 1.5}, id="greedy-config4"),
        pytest.param("greedy", {"stochastic_accept": "no"}, id="greedy-config5"),
        # written to the file as NaN and Infinity, which json reads back
        pytest.param("csa", {"task_penalty": math.nan}, id="csa-task_penalty-NaN"),
        pytest.param("csa", {"t0": math.inf}, id="csa-t0-Infinity"),
        pytest.param("csa", {"teammates_factor": -math.inf}, id="csa-teammates_factor--Infinity"),
        pytest.param("greedy", {"phase2_temperature": math.nan}, id="greedy-phase2_temperature-NaN"),
        pytest.param("greedy", {"phase2_temperature": math.inf}, id="greedy-phase2_temperature-Infinity"),
    ],
)
def test_optimize_rejects_config_values_of_the_wrong_type(workdir, tmp_path, capsys, method, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["optimize", "--input", str(workdir / "small.json"), "--method", method]
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    (field,) = config
    assert f"bad optimizer parameters: {field} must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "method, config",
    [
        pytest.param("csa", {"moves_per_step": 0}, id="csa-config0"),
        pytest.param("csa", {"pack_size": 0}, id="csa-config1"),
        pytest.param("greedy", {"packet_size": 0}, id="greedy-config2"),
    ],
)
def test_optimize_rejects_out_of_range_config_values(workdir, tmp_path, capsys, method, config):
    # rejected when the parameters are built, before the run writes anything
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["optimize", "--input", str(workdir / "small.json"), "--method", method]
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    (field,) = config
    assert f"bad optimizer parameters: {field} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", ["agents", "tasks", "assignment"])
def test_stats_rejects_a_section_that_is_not_a_list(tmp_path, capsys, section):
    obj = {"agents": [{"id": "a", "budget": 1}], "tasks": [], "assignment": []}
    obj[section] = None if section == "assignment" else 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["stats", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: '{section}' must be a list\n"


_HUGE = 10**23


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "budget.json",
            json.dumps({
                "agents": [{"id": "a", "budget": 10**30}],
                "tasks": [{"id": "t", "energy": 1}],
                "assignment": [{"agent": "a", "task": "t", "weight": 1}],
            }),
            "agent 'a': budget must be an integer below 2**63",
        ),
        (
            "weight.json",
            json.dumps({
                "agents": [{"id": "a", "budget": 1}],
                "tasks": [{"id": "t", "energy": 1}],
                "assignment": [{"agent": "a", "task": "t", "weight": _HUGE}],
            }),
            "assignment weight must be an integer below 2**63",
        ),
        ("energy.edges", f"t1({_HUGE}): a b\n", "line 1: task 't1': energy must be >= 1 and below 2**63"),
        ("weight.edges", f"t1: a:{_HUGE} b\n", f"line 1: weight not below 2**63 in 'a:{_HUGE}'"),
        # weights that each fit int64 but whose sums do not
        pytest.param(
            "budget-sum.edges",
            "t1: a:5000000000000000000\nt2: a:5000000000000000000 b\n",
            "agent 'a': weights sum to 2**63 or more",
            id="budget-sum.edges",
        ),
        pytest.param(
            "column-sum.json",
            json.dumps({
                "agents": [{"id": "a", "budget": 1}, {"id": "b", "budget": 1}],
                "tasks": [{"id": "t", "energy": 1}],
                "assignment": [
                    {"agent": "a", "task": "t", "weight": 5 * 10**18},
                    {"agent": "b", "task": "t", "weight": 5 * 10**18},
                ],
            }),
            "total assigned units must be below 2**63",
            id="column-sum.json",
        ),
    ],
)
def test_stats_rejects_an_integer_outside_int64(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["stats", "--input", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_attack_outputs(workdir, tmp_path):
    proc = run_cli(
        "attack",
        "--input",
        str(workdir / "small.json"),
        "--removals",
        "2",
        "--n-exp",
        "5",
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    runs = (tmp_path / "attack_runs.csv").read_text().splitlines()
    assert runs[0] == "run,removed_ids,patching_cost,unsatisfied_sum,success"
    assert len(runs) == 6
    inst = load_instance(str(workdir / "small.json"))
    for line in runs[1:]:
        ids = line.split(",")[1].split(";")
        assert len(ids) == 2
        assert set(ids) <= set(inst.agent_ids)
    summary = (tmp_path / "attack_summary.csv").read_text().splitlines()
    assert summary[0] == "metric,mean,stderr,n_exp"
    assert len(summary) == 3


def test_attack_rejects_bad_m(workdir, tmp_path):
    proc = run_cli(
        "attack",
        "--input",
        str(workdir / "small.json"),
        "--removals",
        "8",
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 2
    assert "between 1 and" in proc.stderr


def test_attack_rejects_the_removed_jobs_flag(workdir, tmp_path):
    proc = run_cli(
        "attack", "--input", str(workdir / "small.json"), "--jobs", "2", "--out", str(tmp_path)
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: hyperteam")
    assert "unrecognized arguments: --jobs 2" in proc.stderr


# `attack -m 20 --seed 0` on coauthor_large, recorded from the serial path
# (`--jobs 1`) before the thread pool was deleted: the sha256 of
# attack_runs.csv, and attack_summary.csv verbatim
LARGE_ATTACK_RUNS_SHA256 = "284ae10b7220434769165a01defe76e13d8605bd7da75ff8f9072ed5e30e534f"
LARGE_ATTACK_SUMMARY = (
    "metric,mean,stderr,n_exp\n"
    "patching_cost,269.7,0.6333333333333332,10\n"
    "unsatisfied_sum,0.0,0.0,10\n"
)


def test_attack_on_coauthor_large_matches_recorded_outputs(tmp_path):
    proc = run_cli(
        "attack", "--input", toy_path("coauthor_large"), "-m", "20", "--seed", "0",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    runs = (tmp_path / "attack_runs.csv").read_bytes()
    assert hashlib.sha256(runs).hexdigest() == LARGE_ATTACK_RUNS_SHA256
    assert (tmp_path / "attack_summary.csv").read_text() == LARGE_ATTACK_SUMMARY


def test_rerun_replays_a_manifest_that_records_jobs(workdir, tmp_path):
    first = tmp_path / "first"
    proc = run_cli(
        "attack", "--input", str(workdir / "small.json"), "-m", "2", "--out", str(first)
    )
    assert proc.returncode == 0, proc.stderr
    # manifests written while attack had --jobs carry it in their params, and
    # list their outputs by name, without digests
    manifest = json.loads((first / "manifest.json").read_text())
    assert "jobs" not in manifest["params"]
    manifest["params"]["jobs"] = 2
    manifest["outputs"] = list(manifest["outputs"])
    (first / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    again = tmp_path / "again"
    proc = run_cli("rerun", str(first / "manifest.json"), "--out", str(again))
    assert proc.returncode == 0, proc.stderr
    assert "records no output digests" in proc.stderr
    for name in ("attack_runs.csv", "attack_summary.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


# each command's manifest params, keyed by the flags' dest; "{small}", "{hub}"
# and "{tiny}" stand for the absolute paths of the workdir's files
MANIFEST_PARAMS = {
    "attack": (
        ["attack", "--input", "{small}", "--assignment", "{small}", "-m", "2",
         "--n-exp", "3", "--strategy", "degree", "--seed", "4"],
        {"input": "{small}", "format": None, "assignment": "{small}", "m": 2, "n_exp": 3,
         "seed": 4, "strategy": "degree"},
    ),
    "scaling": (
        ["experiment", "scaling", "--schemes", "head2tail", "--sizes", "2", "3", "4",
         "--reps", "1", "--seed", "2"],
        {"kind": "scaling", "schemes": ["head2tail"], "sizes": [2, 3, 4], "reps": 1,
         "seed": 2, "coupled": True},
    ),
    "scaling-fixed": (
        ["experiment", "scaling", "--schemes", "head2tail", "--sizes", "2", "3", "4",
         "--reps", "1", "--fixed-communities"],
        {"kind": "scaling", "schemes": ["head2tail"], "sizes": [2, 3, 4], "reps": 1,
         "seed": 0, "coupled": False},
    ),
    "budget-sweep": (
        ["experiment", "budget-sweep", "--input", "{hub}", "--multipliers", "1", "2",
         "--sub-sizes", "3", "4", "6", "--reps", "1"],
        {"kind": "budget-sweep", "input": "{hub}", "format": None, "multipliers": [1, 2],
         "sub_sizes": [3, 4, 6], "reps": 1, "seed": 0},
    ),
    "diffuse": (
        ["experiment", "diffuse", "--nodes", "4", "--edges", "2", "--representatives", "1",
         "--t-max", "5", "--steps", "6", "--representation", "bipartite"],
        {"kind": "diffuse", "nodes": 4, "edges": 2, "representatives": 1, "t_max": 5.0,
         "steps": 6, "representation": "bipartite"},
    ),
    "enumerate": (
        ["experiment", "enumerate", "--nodes", "4", "--edges", "2", "--dedup"],
        {"kind": "enumerate", "nodes": 4, "edges": 2, "dedup": True},
    ),
    "stats": (
        ["stats", "--input", "{tiny}", "--format", "edgelist"],
        {"input": "{tiny}", "format": "edgelist", "name": "tiny"},
    ),
}


@pytest.mark.parametrize("command", MANIFEST_PARAMS)
def test_manifest_params_name_every_flag_by_its_dest(workdir, tmp_path, command):
    paths = {name: str((workdir / f"{name}.{ext}").resolve())
             for name, ext in (("small", "json"), ("hub", "json"), ("tiny", "edges"))}
    args, expected = MANIFEST_PARAMS[command]
    proc = run_cli(*(a.format(**paths) for a in args), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    params = json.loads((tmp_path / "manifest.json").read_text())["params"]
    assert params == {
        k: v.format(**paths) if isinstance(v, str) else v for k, v in expected.items()
    }


def test_experiment_enumerate(tmp_path):
    proc = run_cli(
        "experiment", "enumerate", "--nodes", "4", "--edges", "2", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "enumeration.csv").read_text().splitlines()
    assert lines[0] == "rank,mu2,edges"
    assert lines[1].split(",")[0] == "1"
    assert len(lines) > 2


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("nodes, edges", [(4, 2), (5, 3), (6, 3)])
def test_enumerate_writes_what_the_rows_format_to(tmp_path, nodes, edges, dedup):
    # the table's arrays give the bytes that formatting each SmallHypergraph
    # row gives: labels joined by "-", edges by ";", mu2 by repr
    rows = list(enumerate_small(nodes, edges, dedup=dedup))
    lines = ["rank,mu2,edges"] + [
        f"{rank},{h.mu2!r},{';'.join('-'.join(map(str, e)) for e in h.edges)}" for rank, h in enumerate(rows, 1)
    ]
    flag = ["--dedup"] if dedup else []
    assert main(["experiment", "enumerate", "--nodes", str(nodes), "--edges", str(edges), *flag,
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "enumeration.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("nodes", ["0", "1", "40"])
def test_enumerate_without_edges_writes_the_header_only(tmp_path, nodes):
    # a hypergraph with no edges connects nothing, not even one node
    out = tmp_path / "out"
    assert main(["experiment", "enumerate", "--nodes", nodes, "--edges", "0", "--out", str(out)]) == 0
    assert (out / "enumeration.csv").read_text() == "rank,mu2,edges\n"


def test_experiment_scaling(tmp_path):
    proc = run_cli(
        "experiment",
        "scaling",
        "--schemes",
        "random",
        "--sizes",
        "2",
        "3",
        "4",
        "--reps",
        "2",
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "scaling.csv").exists()
    fit_lines = (tmp_path / "scaling_fit.csv").read_text().splitlines()
    assert fit_lines[0] == "scheme,exponent,intercept,R2"
    assert fit_lines[1].startswith("random,")


def test_experiment_budget_sweep(workdir, tmp_path):
    proc = run_cli(
        "experiment",
        "budget-sweep",
        "--input",
        str(workdir / "hub.json"),
        "--multipliers",
        "1",
        "2",
        "--sub-sizes",
        "3",
        "4",
        "6",
        "--reps",
        "1",
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    points = (tmp_path / "budget_sweep.csv").read_text().splitlines()
    assert points[0] == "target_tasks,rep,multiplier,n_agents,n_tasks,mu2"
    assert len(points) == 7  # 3 sizes x 1 rep x 2 multipliers
    fits = (tmp_path / "budget_fit.csv").read_text().splitlines()
    assert fits[0] == "multiplier,exponent,intercept,R2"
    assert len(fits) == 3


def _fit_rows(path, keys, x, exponent_sign):
    """Per-curve (exponent, intercept, R2) fitted with ``np.polyfit`` from a sample CSV.

    Rows are grouped by ``keys`` (curve, x group) in order of appearance; each
    curve fits the log mean mu2 against the log mean of column ``x``.
    """
    header, *lines = path.read_text().splitlines()
    column = {name: i for i, name in enumerate(header.split(","))}
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for line in lines:
        row = line.split(",")
        groups.setdefault(tuple(row[column[k]] for k in keys), []).append(
            (float(row[column[x]]), float(row[column["mu2"]]))
        )
    fits = {}
    for curve in dict.fromkeys(label for label, _ in groups):
        means = np.array([np.mean(g, axis=0) for (label, _), g in groups.items() if label == curve])
        lx, ly = np.log(means).T
        slope, intercept = np.polyfit(lx, ly, 1)
        r2 = 1 - ((ly - (intercept + slope * lx)) ** 2).sum() / ((ly - ly.mean()) ** 2).sum()
        fits[curve] = (exponent_sign * slope, intercept, r2)
    return fits


@pytest.mark.parametrize(
    "args, samples, fits, keys, x, sign",
    [
        (["scaling", "--reps", "3", "--sizes", "2", "3", "4", "5"],
         "scaling.csv", "scaling_fit.csv", ("scheme", "N_c"), "N_c", -1),
        (["scaling", "--reps", "2", "--sizes", "2", "3", "4", "--fixed-communities"],
         "scaling.csv", "scaling_fit.csv", ("scheme", "N_c"), "N_c", -1),
        (["budget-sweep", "--input", "{hub}", "--multipliers", "1", "3", "5", "--sub-sizes", "3", "4", "6", "9",
          "--reps", "3"],
         "budget_sweep.csv", "budget_fit.csv", ("multiplier", "target_tasks"), "n_agents", 1),
    ],
    ids=["scaling", "scaling-fixed", "budget-sweep"],
)
def test_fit_csv_is_the_power_law_of_its_sample_csv(tmp_path, args, samples, fits, keys, x, sign):
    # scaling_fit.csv holds the decay exponent a = -slope, budget_fit.csv the slope
    path = tmp_path / "hub.json"
    save_instance(hub(), str(path))
    out = tmp_path / "out"
    assert main(["experiment", *(a.format(hub=path) for a in args), "--out", str(out)]) == 0
    expected = _fit_rows(out / samples, keys, x, sign)
    header, *lines = (out / fits).read_text().splitlines()
    assert header.split(",")[1:] == ["exponent", "intercept", "R2"]
    assert [line.split(",")[0] for line in lines] == list(expected)
    for line in lines:
        label, *values = line.split(",")
        for value, want in zip(map(float, values), expected[label], strict=True):
            assert math.isclose(value, want, rel_tol=1e-12), (label, value, want)


@pytest.mark.parametrize(
    "args",
    [
        # sizes and sub-sizes below 2 exit 2 in the parser's checks; these
        # pass them and fail in the library
        pytest.param(["experiment", "scaling", "--sizes", "2", "2", "3", "--reps", "1"], id="args0"),
        pytest.param(["experiment", "scaling", "--sizes", "2", "3", "--reps", "1"], id="args1"),
        pytest.param(["experiment", "budget-sweep", "--sub-sizes", "999", "4", "6", "--reps", "1", "--input", "{hub}"],
                     id="args2"),
        pytest.param(["stats", "--input", "{empty}"], id="args3"),
        # a power-law fit needs three distinct sub-sizes
        pytest.param(["experiment", "budget-sweep", "--sub-sizes", "3", "4", "--reps", "1", "--input", "{hub}"],
                     id="two-sub-sizes"),
        pytest.param(["experiment", "budget-sweep", "--sub-sizes", "4", "4", "4", "--reps", "1", "--input", "{hub}"],
                     id="one-distinct-sub-size"),
        # a value given twice would enter its fit twice
        pytest.param(["experiment", "scaling", "--sizes", "2", "2", "3", "4", "--reps", "1"], id="repeated-size"),
        pytest.param(["experiment", "scaling", "--schemes", "random", "random", "--sizes", "2", "3", "4",
                      "--reps", "1"], id="repeated-scheme"),
        pytest.param(["experiment", "budget-sweep", "--sub-sizes", "3", "4", "4", "6", "--reps", "1",
                      "--input", "{hub}"], id="repeated-sub-size"),
        pytest.param(["experiment", "budget-sweep", "--multipliers", "1", "3", "3", "--sub-sizes", "3", "4", "6",
                      "--reps", "1", "--input", "{hub}"], id="repeated-multiplier"),
    ],
)
def test_experiment_rejects_bad_arguments_before_running(workdir, tmp_path, capsys, monkeypatch, args):
    def drawing(*_):
        raise AssertionError("the arguments should be rejected before any draw")

    monkeypatch.setattr(experiments, "rewire", drawing)
    monkeypatch.setattr(experiments, "_sample_subinstance", drawing)
    # an instance file the loader rejects: agents given as a count, no tasks
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"agents": 5, "tasks": [], "assignment": []}))
    args = [arg.format(hub=workdir / "hub.json", empty=empty) for arg in args]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # the output directory is made at the first write, so none appears
    assert not out.exists()


def test_experiment_diffuse(tmp_path):
    proc = run_cli(
        "experiment",
        "diffuse",
        "--nodes",
        "4",
        "--edges",
        "2",
        "--representatives",
        "2",
        "--t-max",
        "10",
        "--steps",
        "11",
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    for j in range(2):
        diff = (tmp_path / f"diffusion_{j}.csv").read_text().splitlines()
        assert diff[0] == "t,x_0,x_1,x_2,x_3"
        assert len(diff) == 12
        spec_lines = (tmp_path / f"spectrum_{j}.csv").read_text().splitlines()
        assert spec_lines[0] == "index,eigenvalue"
        assert len(spec_lines) == 5


def test_experiment_diffuse_bipartite_spectrum(tmp_path):
    proc = run_cli(
        "experiment",
        "diffuse",
        "--nodes",
        "4",
        "--edges",
        "2",
        "--representatives",
        "1",
        "--steps",
        "5",
        "--representation",
        "bipartite",
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    spec_lines = (tmp_path / "spectrum_0.csv").read_text().splitlines()
    assert spec_lines[0] == "index,eigenvalue,mode"
    modes = {line.split(",")[2] for line in spec_lines[1:]}
    assert modes == {"agent", "task"}
    # one representative is rank 0; its spectra are those of the two diagonal
    # blocks of the two-step walk's Laplacian
    inst = to_instance(enumerate_small(4, 2)[0].edges, 4)
    n = inst.n_agents
    L_star = bipartite_bundle(inst).L_star
    want = [(i, v, "agent") for i, v in enumerate(np.linalg.eigvalsh(L_star[:n, :n]))]
    want += [(n + i, v, "task") for i, v in enumerate(np.linalg.eigvalsh(L_star[n:, n:]))]
    rows = [line.split(",") for line in spec_lines[1:]]
    assert [(int(i), mode) for i, _, mode in rows] == [(i, mode) for i, _, mode in want]
    got = np.array([float(v) for _, v, _ in rows])
    assert np.abs(got - [v for _, v, _ in want]).max() <= 1e-12


@pytest.mark.parametrize(
    "args, flag",
    [
        pytest.param(["diffuse", "--representatives", "0"], "--representatives", id="args0---representatives"),
        pytest.param(["diffuse", "--representatives", "-1"], "--representatives", id="args1---representatives"),
        pytest.param(["diffuse", "--steps", "0"], "--steps", id="args2---steps"),
        pytest.param(["diffuse", "--nodes", "-1"], "--nodes", id="args3---nodes"),
        pytest.param(["diffuse", "--edges", "-2"], "--edges", id="args4---edges"),
        pytest.param(["enumerate", "--nodes", "-1"], "--nodes", id="args5---nodes"),
        pytest.param(["enumerate", "--edges", "-1"], "--edges", id="args6---edges"),
        pytest.param(["scaling", "--reps", "0"], "--reps", id="args7---reps"),
        pytest.param(["budget-sweep", "--input", str(toy_path("coauthor_small")), "--reps", "0"], "--reps",
                     id="args8---reps"),
        pytest.param(["budget-sweep", "--input", str(toy_path("coauthor_small")), "--multipliers", "0", "2", "3"],
                     "--multipliers", id="args9---multipliers"),
        pytest.param(["scaling", "--sizes", "1", "2", "3", "--reps", "1"], "--sizes", id="args10---sizes"),
        pytest.param(["budget-sweep", "--input", str(toy_path("coauthor_small")), "--sub-sizes", "0", "--reps", "1"],
                     "--sub-sizes", id="args11---sub-sizes"),
        pytest.param(["diffuse", "--t-max", "-1"], "--t-max", id="args12---t-max"),
        pytest.param(["diffuse", "--t-max", "nan"], "--t-max", id="args13---t-max"),
        pytest.param(["diffuse", "--t-max", "inf"], "--t-max", id="args14---t-max"),
        # past the enumeration guard: 151,348,015 candidate edge sets
        pytest.param(["enumerate", "--nodes", "8", "--edges", "4"], "--nodes", id="enumerate-guard"),
        pytest.param(["diffuse", "--nodes", "8", "--edges", "4"], "--edges", id="diffuse-guard"),
    ],
)
def test_experiment_rejects_out_of_range_counts(tmp_path, capsys, args, flag):
    out = tmp_path / "out"
    assert main(["experiment", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


def test_attack_rejects_zero_runs(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["attack", "--input", str(toy_path("coauthor_small")), "--n-exp", "0", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --n-exp must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"cooling": 0.98\n"seed": 1}', ""], ids=["malformed", "empty"])
def test_optimize_rejects_a_config_that_is_not_json(workdir, tmp_path, capsys, text):
    config = tmp_path / "bad.json"
    config.write_text(text)
    out = tmp_path / "out"
    argv = ["optimize", "--input", str(workdir / "small.json"), "--method", "csa"]
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config file {config} is not valid JSON: ")
    assert not out.exists()


@pytest.mark.parametrize("representation", ["hypergraph", "bipartite"])
def test_experiment_diffuse_builds_one_bundle_per_representative(tmp_path, monkeypatch, representation):
    calls, build = [], spectral.spectral_bundle

    def counting(inst):
        calls.append(inst)
        return build(inst)

    # every module that could build a bundle for the run, under the name it binds
    for module in (spectral, experiments, cli):
        monkeypatch.setattr(module, "spectral_bundle", counting, raising=False)
    argv = ["experiment", "diffuse", "--nodes", "4", "--edges", "2", "--representatives", "3",
            "--steps", "5", "--representation", representation, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 3


ROOT = Path(__file__).resolve().parents[1]
CSA_SCHEDULE = ROOT / "bench" / "csa_schedule.json"


class Run(NamedTuple):
    """A command line of the run table, with the extra checks it needs."""

    argv: list[str]
    lines: int | None = None  # the primary CSV's line count, header included
    optimized: bool = False  # also replayed by ``python -O``, which drops __debug__ checks


# every command and experiment kind, each run and then replayed through rerun;
# "{small}", "{schedule}" and "{hub}" stand for the paths in the test
RUNS = {
    "stats": Run(["stats", "--input", "{small}"]),
    "optimize-greedy": Run(["optimize", "--input", "{small}", "--method", "greedy", "--seed", "3"]),
    # csa.anneal keeps checks under __debug__ that -O drops
    "optimize-csa": Run(
        ["optimize", "--input", "{small}", "--method", "csa", "--config", "{schedule}", "--seed", "7"],
        optimized=True,
    ),
    "optimize-csa-bipartite": Run(
        ["optimize", "--input", "{small}", "--method", "csa-bipartite", "--config", "{schedule}"]
    ),
    "attack": Run(["attack", "--input", "{small}", "--removals", "4", "--n-exp", "5", "--seed", "1"]),
    "enumerate": Run(["experiment", "enumerate", "--nodes", "4", "--edges", "2"]),
    # one row for each of the 15,500 connected hypergraphs at 6x3, and one for
    # each of their 109 relabelling classes
    "enumerate-6x3": Run(["experiment", "enumerate", "--nodes", "6", "--edges", "3"], lines=15501),
    "enumerate-6x3-dedup": Run(["experiment", "enumerate", "--nodes", "6", "--edges", "3", "--dedup"], lines=110),
    # experiments.rewire keeps __debug__ checks too
    "scaling": Run(["experiment", "scaling", "--reps", "2", "--sizes", "2", "3", "4"], optimized=True),
    "scaling-fixed": Run(["experiment", "scaling", "--reps", "2", "--sizes", "2", "3", "4", "--fixed-communities"]),
    # the README's sweep of the hub instance its own code block writes
    "budget-sweep": Run(
        ["experiment", "budget-sweep", "--input", "{hub}", "--multipliers", "1", "3", "5",
         "--sub-sizes", "3", "4", "6", "9", "--reps", "3"]
    ),
    "diffuse-hypergraph": Run(["experiment", "diffuse"]),
    "diffuse-bipartite": Run(["experiment", "diffuse", "--representation", "bipartite"]),
}


@pytest.fixture
def readme_hub(tmp_path, monkeypatch):
    """The ``hub.json`` that README's ``def hub(`` block writes, run in ``tmp_path``."""
    blocks = (ROOT / "README.md").read_text().split("```")
    code = next(b.removeprefix("python\n") for b in blocks if b.startswith("python\n") and "def hub(" in b)
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    return tmp_path / "hub.json"


@pytest.mark.parametrize("run", RUNS)
def test_stdout_streams_the_first_csv_and_the_manifest_lists_files_as_written(
    readme_hub, tmp_path, capsys, monkeypatch, run
):
    written, write = [], cli._atomic_write

    def recording(path, data):
        written.append(path.name)
        write(path, data)

    monkeypatch.setattr(cli, "_atomic_write", recording)
    paths = {"small": toy_path("coauthor_small"), "schedule": CSA_SCHEDULE, "hub": readme_hub}
    argv, lines, optimized = RUNS[run]
    out = tmp_path / "out"
    assert main([*(arg.format(**paths) for arg in argv), "--out", str(out), "--stdout"]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert written == [*outputs, "manifest.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(written)
    assert outputs == {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in outputs}
    primary = (out / next(name for name in outputs if name.endswith(".csv"))).read_bytes()
    assert capsys.readouterr().out.encode() == primary
    if lines is not None:
        assert primary.count(b"\n") == lines

    # rerun builds every file again and exits 0 only if each matches its digest
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "replay")]) == 0
    if optimized:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "hyperteam", "rerun", str(out / "manifest.json"),
             "--out", str(tmp_path / "optimized")],
            capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


def test_rerun_refuses_a_replay_whose_output_changed(workdir, tmp_path, capsys, monkeypatch):
    first = tmp_path / "first"
    argv = ["attack", "--input", str(workdir / "small.json"), "-m", "2", "--n-exp", "3", "--out", str(first)]
    assert main(argv) == 0
    run_attack = cli._DISPATCH["attack"]

    def one_byte_off(params):
        files = run_attack(params)
        files["attack_summary.csv"] = files["attack_summary.csv"][:-2] + "9\n"
        return files

    monkeypatch.setitem(cli._DISPATCH, "attack", one_byte_off)
    capsys.readouterr()
    replay = tmp_path / "replay"
    assert main(["rerun", str(first / "manifest.json"), "--out", str(replay)]) == 1
    err = capsys.readouterr().err
    assert "attack_summary.csv" in err and "attack_runs.csv" not in err
    assert not replay.exists()


# the params of a sound manifest for each command
_SOUND_PARAMS = {
    "stats": {"input": "x.json", "format": None, "name": "x"},
    "optimize": {"input": "x.json", "format": None, "method": "csa", "seed": 0, "optimizer": {"seed": 0}},
    "attack": {"input": "x.json", "format": None, "assignment": None, "m": 3, "n_exp": 1,
               "strategy": "random", "seed": 0},
}


def _manifest(command, **changes):
    """A sound manifest of ``command`` with ``changes`` to its params; ``...`` drops a param."""
    params = {**_SOUND_PARAMS[command], **changes}
    return json.dumps({"command": command, "params": {k: v for k, v in params.items() if v is not ...}})


@pytest.mark.parametrize(
    "text, named",
    [
        pytest.param("[1, 2]", "not a JSON object", id="not-an-object"),
        pytest.param('{"command": ["stats"], "params": {}}', "command", id="command"),
        pytest.param('{"command": "stats", "params": [1]}', "params", id="params"),
        pytest.param('{"command": "stats", "params": {}, "inputs": ["a.json"]}', "inputs", id="inputs"),
        pytest.param('{"command": "stats", "params": {}, "outputs": "stats.csv"}', "outputs", id="outputs"),
        pytest.param('{"command": "stats", "params": {"input": 5}}', "params input", id="input-not-a-path"),
        pytest.param('{"command": "stats", "params": {}}', "params lack input", id="no-input"),
        # each param is what its flag parses: its type, its choices, and present
        pytest.param(_manifest("optimize", optimizer="abc"), "params optimizer", id="optimizer-not-an-object"),
        pytest.param(_manifest("optimize", optimizer={"seed": 0, "nope": 1}), "params optimizer",
                     id="optimizer-unknown-key"),
        pytest.param(_manifest("optimize", method="anneal"), "params method", id="method-not-a-choice"),
        pytest.param(_manifest("attack", m="3"), "params m must be an integer, not '3'", id="m-a-string"),
        pytest.param(_manifest("attack", seed=True), "params seed", id="seed-a-bool"),
        pytest.param(_manifest("stats", format=5), "params format must be one of json, edgelist, not 5",
                     id="format-not-a-choice"),
        pytest.param(_manifest("stats", format=...), "params lack format", id="no-format"),
        pytest.param(_manifest("stats", name=...), "params name", id="no-name"),
        pytest.param('{"command": "experiment", "params": {"kind": "sweep"}}', "params kind", id="kind-not-a-choice"),
        pytest.param('{"command": "experiment", "params": {"kind": "scaling", "schemes": [], "sizes": [2, 3],'
                     ' "reps": 1, "seed": 0, "coupled": true}}', "params schemes", id="schemes-empty"),
        pytest.param('{"command": "experiment", "params": {"kind": "enumerate", "nodes": 4, "edges": 2,'
                     ' "dedup": 1}}', "params dedup", id="dedup-not-a-bool"),
    ],
)
def test_rerun_refuses_a_manifest_of_the_wrong_shape(tmp_path, capsys, monkeypatch, text, named):
    def running(_):
        raise AssertionError("the manifest should be refused before any run")

    def hashing(_):
        raise AssertionError("the manifest should be refused before any input is hashed")

    for command in cli._DISPATCH:
        monkeypatch.setitem(cli._DISPATCH, command, running)
    monkeypatch.setattr(cli, "_sha256", hashing)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    out = tmp_path / "out"
    assert main(["rerun", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable manifest {manifest}: ")
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("command", _SOUND_PARAMS)
def test_rerun_checks_a_sound_manifest_no_further(tmp_path, capsys, monkeypatch, command):
    # the hand-written manifests above differ from these in one param each
    ran = []
    monkeypatch.setitem(cli._DISPATCH, command, lambda params: ran.append(params) or {})
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text("{}")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(_manifest(command))
    assert main(["rerun", str(manifest), "--out", str(tmp_path / "out")]) == 0
    assert ran == [_SOUND_PARAMS[command]]


def test_a_run_that_fails_after_building_part_of_its_output_writes_nothing(tmp_path, capsys, monkeypatch):
    calls, build = [], bipartite.side_laplacians

    def failing_on_the_second(inst):
        calls.append(inst)
        if len(calls) == 2:
            raise DisconnectedError("side chains need a connected instance")
        return build(inst)

    monkeypatch.setattr(bipartite, "side_laplacians", failing_on_the_second)
    out = tmp_path / "out"
    argv = ["experiment", "diffuse", "--nodes", "4", "--edges", "2", "--representatives", "3",
            "--steps", "5", "--representation", "bipartite", "--out", str(out)]
    assert main(argv) == 1
    assert len(calls) == 2
    assert capsys.readouterr().err == "error: side chains need a connected instance\n"
    assert not out.exists()


def test_rerun_reproduces_and_checks_digests(workdir, tmp_path):
    first = tmp_path / "first"
    proc = run_cli("stats", "--input", str(workdir / "tiny.edges"), "--out", str(first))
    assert proc.returncode == 0

    again = tmp_path / "again"
    proc = run_cli("rerun", str(first / "manifest.json"), "--out", str(again))
    assert proc.returncode == 0, proc.stderr
    assert (again / "stats.csv").read_bytes() == (first / "stats.csv").read_bytes()

    # edit the input: the recorded digest no longer matches
    (workdir / "tiny.edges").write_text("t0: a b c\n")
    try:
        proc = run_cli("rerun", str(first / "manifest.json"), "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        assert "changed since" in proc.stderr
    finally:
        (workdir / "tiny.edges").write_text("t0: a b\n")


def test_runtime_failures_exit_one(tmp_path):
    proc = run_cli("stats", "--input", str(tmp_path / "missing.json"), "--out", str(tmp_path))
    assert proc.returncode == 1

    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    proc = run_cli("stats", "--input", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 1


def test_log_level_env(workdir, tmp_path):
    proc = run_cli(
        "stats",
        "--input",
        str(workdir / "tiny.edges"),
        "--out",
        str(tmp_path),
        env_extra={"HYPERTEAM_LOG": "info"},
    )
    assert proc.returncode == 0
    assert "finished" in proc.stderr


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "hyperteam" in proc.stdout
