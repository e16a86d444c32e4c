"""End-to-end command-line runs in subprocesses: outputs, exit codes, reruns."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    bipartite_bundle,
    make_instance,
    random_connected_instance,
    subprocess_env,
    toy_path,
)
from hyperteam import bipartite, experiments
from hyperteam.experiments import enumerate_small, to_instance
from hyperteam.cli import main
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

    n_tasks, members = 10, 4
    a = np.zeros((n_tasks * members + 1, n_tasks), dtype=np.int64)
    for k in range(n_tasks):
        a[k * members : (k + 1) * members, k] = 1
    a[-1, :] = 1
    budgets = a.sum(axis=1)
    budgets[:-1] = np.tile((1, 3), n_tasks * members // 2)
    hub = make_instance(a, budgets=budgets)
    save_instance(hub, str(d / "hub.json"))
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
    assert manifest["outputs"] == ["stats.csv"]
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


@pytest.mark.parametrize(
    "method, config",
    [
        ("csa", {"max_iters": "5"}),
        ("csa", {"pack_size": 1.5}),
        ("csa", {"moves_per_step": 2.5}),
        ("csa-bipartite", {"cooling": True}),
        ("greedy", {"packet_size": 1.5}),
        ("greedy", {"stochastic_accept": "no"}),
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


@pytest.mark.parametrize("section", ["agents", "tasks", "assignment"])
def test_stats_rejects_a_section_that_is_not_a_list(tmp_path, capsys, section):
    obj = {"agents": [{"id": "a", "budget": 1}], "tasks": [], "assignment": []}
    obj[section] = None if section == "assignment" else 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["stats", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: '{section}' must be a list\n"


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
    # manifests written while attack had --jobs carry it in their params
    manifest = json.loads((first / "manifest.json").read_text())
    assert "jobs" not in manifest["params"]
    manifest["params"]["jobs"] = 2
    (first / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    again = tmp_path / "again"
    proc = run_cli("rerun", str(first / "manifest.json"), "--out", str(again))
    assert proc.returncode == 0, proc.stderr
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


@pytest.mark.parametrize(
    "args",
    [
        ["experiment", "scaling", "--reps", "0"],
        ["experiment", "scaling", "--sizes", "2", "3", "--reps", "1"],
        ["experiment", "budget-sweep", "--multipliers", "0", "--sub-sizes", "3", "4", "6", "--reps", "1",
         "--input", "{hub}"],
        ["stats", "--input", "{empty}"],
    ],
)
def test_experiment_rejects_bad_arguments_before_running(workdir, tmp_path, capsys, monkeypatch, args):
    def drawing(*_):
        raise AssertionError("the arguments should be rejected before any draw")

    monkeypatch.setattr(experiments, "_one_scaling_rep", drawing)
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
        (["diffuse", "--representatives", "0"], "--representatives"),
        (["diffuse", "--representatives", "-1"], "--representatives"),
        (["diffuse", "--steps", "0"], "--steps"),
        (["diffuse", "--nodes", "-1"], "--nodes"),
        (["diffuse", "--edges", "-2"], "--edges"),
        (["enumerate", "--nodes", "-1"], "--nodes"),
        (["enumerate", "--edges", "-1"], "--edges"),
    ],
)
def test_experiment_rejects_out_of_range_counts(tmp_path, capsys, args, flag):
    out = tmp_path / "out"
    assert main(["experiment", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
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
