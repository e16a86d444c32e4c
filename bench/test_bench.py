"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Op, _cli  # noqa: E402

hyperteam, toy_path = run.import_package()
_small = hyperteam.load_instance(toy_path("coauthor_small"))


def _runner(ops, tmp_path: Path, seed: int = 0, reference: dict | None = None) -> run.Runner:
    return run.Runner(ops, tmp_path / "work", seed, reference or {})


def _hyperteam_modules():
    return [m for name, m in sys.modules.items() if m is not None and name.startswith("hyperteam")]


def test_every_listed_layer_is_found_and_wrapped():
    originals = {}
    for layer in tracing.LAYERS:
        module, _, name = layer.partition(".")
        originals[layer] = getattr(sys.modules[f"hyperteam.{module}"], name)
    tracer = tracing.Tracer()
    with tracer:
        for layer, fn in originals.items():
            assert tracer.wrapped[layer].__wrapped__ is fn
        # no namespace still holds an unwrapped original, including the
        # modules that imported the function by name
        for module in _hyperteam_modules():
            for attr, value in vars(module).items():
                assert all(value is not fn for fn in originals.values()), f"{module.__name__}.{attr}"
        assert hyperteam.cli.anneal is tracer.wrapped["csa.anneal"]
        assert hyperteam.anneal is tracer.wrapped["csa.anneal"]
    assert hyperteam.cli.anneal is originals["csa.anneal"]


def test_a_renamed_layer_is_reported_missing(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ("spectral.no_such_function",))
    with pytest.raises(tracing.MissingLayerError, match="spectral.no_such_function"):
        tracing.Tracer().install()


def _tiny_instance(tmp_path: Path) -> Path:
    inst = hyperteam.to_instance(((0, 1, 2), (2, 3), (3, 4, 0), (1, 4)), 5)
    inst = hyperteam.ProblemInstance(
        inst.agent_ids, inst.budgets + 1, inst.task_ids, inst.energies, inst.assignment
    )
    path = tmp_path / "tiny.json"
    hyperteam.save_instance(inst, path)
    return path


def _greedy_op(path: Path, corrupt=None) -> Op:
    def run_op(out: Path):
        _cli(hyperteam, ["optimize", "--input", str(path), "--method", "greedy", "--out", str(out)])
        if corrupt:
            result = json.loads((out / "result.json").read_text())
            corrupt(result)
            (out / "result.json").write_text(json.dumps(result))

    def check(_, out: Path):
        problems, _summary = checks.check_optimize(out, bipartite=False)
        return problems, None

    return Op("greedy", run_op, check, ("greedy_s", "s", "lower", lambda s: s))


def _perturb_mu2(result):
    result["meta"]["mu2"] *= 1 + 1e-9


def _drop_member(result):
    result["assignment"].pop()


def _raise(_out):
    raise RuntimeError("boom")


@pytest.mark.parametrize("corrupt", [None, _perturb_mu2, _drop_member])
def test_corrupted_outputs_count_as_failed_ops(tmp_path, corrupt):
    path = _tiny_instance(tmp_path)
    ops = [
        _greedy_op(path, corrupt),
        Op("raises", _raise, lambda *_: ([], None), ("x", "s", "lower", lambda s: s)),
        _greedy_op(path),
    ]
    runner = _runner(ops, tmp_path)
    rep = runner.rep()
    assert runner.attempted == 3
    assert set(rep.op_cal) == {"greedy", "raises"} and rep.wall_cal > 0
    expected = ["greedy", "raises"] if corrupt else ["raises"]
    assert [p.split(":")[0] for p in runner.problems] == expected
    assert runner.failed == len(expected)


def test_reference_mismatch_counts_as_failed(tmp_path):
    path = _tiny_instance(tmp_path)

    def check(_, out: Path):
        problems, summary = checks.check_optimize(out, bipartite=False)
        return problems, {"best_mu2": summary["best_mu2"]}

    op = _greedy_op(path)
    op.check = check
    runner = _runner([op], tmp_path, 3, {"seeds": {"3": {"greedy": {"best_mu2": 0.5}}}})
    runner.rep()
    assert runner.failed == 1 and "best_mu2" in runner.problems[0]


def test_oracle_matches_the_package_on_the_small_instance():
    mu2 = float(hyperteam.spectral_bundle(_small).eigenvalues[1])
    oracle = checks.oracle_mu2(_small.energies, _small.assignment)
    assert checks.close(mu2, oracle, checks.REL_TOL)
    assert not checks.close(mu2 * (1 + 1e-9), oracle, checks.REL_TOL)


def test_self_times_of_a_traced_op_sum_to_its_wall_time(tmp_path):
    path = _tiny_instance(tmp_path)

    def enumerate_op(out: Path):
        _cli(hyperteam, ["experiment", "enumerate", "--nodes", "4", "--edges", "2", "--out", str(out)])

    ops = [
        Op("enumerate", enumerate_op, lambda *_: ([], None), ("x", "s", "lower", lambda s: s)),
        _greedy_op(path),
    ]
    runner = _runner(ops, tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        rep = runner.rep(tracer)
    assert runner.failed == 0
    roots = tracer.roots()
    assert [tracer.spans[i][0] for i in roots] == ["op.enumerate", "op.greedy"]
    for start, stop in zip(roots, roots[1:] + [len(tracer.spans)]):
        name, t0, t1, _ = tracer.spans[start]
        calls, self_s = tracer.self_times(start, stop)
        assert sum(self_s.values()) == pytest.approx(t1 - t0, rel=1e-9, abs=1e-12)
        assert calls["cli.main"] == 1
        assert rep.op_wall[name[3:]] >= t1 - t0
    metrics = run.layer_metrics(tracer)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["spectral.mu2_of_assignment.calls"] > 0
    assert metrics["spectral.stationary_distribution.residual_max"] < 1e-12
    assert 0 < metrics["experiments.connected_ratio"] <= 1


def test_benchmark_json_lists_the_metrics_the_runs_print(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.INSTANCES)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert set(m["name"] for m in spec["per_layer"]) == set(run.PER_LAYER) | {"trace.overhead_share"}
    path = _tiny_instance(tmp_path)
    ops = [_greedy_op(path), Op("again", _greedy_op(path).run, lambda *_: ([], None), ("y", "s", "lower", lambda s: s))]
    metrics, _ = run.run_untraced(_runner(ops, tmp_path), 0.0, lambda: 0.1)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert all(value > 0 for value, *_ in metrics.values())
