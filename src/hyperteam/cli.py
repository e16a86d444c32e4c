"""Command-line entry point.

Subcommands wire ingestion, the optimizers, attack simulations, and the
structural experiments into reproducible runs. Every run writes its output
files plus a ``manifest.json`` recording the command, resolved parameters,
input digests, and tool version; ``hyperteam rerun manifest.json`` replays
the run and reproduces the same CSV bytes on the same platform.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors. Set
``HYPERTEAM_LOG=debug|info|warning|error`` to control stderr logging. With
``--stdout`` the primary CSV streams to stdout and nothing else does.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__, bipartite
from .csa import CsaParams, anneal
from .errors import HyperteamError
from .experiments import (
    SCHEMES,
    budget_sweep,
    diffusion_comparison,
    enumerate_small,
    scaling_experiment,
    to_instance,
)
from .greedy import GreedyParams, greedy_optimize
from .instance import is_connected, load_instance, summary_stats
from .resilience import attack_experiment
from .spectral import mu2_of_assignment, spectral_bundle, spectrum

log = logging.getLogger("hyperteam")


class UsageError(Exception):
    """Post-parse usage problem; maps to exit code 2."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    # the output directory appears with the first file, so a rejected run leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(out_dir: Path, name: str, text: str, to_stdout: bool) -> None:
    _atomic_write(out_dir / name, text)
    if to_stdout:
        sys.stdout.write(text)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_paths(params: dict) -> list[str]:
    return [params[key] for key in ("input", "assignment") if params.get(key)]


def _run_stats(params: dict, out_dir: Path, to_stdout: bool) -> list[str]:
    inst = load_instance(params["input"], params["format"])
    rec = summary_stats(inst)
    text = _csv(
        ["name", "N", "K", "mean_budget", "mean_energy", "Tbar", "Abar", "Ahat"],
        [[
            params["name"],
            rec.n_agents,
            rec.n_tasks,
            rec.mean_budget,
            rec.mean_energy,
            rec.tasks_per_agent,
            rec.agents_per_task,
            rec.teammates_per_agent,
        ]],
    )
    _emit(out_dir, "stats.csv", text, to_stdout)
    return ["stats.csv"]


def _run_optimize(params: dict, out_dir: Path, to_stdout: bool) -> list[str]:
    inst = load_instance(params["input"], params["format"])
    method = params["method"]
    if method == "greedy":
        result = greedy_optimize(inst, GreedyParams(**params["optimizer"]))
    else:
        result = anneal(inst, CsaParams(**params["optimizer"]))

    # the input is scored with the run's own objective, so gain compares like with like
    mu2_of = bipartite.mu2_of_assignment if method == "csa-bipartite" else mu2_of_assignment
    mu2_original = None
    if is_connected(inst) and int(np.asarray(inst.assignment).sum()) > 0:
        mu2_original = mu2_of(np.asarray(inst.energies), np.asarray(inst.assignment))
    meta = {
        "method": method,
        "seed": params["seed"],
        "params": params["optimizer"],
        "mu2": result.best_mu2,
        "penalty": result.best_penalty,
        "feasible": result.feasible,
        "iterations": result.iterations_run,
        "notes": list(result.notes),
        "mu2_original": mu2_original,
        "gain": result.best_mu2 / mu2_original if mu2_original else None,
    }
    optimized = inst.with_assignment(result.best_assignment)
    _atomic_write(
        out_dir / "result.json",
        json.dumps(optimized.to_json_obj(meta=meta), indent=2) + "\n",
    )

    header = ["iter", "temperature", "penalty", "mu2", "feasible", "accepted"]
    with_phase = method == "greedy"
    if with_phase:
        header.append("phase")
    rows = []
    for row in result.trace:
        cells = [row.iteration, row.temperature, row.penalty, row.mu2, row.feasible, row.accepted]
        if with_phase:
            cells.append(row.phase)
        rows.append(cells)
    _emit(out_dir, "trace.csv", _csv(header, rows), to_stdout)
    return ["result.json", "trace.csv"]


def _run_attack(params: dict, out_dir: Path, to_stdout: bool) -> list[str]:
    inst = load_instance(params["input"], params["format"])
    if params.get("assignment"):
        source = load_instance(params["assignment"], "json")
        if source.agent_ids != inst.agent_ids or source.task_ids != inst.task_ids:
            raise UsageError("assignment file ids do not match the input instance")
        assignment = np.asarray(source.assignment)
    else:
        assignment = np.asarray(inst.assignment)
    if not 0 < params["m"] < inst.n_agents:
        raise UsageError("m must be between 1 and the number of agents minus 1")
    summary = attack_experiment(
        inst,
        assignment,
        m=params["m"],
        n_exp=params["n_exp"],
        seed=params["seed"],
        strategy=params["strategy"],
    )
    rows = []
    for i, run in enumerate(summary.runs):
        ids = ";".join(inst.agent_ids[a] for a in run.removed)
        rows.append([i, ids, run.patching_cost, run.unsatisfied_sum, run.success])
    _emit(
        out_dir,
        "attack_runs.csv",
        _csv(["run", "removed_ids", "patching_cost", "unsatisfied_sum", "success"], rows),
        to_stdout,
    )
    summary_rows = [
        ["patching_cost", summary.patching_cost_mean, summary.patching_cost_stderr, summary.n_runs],
        ["unsatisfied_sum", summary.unsatisfied_mean, summary.unsatisfied_stderr, summary.n_runs],
    ]
    _emit(
        out_dir,
        "attack_summary.csv",
        _csv(["metric", "mean", "stderr", "n_exp"], summary_rows),
        False,
    )
    return ["attack_runs.csv", "attack_summary.csv"]


def _check_at_least(params: dict, **lows: int) -> None:
    for name, low in lows.items():
        if params[name] < low:
            raise UsageError(f"--{name} must be at least {low}")


def _representative_indices(total: int, count: int) -> list[int]:
    if count > total:
        raise UsageError(f"asked for {count} representatives but only {total} hypergraphs exist")
    return sorted(set(int(round(x)) for x in np.linspace(0, total - 1, count)))


def _run_experiment(params: dict, out_dir: Path, to_stdout: bool) -> list[str]:
    kind = params["kind"]
    if kind == "enumerate":
        _check_at_least(params, nodes=0, edges=0)
        found = enumerate_small(params["nodes"], params["edges"], dedup=params["dedup"])
        # rows are written directly: _csv's per-cell type checks cost more than the rest
        label = {e: "-".join(map(str, e)) for e in {e for h in found for e in h.edges}}
        lines = ["rank,mu2,edges"]
        lines += [f"{rank},{h.mu2!r},{';'.join(label[e] for e in h.edges)}" for rank, h in enumerate(found, 1)]
        _emit(out_dir, "enumeration.csv", "\n".join(lines) + "\n", to_stdout)
        return ["enumeration.csv"]

    if kind == "scaling":
        fits, samples = scaling_experiment(
            tuple(params["schemes"]),
            tuple(params["sizes"]),
            params["reps"],
            params["seed"],
            coupled=params["coupled"],
        )
        _emit(
            out_dir,
            "scaling.csv",
            _csv(["scheme", "N_c", "rep", "mu2"], [list(s) for s in samples]),
            to_stdout,
        )
        fit_rows = [[f.scheme, f.exponent, f.intercept, f.r_squared] for f in fits]
        _emit(out_dir, "scaling_fit.csv", _csv(["scheme", "exponent", "intercept", "R2"], fit_rows), False)
        return ["scaling.csv", "scaling_fit.csv"]

    if kind == "budget-sweep":
        inst = load_instance(params["input"], params["format"])
        result = budget_sweep(
            inst,
            tuple(params["multipliers"]),
            tuple(params["sub_sizes"]),
            params["reps"],
            params["seed"],
        )
        point_rows = [
            [p.target_tasks, p.rep, p.multiplier, p.n_agents, p.n_tasks, p.mu2]
            for p in result.points
        ]
        _emit(
            out_dir,
            "budget_sweep.csv",
            _csv(["target_tasks", "rep", "multiplier", "n_agents", "n_tasks", "mu2"], point_rows),
            to_stdout,
        )
        fit_rows = [
            [c.multiplier, c.fit.exponent, c.fit.intercept, c.fit.r_squared]
            for c in result.curves
        ]
        _emit(out_dir, "budget_fit.csv", _csv(["multiplier", "exponent", "intercept", "R2"], fit_rows), False)
        return ["budget_sweep.csv", "budget_fit.csv"]

    if kind == "diffuse":
        _check_at_least(params, nodes=0, edges=0, representatives=1, steps=1)
        found = enumerate_small(params["nodes"], params["edges"])
        picked = _representative_indices(len(found), params["representatives"])
        instances = [to_instance(found[i].edges, params["nodes"]) for i in picked]
        times = np.linspace(0.0, params["t_max"], params["steps"])
        traces = diffusion_comparison(instances, times=times)
        outputs = []
        for j, trace in enumerate(traces):
            header = ["t"] + [f"x_{q}" for q in range(params["nodes"])]
            rows = [[t] + list(state) for t, state in zip(trace.times, trace.states)]
            name = f"diffusion_{j}.csv"
            _emit(out_dir, name, _csv(header, rows), to_stdout and j == 0)
            outputs.append(name)
            if params["representation"] == "bipartite":
                upper, lower = map(spectrum, bipartite.side_laplacians(instances[j]))
                n = len(upper)
                spec_rows = [[i, v, "agent"] for i, v in enumerate(upper)]
                spec_rows += [[n + i, v, "task"] for i, v in enumerate(lower)]
                spec_header = ["index", "eigenvalue", "mode"]
            else:
                eigenvalues = spectral_bundle(instances[j]).eigenvalues
                spec_rows = [[i, v] for i, v in enumerate(eigenvalues)]
                spec_header = ["index", "eigenvalue"]
            spec_name = f"spectrum_{j}.csv"
            _emit(out_dir, spec_name, _csv(spec_header, spec_rows), False)
            outputs.append(spec_name)
        return outputs

    raise UsageError(f"unknown experiment kind {kind!r}")


_DISPATCH = {
    "stats": _run_stats,
    "optimize": _run_optimize,
    "attack": _run_attack,
    "experiment": _run_experiment,
}


def _execute(command: str, params: dict, out_dir: Path, to_stdout: bool) -> int:
    inputs = {p: _sha256(p) for p in _input_paths(params)}
    start = time.monotonic()
    outputs = _DISPATCH[command](params, out_dir, to_stdout)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": params.get("seed"),
        "params": params,
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": round(time.monotonic() - start, 6),
    }
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    log.info("%s finished in %.3fs", command, manifest["duration_seconds"])
    if not to_stdout:
        for name in outputs + ["manifest.json"]:
            print(out_dir / name)
    return 0


# parsed names that route a run's output or dispatch it, and --config, which
# the manifest records merged and resolved as "optimizer"
_NOT_PARAMS = ("func", "command", "out", "stdout", "config")


def _cmd_run(args, **derived) -> int:
    """Run ``args.command`` with its parsed flags, by ``dest``, as its params.

    Input paths are made absolute so a rerun finds them from any directory;
    ``derived`` adds or overrides params that no flag names directly.
    """
    params = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMS}
    for key in ("input", "assignment"):
        if params.get(key):
            params[key] = str(Path(params[key]).resolve())
    params.update(derived)
    return _execute(args.command, params, Path(args.out), args.stdout)


def _cmd_stats(args) -> int:
    return _cmd_run(args, name=Path(args.input).stem)


def _cmd_optimize(args) -> int:
    config = {}
    if args.config:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
    cls = GreedyParams if args.method == "greedy" else CsaParams
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(config) - allowed
    if unknown:
        raise UsageError(
            f"config keys {sorted(unknown)} are not parameters of method {args.method}"
        )
    merged = dict(config)
    if args.seed is not None:
        merged["seed"] = args.seed
    merged.setdefault("seed", 0)
    if cls is CsaParams:
        objective = "bipartite" if args.method == "csa-bipartite" else "hypergraph"
        if "objective" in config and config["objective"] != objective:
            raise UsageError("pick the objective via --method, not the config file")
        merged["objective"] = objective
    try:
        resolved = dataclasses.asdict(cls(**merged))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad optimizer parameters: {exc}") from exc
    return _cmd_run(args, seed=resolved["seed"], optimizer=resolved)


def _cmd_rerun(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text())
        command = manifest["command"]
        params = manifest["params"]
        recorded = manifest.get("inputs", {})
    except (KeyError, ValueError) as exc:
        raise UsageError(f"unreadable manifest {manifest_path}: {exc}") from exc
    if command not in _DISPATCH:
        raise UsageError(f"manifest names unknown command {command!r}")
    if manifest.get("version") != __version__:
        log.warning(
            "manifest written by version %s, this is %s",
            manifest.get("version"),
            __version__,
        )
    for path, digest in recorded.items():
        if _sha256(path) != digest:
            print(f"error: input {path} changed since the manifest was written", file=sys.stderr)
            return 1
    out_dir = Path(args.out) if args.out else manifest_path.parent
    return _execute(command, params, out_dir, args.stdout)


def _add_common(parser, *, with_input: bool) -> None:
    if with_input:
        parser.add_argument("--input", required=True, metavar="PATH", help="instance file")
        parser.add_argument(
            "--format",
            choices=("json", "edgelist"),
            default=None,
            help="input format (default: inferred from the extension)",
        )
    parser.add_argument("--out", default=".", metavar="DIR", help="output directory")
    parser.add_argument(
        "--stdout", action="store_true", help="stream the primary CSV to stdout"
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperteam",
        description="Team-assignment hypergraphs: statistics, optimization, "
        "attack resilience, and structural experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="summary statistics of an instance")
    _add_common(stats, with_input=True)
    stats.set_defaults(func=_cmd_stats)

    optim = sub.add_parser("optimize", help="maximize algebraic connectivity")
    _add_common(optim, with_input=True)
    optim.add_argument(
        "--method", choices=("csa", "csa-bipartite", "greedy"), required=True
    )
    optim.add_argument(
        "--config",
        metavar="PATH",
        help="JSON object of optimizer parameters; flags override it",
    )
    optim.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    optim.set_defaults(func=_cmd_optimize)

    attack = sub.add_parser("attack", help="remove agents, patch, and summarize")
    _add_common(attack, with_input=True)
    attack.add_argument(
        "--assignment",
        metavar="PATH",
        help="result.json whose assignment to attack (default: the input's own)",
    )
    attack.add_argument(
        "--removals", "-m", dest="m", metavar="REMOVALS", type=int, default=4,
        help="agents removed per run",
    )
    attack.add_argument("--n-exp", type=int, default=10, help="number of runs")
    attack.add_argument("--strategy", choices=("random", "degree"), default="random")
    attack.add_argument("--seed", type=int, default=0)
    attack.set_defaults(func=_cmd_run)

    experiment = sub.add_parser("experiment", help="structural studies")
    kinds = experiment.add_subparsers(dest="kind", required=True)

    enum_p = kinds.add_parser("enumerate", help="all small connected hypergraphs")
    enum_p.add_argument("--nodes", type=int, default=5)
    enum_p.add_argument("--edges", type=int, default=3)
    enum_p.add_argument("--dedup", action="store_true", help="one representative per relabelling class")
    _add_common(enum_p, with_input=False)
    enum_p.set_defaults(func=_cmd_run)

    scaling = kinds.add_parser("scaling", help="community rewiring finite-size scaling")
    scaling.add_argument("--schemes", nargs="+", choices=SCHEMES, default=list(SCHEMES))
    scaling.add_argument("--sizes", nargs="+", type=int, default=[2, 3, 4, 5, 6, 7, 8])
    scaling.add_argument("--reps", type=int, default=30)
    scaling.add_argument("--seed", type=int, default=0)
    scaling.add_argument(
        "--fixed-communities",
        dest="coupled",
        action="store_false",
        help="keep 6x6 communities instead of tying size to count",
    )
    _add_common(scaling, with_input=False)
    scaling.set_defaults(func=_cmd_run)

    sweep = kinds.add_parser("budget-sweep", help="optimize under relaxed budgets")
    _add_common(sweep, with_input=True)
    sweep.add_argument("--multipliers", nargs="+", type=int, default=[1, 3, 5])
    sweep.add_argument("--sub-sizes", nargs="+", type=int, default=[4, 6, 9, 14])
    sweep.add_argument("--reps", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=_cmd_run)

    diffuse_p = kinds.add_parser("diffuse", help="diffusion on enumerated representatives")
    diffuse_p.add_argument("--nodes", type=int, default=5)
    diffuse_p.add_argument("--edges", type=int, default=3)
    diffuse_p.add_argument("--representatives", type=int, default=4)
    diffuse_p.add_argument("--t-max", type=float, default=40.0)
    diffuse_p.add_argument("--steps", type=int, default=401)
    diffuse_p.add_argument(
        "--representation", choices=("hypergraph", "bipartite"), default="hypergraph"
    )
    _add_common(diffuse_p, with_input=False)
    diffuse_p.set_defaults(func=_cmd_run)

    rerun = sub.add_parser("rerun", help="replay a run from its manifest")
    rerun.add_argument("manifest", help="path to a manifest.json")
    rerun.add_argument("--out", default=None, metavar="DIR", help="output directory (default: the manifest's)")
    rerun.add_argument("--stdout", action="store_true", help="stream the primary CSV to stdout")
    rerun.set_defaults(func=_cmd_rerun)

    return parser


def _setup_logging() -> None:
    name = os.environ.get("HYPERTEAM_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HyperteamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
