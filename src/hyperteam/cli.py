"""Command-line entry point.

Subcommands wire ingestion, the optimizers, attack simulations, and the
structural experiments into reproducible runs. Each command builds its
output files as an ordered ``{name: text}`` dict; ``_execute`` alone encodes
and writes them, plus a ``manifest.json`` recording the command, resolved
parameters, input digests, tool version and, in the order written, each
file's name and the sha256 of its bytes. Files appear together once the run
has built them all, so a run that fails writes none.
``hyperteam rerun manifest.json`` replays the run and compares each file it
builds with the recorded digest before writing any; a file that differs, or
a name missing or extra, fails the replay (exit 1) with nothing written. A
manifest whose ``outputs`` is a list of names, as older versions wrote it,
replays unchecked. A manifest whose params the command's flags would not
have parsed, by type, choices or presence, is refused as unreadable (exit 2)
before any input is hashed.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors. Set
``HYPERTEAM_LOG=debug|info|warning|error`` to control stderr logging. With
``--stdout`` the primary CSV, the run's first CSV file, streams to stdout and
nothing else does.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__, bipartite
from .csa import CsaParams, anneal
from .errors import DegreeError, HyperteamError, ReducibleChainError
from .experiments import (
    ENUMERATION_GUARD,
    SCHEMES,
    budget_sweep,
    diffusion_comparison,
    enumerate_small,
    enumeration_size,
    scaling_experiment,
    to_instance,
)
from .greedy import GreedyParams, greedy_optimize
from .instance import load_instance, summary_stats
from .resilience import attack_experiment, gain
from .spectral import mu2_of_assignment, spectrum

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


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_paths(params: dict) -> list[str]:
    return [params[key] for key in ("input", "assignment") if params.get(key)]


def _run_stats(params: dict) -> dict[str, str]:
    inst = load_instance(params["input"], params["format"])
    rec = summary_stats(inst)
    header = ["name", "N", "K", "mean_budget", "mean_energy", "Tbar", "Abar", "Ahat"]
    row = [
        params["name"],
        rec.n_agents,
        rec.n_tasks,
        rec.mean_budget,
        rec.mean_energy,
        rec.tasks_per_agent,
        rec.agents_per_task,
        rec.teammates_per_agent,
    ]
    return {"stats.csv": _csv(header, [row])}


def _run_optimize(params: dict) -> dict[str, str]:
    inst = load_instance(params["input"], params["format"])
    method = params["method"]
    if method == "greedy":
        result = greedy_optimize(inst, GreedyParams(**params["optimizer"]))
    else:
        result = anneal(inst, CsaParams(**params["optimizer"]))

    # the input is scored with the run's own objective, so gain compares like
    # with like; the objective's degree check and solve reject a split input
    mu2_of = bipartite.mu2_of_assignment if method == "csa-bipartite" else mu2_of_assignment
    try:
        mu2_original = mu2_of(inst.energies, inst.assignment)
    except (DegreeError, ReducibleChainError):
        mu2_original = None
    # a run that met no connected state scores nan and -inf, which JSON lacks
    mu2, penalty = (x if math.isfinite(x) else None for x in (result.best_mu2, result.best_penalty))
    meta = {
        "method": method,
        "seed": params["seed"],
        "params": params["optimizer"],
        "mu2": mu2,
        "penalty": penalty,
        "feasible": result.feasible,
        "iterations": result.iterations_run,
        "notes": list(result.notes),
        "mu2_original": mu2_original,
        "gain": gain(mu2, mu2_original) if mu2 is not None and mu2_original else None,
    }
    optimized = inst.with_assignment(result.best_assignment)

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
    return {
        "result.json": json.dumps(optimized.to_json_obj(meta=meta), indent=2, allow_nan=False) + "\n",
        "trace.csv": _csv(header, rows),
    }


def _run_attack(params: dict) -> dict[str, str]:
    _check_at_least(params, n_exp=1)
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
    summary_rows = [
        ["patching_cost", summary.patching_cost_mean, summary.patching_cost_stderr, summary.n_runs],
        ["unsatisfied_sum", summary.unsatisfied_mean, summary.unsatisfied_stderr, summary.n_runs],
    ]
    return {
        "attack_runs.csv": _csv(["run", "removed_ids", "patching_cost", "unsatisfied_sum", "success"], rows),
        "attack_summary.csv": _csv(["metric", "mean", "stderr", "n_exp"], summary_rows),
    }


def _check_at_least(params: dict, **lows: int) -> None:
    """Reject a count, or any entry of a list of counts, below its floor."""
    for name, low in lows.items():
        value = params[name]
        if (min(value) if isinstance(value, list) else value) < low:
            raise UsageError(f"--{name.replace('_', '-')} must be at least {low}")


def _check_enumeration_size(params: dict) -> None:
    """Reject --nodes and --edges whose enumeration exceeds the guard."""
    nodes, edges = params["nodes"], params["edges"]
    size = enumeration_size(nodes, edges)
    if size > ENUMERATION_GUARD:
        raise UsageError(
            f"--nodes {nodes} with --edges {edges} gives {size} candidate edge sets, "
            f"more than the {ENUMERATION_GUARD} enumeration allows; lower --nodes or --edges"
        )


def _representative_indices(total: int, count: int) -> list[int]:
    if count > total:
        raise UsageError(f"asked for {count} representatives but only {total} hypergraphs exist")
    return sorted(set(int(round(x)) for x in np.linspace(0, total - 1, count)))


def _run_experiment(params: dict) -> dict[str, str]:
    kind = params["kind"]
    if kind == "enumerate":
        _check_at_least(params, nodes=0, edges=0)
        _check_enumeration_size(params)
        table = enumerate_small(params["nodes"], params["edges"], dedup=params["dedup"])
        # from the arrays, not _csv: one label per subset, one repr per distinct mu2
        label = np.array(["-".join(map(str, s)) for s in table.subsets], dtype=object)
        values, which = np.unique(table.mu2, return_inverse=True)
        value = np.array([repr(m) for m in values.tolist()], dtype=object)[which].tolist()
        lines = ["rank,mu2,edges"]
        lines += [f"{i + 1},{value[i]},{';'.join(edges)}" for i, edges in enumerate(label[table.picks].tolist())]
        return {"enumeration.csv": "\n".join(lines) + "\n"}

    if kind == "scaling":
        _check_at_least(params, reps=1, sizes=2)
        curves, samples = scaling_experiment(
            tuple(params["schemes"]),
            tuple(params["sizes"]),
            params["reps"],
            params["seed"],
            coupled=params["coupled"],
        )
        # the decay exponent a = -slope, so a > 0 means connectivity decays with size
        fit_rows = [[c.label, -c.fit.exponent, c.fit.intercept, c.fit.r_squared] for c in curves]
        return {
            "scaling.csv": _csv(["scheme", "N_c", "rep", "mu2"], [list(s) for s in samples]),
            "scaling_fit.csv": _csv(["scheme", "exponent", "intercept", "R2"], fit_rows),
        }

    if kind == "budget-sweep":
        _check_at_least(params, reps=1, multipliers=1, sub_sizes=2)
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
        fit_rows = [[c.label, c.fit.exponent, c.fit.intercept, c.fit.r_squared] for c in result.curves]
        return {
            "budget_sweep.csv": _csv(["target_tasks", "rep", "multiplier", "n_agents", "n_tasks", "mu2"], point_rows),
            "budget_fit.csv": _csv(["multiplier", "exponent", "intercept", "R2"], fit_rows),
        }

    if kind == "diffuse":
        _check_at_least(params, nodes=0, edges=0, representatives=1, steps=1)
        if not 0 <= params["t_max"] < math.inf:
            raise UsageError("--t-max must be a finite number >= 0")
        _check_enumeration_size(params)
        found = enumerate_small(params["nodes"], params["edges"])
        picked = _representative_indices(len(found), params["representatives"])
        instances = [to_instance(found[i].edges, params["nodes"]) for i in picked]
        times = np.linspace(0.0, params["t_max"], params["steps"])
        traces = diffusion_comparison(instances, times=times)
        files = {}
        for j, trace in enumerate(traces):
            header = ["t"] + [f"x_{q}" for q in range(params["nodes"])]
            rows = [[t] + list(state) for t, state in zip(trace.times, trace.states)]
            files[f"diffusion_{j}.csv"] = _csv(header, rows)
            if params["representation"] == "bipartite":
                upper, lower = map(spectrum, bipartite.side_laplacians(instances[j]))
                n = len(upper)
                spec_rows = [[i, v, "agent"] for i, v in enumerate(upper)]
                spec_rows += [[n + i, v, "task"] for i, v in enumerate(lower)]
                spec_header = ["index", "eigenvalue", "mode"]
            else:
                spec_rows = [[i, v] for i, v in enumerate(trace.eigenvalues)]
                spec_header = ["index", "eigenvalue"]
            files[f"spectrum_{j}.csv"] = _csv(spec_header, spec_rows)
        return files

    raise UsageError(f"unknown experiment kind {kind!r}")


_DISPATCH = {
    "stats": _run_stats,
    "optimize": _run_optimize,
    "attack": _run_attack,
    "experiment": _run_experiment,
}


def _execute(
    command: str, params: dict, out_dir: Path, to_stdout: bool, expected: dict | None = None
) -> int:
    """Build the run's files, check a replay's against the ``expected`` digests, then write."""
    inputs = {p: _sha256(p) for p in _input_paths(params)}
    start = time.monotonic()
    files = _DISPATCH[command](params)
    data = {name: text.encode() for name, text in files.items()}
    outputs = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
    if expected is not None:
        moved = [name for name in {**expected, **outputs} if expected.get(name) != outputs.get(name)]
        if moved:
            raise HyperteamError(f"the replay differs from the manifest in {', '.join(moved)}; nothing was written")
    for name, blob in data.items():
        _atomic_write(out_dir / name, blob)
    if to_stdout:
        sys.stdout.write(next(text for name, text in files.items() if name.endswith(".csv")))
    manifest = {
        "command": command,
        "version": __version__,
        "seed": params.get("seed"),
        "params": params,
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": round(time.monotonic() - start, 6),
    }
    _atomic_write(out_dir / "manifest.json", (json.dumps(manifest, indent=2, allow_nan=False) + "\n").encode())
    log.info("%s finished in %.3fs", command, manifest["duration_seconds"])
    if not to_stdout:
        for name in [*files, "manifest.json"]:
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
        try:
            config = json.loads(Path(args.config).read_text())
        except ValueError as exc:
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}") from exc
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


# what each flag type parses into, as JSON hands it back
_FLAG_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"), None: (str, "a string")}


def _flag_fault(action: argparse.Action, value) -> str | None:
    """What ``value`` must be for ``action``'s flag to parse into it, or None if it is that."""
    if action.nargs == 0:  # store_true and store_false
        return None if isinstance(value, bool) else "true or false"
    if value is None and action.default is None and not action.required:
        return None
    types, what = _FLAG_TYPES[action.type]
    if action.choices is not None:
        what = f"one of {', '.join(action.choices)}"

    def parses(v) -> bool:
        return isinstance(v, types) and not isinstance(v, bool) and (action.choices is None or v in action.choices)

    if action.nargs == "+":
        if isinstance(value, list) and value and all(map(parses, value)):
            return None
        return f"a non-empty list, each {what}"
    return None if parses(value) else what


# params that no flag names, derived by ``_cmd_stats`` and ``_cmd_optimize``
_DERIVED = {"stats": ("name", str, "a string"), "optimize": ("optimizer", dict, "an object")}


def _check_params(command: str, params: dict) -> None:
    """``ValueError`` naming the first param that the command's flag would not have parsed.

    Each flag's param must be present, of the type its flag parses and among
    its choices; the derived ones must be present too, and the optimizer
    params must build the method's parameters. Params of flags that this
    version lacks are left alone, since older versions recorded them.
    """
    # a subcommand's action maps its names to their parsers in its choices
    commands = next(action for action in _parser()._actions if isinstance(action.choices, dict))
    actions = list(commands.choices[command]._actions)
    while actions:
        action = actions.pop(0)
        if action.dest in _NOT_PARAMS or action.default == argparse.SUPPRESS:
            continue
        if action.dest not in params:
            raise ValueError(f"params lack {action.dest}")
        value = params[action.dest]
        if (fault := _flag_fault(action, value)) is not None:
            raise ValueError(f"params {action.dest} must be {fault}, not {value!r}")
        if isinstance(action.choices, dict):  # the experiment kind, whose own flags come next
            actions += action.choices[value]._actions
    key, kind, what = _DERIVED.get(command, (None, object, None))
    if key is not None and not isinstance(params.get(key), kind):
        raise ValueError(f"params {key} must be {what}, not {params.get(key)!r}")
    if command == "optimize":
        try:
            (GreedyParams if params["method"] == "greedy" else CsaParams)(**params["optimizer"])
        except TypeError as exc:
            raise ValueError(f"params optimizer: {exc}") from exc


def _cmd_rerun(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text())
        if not isinstance(manifest, dict):
            raise ValueError("not a JSON object")
        command, params = manifest["command"], manifest["params"]
        recorded, outputs = manifest.get("inputs", {}), manifest.get("outputs", [])
        for key, value, kind in (
            ("command", command, str),
            ("params", params, dict),
            ("inputs", recorded, dict),
            ("outputs", outputs, (dict, list)),
        ):
            if not isinstance(value, kind):
                raise ValueError(f"{key} has the wrong type")
        if command not in _DISPATCH:
            raise UsageError(f"manifest names unknown command {command!r}")
        _check_params(command, params)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"unreadable manifest {manifest_path}: {exc}") from exc
    # older versions recorded the output names as a list, without digests
    if isinstance(outputs, list):
        log.warning("manifest %s records no output digests, so the replay is not checked", manifest_path)
        outputs = None
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
    return _execute(command, params, out_dir, args.stdout, expected=outputs)


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
    enum_p.add_argument("--dedup", action="store_true", help="one row per relabelling class: its least edge tuple")
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
