"""Out-of-program tracing of the hyperteam layers.

``Tracer.install`` wraps the public functions of each traced module and puts
each wrapper in place of the original in every ``hyperteam`` module namespace
that holds the original object: ``cli``, ``csa``, ``greedy``, ``experiments``
and ``resilience`` import functions by name, so patching only the defining
module would miss those calls. Nothing under ``src/`` is edited.

Every wrapped call records one span ``[name, start, end, parent]`` in memory.
A layer's self time is its span's duration minus the durations of its direct
child spans; calls are single-threaded, so children never overlap. Work the
tracer itself does after a call (residuals, counters) runs inside a
``trace.hook`` span so it is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# Modules whose public functions are wrapped: ``__all__`` where a module
# defines it, otherwise every non-underscore function it defines.
MODULES = (
    "instance",
    "spectral",
    "bipartite",
    "csa",
    "greedy",
    "resilience",
    "experiments",
    "cli",
)

# Functions the per-layer metrics name. A rename or removal in the package
# must surface as a missing layer, never as a silent zero.
LAYERS = (
    "instance.load_instance",
    "instance.parse_instance_json",
    "instance.bipartite_components",
    "instance.co_membership_graph",
    "spectral.transition_matrix",
    "spectral.stationary_distribution",
    "spectral.laplacian",
    "spectral.spectrum",
    "spectral.mu2_of_assignment",
    "spectral.spectral_bundle",
    "bipartite.bipartite_laplacian",
    "csa.perturb",
    "csa.anneal",
    "greedy.centralized_init",
    "greedy.phase1",
    "greedy.phase2",
    "greedy.greedy_optimize",
    "resilience.remove_agents",
    "resilience.patch",
    "experiments.enumerate_small",
    "cli.main",
)

PACKAGE = "hyperteam"
HOOK = "trace.hook"


class MissingLayerError(RuntimeError):
    """A function the benchmark reports on no longer exists in the package."""


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` (re-exports excluded)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Span recorder that patches the package from outside."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, object] = {}  # layer name -> wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals: dict[int, tuple[str, object]] = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (f"{short}.{name}", fn)
        found = {name for name, _ in originals.values()}
        missing = [layer for layer in LAYERS if layer not in found]
        if missing:
            raise MissingLayerError(f"layers not found in {PACKAGE}: {', '.join(missing)}")
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for layer_name, fn in originals.values():
            self.wrapped[layer_name] = wrappers[id(fn)]
        # ``originals`` keeps every wrapped function alive, so an id match
        # is the function itself
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.partition(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                with self.span(HOOK):
                    hook(self, args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around benchmark code."""
        return _Span(self, name)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self, start: int = 0, stop: int | None = None):
        """(calls per name, self seconds per name) over spans[start:stop].

        The range must hold whole subtrees, such as one op span and the
        spans recorded inside it.
        """
        spans = self.spans[start:stop]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, t0, t1, _), inner in zip(spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - inner)
        return calls, self_s

    def roots(self) -> list[int]:
        """Indices of the top-level spans, in recording order."""
        return [i for i, span in enumerate(self.spans) if span[3] < 0]

    def calls_under(self, name: str, parents: tuple[str, ...]) -> int:
        """Calls of ``name`` whose direct parent span is one of ``parents``."""
        spans = self.spans
        return sum(
            1
            for span in spans
            if span[0] == name and span[3] >= 0 and spans[span[3]][0] in parents
        )

    def write(self, path) -> None:
        """Dump the spans as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t._stack[-1] if t._stack else -1])
        t._stack.append(self.idx)
        t.spans[self.idx][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = time.perf_counter()
        t._stack.pop()


# -- per-call hooks: counters measured where the work happens ------------


def _spectrum_hook(tracer: Tracer, args, kwargs, result) -> None:
    L = args[0] if args else kwargs["L"]
    n = np.shape(L)[0]
    tracer.count("spectral.spectrum.bytes_computed", 8.0 * n * n)


def _stationary_hook(tracer: Tracer, args, kwargs, result) -> None:
    P = np.asarray(args[0] if args else kwargs["P"], dtype=np.float64)
    tracer.peak("spectral.stationary_distribution.dim_max", float(P.shape[0]))
    residual = float(np.abs(result @ P - result).sum())
    tracer.peak("spectral.stationary_distribution.residual_max", residual)


def _anneal_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("csa.iterations", result.iterations_run)
    tracer.count("csa.accepted", sum(1 for row in result.trace[1:] if row.accepted))


def _greedy_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("greedy.steps", result.iterations_run)


_HOOKS = {
    "spectral.spectrum": _spectrum_hook,
    "spectral.stationary_distribution": _stationary_hook,
    "csa.anneal": _anneal_hook,
    "greedy.greedy_optimize": _greedy_hook,
}
