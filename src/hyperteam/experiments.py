"""Structural studies: exhaustive small-hypergraph enumeration, community
rewiring with finite-size scaling, and the budget-multiplier sweep.

The community experiments start from isolated complete blocks (every node in
every hyperedge of its community) and connect them with a fixed number of
weight-conserving assignment swaps, so every rewired hypergraph satisfies
the same budget and energy constraints as the original. Four connection
schemes are supported:

* ``one_node``: a centroid node trades one home membership with a random
  node in each other community, ending up with a foothold everywhere.
* ``one_edge``: a centroid hyperedge trades one of its original members to
  each other community for one of theirs.
* ``head2tail``: one swap between each pair of consecutive communities,
  producing a chain.
* ``random``: uniformly random inter-community swaps, resampled whole until
  the result is connected.

Both the scaling study and the budget sweep report a ``Curve`` per scheme or
multiplier: the mean and spread of mu2 at each x, and a ``PowerLawFit`` of
the means whose ``exponent`` is the raw log-log slope. The decay exponent
a = -slope is applied only where the CLI writes ``scaling_fit.csv``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, combinations

import numpy as np

from .errors import ConvergenceError
from .greedy import GreedyParams, greedy_optimize
from .instance import ProblemInstance, bipartite_components, reaches_all
from .seeds import substream
from .spectral import batch_rows, diffuse, mu2_batch, spectral_bundle

__all__ = [
    "SCHEMES",
    "CommunitySpec",
    "SmallHypergraph",
    "Enumeration",
    "DiffusionTrace",
    "PowerLawFit",
    "Curve",
    "BudgetPoint",
    "BudgetSweepResult",
    "ENUMERATION_GUARD",
    "enumeration_size",
    "enumerate_small",
    "to_instance",
    "diffusion_comparison",
    "build_communities",
    "rewire",
    "scaling_experiment",
    "budget_sweep",
    "fit_power_law",
]

SCHEMES = ("one_node", "one_edge", "head2tail", "random")

_SWAP_RETRIES = 64
_REWIRE_RETRIES = 1000
# the most candidate edge sets enumerate_small scans
ENUMERATION_GUARD = 10**6
_SAMPLE_TRIES = 200


@dataclass(frozen=True)
class CommunitySpec:
    """Block layout for the community experiments.

    Communities are complete blocks: ``nodes_per_community`` agents all
    belonging to all ``edges_per_community`` tasks with unit weight.
    """

    n_communities: int
    nodes_per_community: int = 6
    edges_per_community: int = 6
    scheme: str = "random"

    def __post_init__(self) -> None:
        if self.n_communities < 2:
            raise ValueError("need at least 2 communities")
        if self.nodes_per_community < 2:
            raise ValueError("need at least 2 nodes per community")
        if self.edges_per_community < 1:
            raise ValueError("need at least 1 hyperedge per community")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")


# slots: rows that an Enumeration builds on access carry no __dict__
@dataclass(frozen=True, slots=True)
class SmallHypergraph:
    """One enumerated hypergraph: its edge sets and algebraic connectivity."""

    edges: tuple[tuple[int, ...], ...]
    mu2: float


@dataclass(frozen=True, eq=False)
class Enumeration(Sequence):
    """The ranked rows of ``enumerate_small`` as a read-only table.

    Row i has the edges ``subsets[s]`` for s in ``picks[i]`` and mu2 ``mu2[i]``; its
    ``SmallHypergraph`` is built when the row is indexed, sliced (into a list) or iterated.
    """

    subsets: tuple[tuple[int, ...], ...]  # every node subset of two or more nodes, by index
    picks: np.ndarray  # (rows, n_edges) subset indices, in rank order
    mu2: np.ndarray  # (rows,)

    def __post_init__(self) -> None:
        self.picks.flags.writeable = self.mu2.flags.writeable = False

    def __len__(self) -> int:
        return len(self.mu2)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return SmallHypergraph(tuple(self.subsets[s] for s in self.picks[index].tolist()), self.mu2[index].item())


@dataclass(frozen=True)
class DiffusionTrace:
    mu2: float
    times: np.ndarray
    states: np.ndarray  # len(times) x n_agents
    eigenvalues: np.ndarray  # the Laplacian's spectrum, ascending


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float  # slope of log y vs log x
    intercept: float
    r_squared: float
    stderr: float


@dataclass(frozen=True)
class Curve:
    """Mean and spread of mu2 at each x of a study, and the log-log fit of the means.

    ``fit.exponent`` is the raw slope, negative when connectivity decays with x.
    """

    label: str | int  # the scaling study's scheme or the budget sweep's multiplier
    xs: tuple[float, ...]
    mean_mu2: tuple[float, ...]
    std_mu2: tuple[float, ...]
    fit: PowerLawFit


def _curve(label: str | int, xs: Sequence[float], samples: Sequence[Sequence[float]]) -> Curve:
    """The curve of the mu2 ``samples`` taken at each x of ``xs``."""
    xs = tuple(map(float, xs))
    mean = tuple(float(np.mean(s)) for s in samples)
    std = tuple(float(np.std(s)) for s in samples)
    return Curve(label, xs, mean, std, fit_power_law(np.array(xs), np.array(mean)))


def _given_once(kind: str, values: Sequence) -> None:
    """Raise ``ValueError`` if ``values`` repeats one: its points would enter a fit twice."""
    if len(set(values)) < len(values):
        raise ValueError(f"each {kind} must be given once; got {tuple(values)}")


def _sorting_network(n: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort on any n inputs as compare-exchanges (i, j), i < j."""
    network, p = [], 1
    while p < n:
        k = p
        while k:
            network += [(i + j, i + j + k) for j in range(k % p, n - k, 2 * k) for i in range(min(k, n - j - k))
                        if (i + j) // (2 * p) == (i + j + k) // (2 * p)]
            k //= 2
        p *= 2
    return network


def _relabelling_classes(picks: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The least row of each row's node-relabelling class.

    ``picks`` lists every combination of the subsets in ``members`` in
    combination order, so a sorted pick's lexicographic rank is its row. Each
    adjacent transposition (v, v + 1) maps every row to the row of its image;
    these generate all relabellings, and their components are labelled by
    min-label propagation with pointer jumping, in work linear in rows x nodes.
    Each image is sorted by a compare-exchange network over its edge columns.
    """
    n_subsets, n_nodes = members.shape
    rows, n_edges = picks.shape
    masks = members.astype(np.intp) @ (1 << np.arange(n_nodes))
    subset_of = np.zeros(1 << n_nodes, dtype=np.intp)
    subset_of[masks] = np.arange(n_subsets)
    # rank = rows - 1 - sum_j comb(S - 1 - pick[j], E - j), capped where no pick reaches
    terms = np.array([[min(math.comb(n_subsets - 1 - s, n_edges - j), rows) for s in range(n_subsets)]
                      for j in range(n_edges)], dtype=np.intp)
    moves = []
    for v in range(n_nodes - 1):
        bit = ((masks >> v) ^ (masks >> (v + 1))) & 1
        swapped = subset_of[masks ^ (bit << v | bit << (v + 1))]
        image = [swapped[column] for column in picks.T]
        for i, j in _sorting_network(n_edges):
            image[i], image[j] = np.minimum(image[i], image[j]), np.maximum(image[i], image[j])
        moves.append(rows - 1 - sum(terms[j][column] for j, column in enumerate(image)))
    cls, grown = None, np.arange(rows)
    while not np.array_equal(grown, cls):
        cls = grown
        for move in moves:
            grown = np.minimum(grown, grown[move])
        grown = grown[grown]
    return cls


def enumeration_size(n_nodes: int, n_edges: int) -> int:
    """Candidate edge sets that ``enumerate_small`` scans.

    Each is a set of ``n_edges`` distinct subsets of two or more of the
    ``n_nodes`` nodes. Counted without listing them, so a size far past
    ``ENUMERATION_GUARD`` is refused at once.
    """
    if n_nodes < 0 or n_edges < 0:
        raise ValueError("n_nodes and n_edges must be >= 0")
    return math.comb(2**n_nodes - n_nodes - 1, n_edges)


def enumerate_small(
    n_nodes: int = 5,
    n_edges: int = 3,
    *,
    dedup: bool = False,
) -> Enumeration:
    """All connected hypergraphs with the given node and edge counts, as a table.

    Hyperedges are distinct node subsets of cardinality two or more; every
    membership carries weight 1, budgets and energies are the row and column
    sums. Only single-component hypergraphs that touch every node survive
    the filter. Sorted by ``(-mu2, edges)``, highest connectivity first.

    Relabelling nodes keeps connectivity and mu2, so each node-relabelling
    class is tested and scored once, on its first member in combination
    order: its members tie bit for bit and are ordered by ``edges``. With
    ``dedup`` set, only each class's first row, its least edge tuple, is kept.
    The rows are held as arrays and built only when read (``Enumeration``).
    """
    n_candidates = enumeration_size(n_nodes, n_edges)
    if n_candidates > ENUMERATION_GUARD:
        raise ValueError(
            f"{n_candidates} candidate edge sets exceeds the enumeration guard "
            f"({ENUMERATION_GUARD}); reduce n_nodes or n_edges"
        )
    if n_candidates == 0 or n_edges == 0:
        # no candidates, or only the empty edge set, which connects nothing
        return Enumeration((), np.zeros((0, n_edges), dtype=np.intp), np.zeros(0))
    subsets = tuple(s for r in range(2, n_nodes + 1) for s in combinations(range(n_nodes), r))
    members = np.zeros((len(subsets), n_nodes), dtype=np.int8)
    for s, subset in enumerate(subsets):
        members[s, list(subset)] = 1
    combos = combinations(range(len(subsets)), n_edges)
    picks = np.fromiter(chain.from_iterable(combos), dtype=np.intp).reshape(-1, n_edges)
    cls = _relabelling_classes(picks, members)
    reps = np.flatnonzero(cls == np.arange(len(cls)))
    stack = np.swapaxes(members[picks[reps]], 1, 2)  # (class, node, edge)
    connected = reaches_all(stack > 0)
    reps, stack = reps[connected], stack[connected]
    scored = np.zeros(len(picks))
    scored[reps] = mu2_batch(stack.sum(axis=1), stack)
    keep = np.isin(cls, reps)
    picks, cls = picks[keep], cls[keep]
    mu2 = scored[cls]
    # highest mu2 first, then by edges as tuples compare them: a pick lists
    # its subsets in index order, and a subset's rank in tuple order is not
    # its index, since (0, 1, 2) precedes (0, 2)
    tuple_rank = np.empty(len(subsets), dtype=np.intp)
    tuple_rank[sorted(range(len(subsets)), key=subsets.__getitem__)] = np.arange(len(subsets))
    ranked = tuple_rank[picks]
    order = np.lexsort([ranked[:, e] for e in reversed(range(n_edges))] + [-mu2])
    if dedup:
        _, first = np.unique(cls[order], return_index=True)
        order = order[np.sort(first)]
    return Enumeration(subsets, picks[order], mu2[order])


def _unit_instance(assignment: np.ndarray, agent: str, task: str) -> ProblemInstance:
    """The instance of an assignment whose budgets and energies are its row and column sums."""
    return ProblemInstance(
        agent_ids=tuple(f"{agent}{i}" for i in range(assignment.shape[0])),
        budgets=assignment.sum(axis=1),
        task_ids=tuple(f"{task}{k}" for k in range(assignment.shape[1])),
        energies=assignment.sum(axis=0),
        assignment=assignment,
    )


def to_instance(edges: tuple[tuple[int, ...], ...], n_nodes: int) -> ProblemInstance:
    """Materialize an enumerated edge set as a unit-weight instance."""
    assignment = np.zeros((n_nodes, len(edges)), dtype=np.int64)
    for k, edge in enumerate(edges):
        assignment[list(edge), k] = 1
    return _unit_instance(assignment, "n", "e")


def diffusion_comparison(
    instances: list[ProblemInstance],
    x0: np.ndarray | None = None,
    times: np.ndarray | None = None,
) -> list[DiffusionTrace]:
    """Diffuse the same initial state on each instance.

    All instances must have the same number of agents. ``x0`` defaults to a
    unit impulse on the first agent and ``times`` to a uniform grid on
    [0, 40]. For a connected instance the states converge to mean(x0).
    """
    if not instances:
        return []
    n = instances[0].n_agents
    if any(inst.n_agents != n for inst in instances):
        raise ValueError("all instances must share the same agent count")
    if x0 is None:
        x0 = np.zeros(n)
        x0[0] = 1.0
    x0 = np.asarray(x0, dtype=np.float64)
    if times is None:
        times = np.linspace(0.0, 40.0, 401)
    times = np.asarray(times, dtype=np.float64)
    traces = []
    for inst in instances:
        bundle = spectral_bundle(inst)
        states = diffuse(bundle.L, x0, times)
        traces.append(
            DiffusionTrace(
                mu2=float(bundle.eigenvalues[1]),
                times=times,
                states=states,
                eigenvalues=bundle.eigenvalues,
            )
        )
    return traces


def build_communities(spec: CommunitySpec) -> ProblemInstance:
    """Isolated complete communities; intentionally disconnected."""
    block = np.ones((spec.nodes_per_community, spec.edges_per_community), dtype=np.int64)
    return _unit_instance(np.kron(np.eye(spec.n_communities, dtype=np.int64), block), "a", "t")


def _pick_membership(
    a: np.ndarray, rng: np.random.Generator, tasks: np.ndarray
) -> tuple[int, int]:
    """Uniform (agent, task) membership with the task drawn from ``tasks``."""
    rows, cols = np.nonzero(a[:, tasks])
    if len(rows) == 0:
        raise ConvergenceError("no membership available to swap")
    j = rng.integers(len(rows))
    return int(rows[j]), int(tasks[cols[j]])


def _attempt_rewire(
    base: np.ndarray, spec: CommunitySpec, rng: np.random.Generator
) -> np.ndarray:
    """One swap per link c = 1..n_c-1; the scheme's ``draw(c)`` proposes it.

    A proposal (u, e, v, f) moves u from task e to f and v from f to e; an
    illegal one is redrawn up to ``_SWAP_RETRIES`` times.
    """
    a = base.copy()
    n_c = spec.n_communities
    k_c = spec.edges_per_community
    home = [np.arange(c * k_c, (c + 1) * k_c) for c in range(n_c)]  # tasks per community

    if spec.scheme == "one_node":
        if spec.edges_per_community < n_c - 1:
            raise ValueError(
                "one_node needs at least n_communities - 1 hyperedges per "
                "community: the centroid node donates one home membership "
                "per other community"
            )

        def draw(c):
            donatable = home[0][a[0, home[0]] > 0]
            e = int(donatable[rng.integers(len(donatable))])
            return (0, e, *_pick_membership(a, rng, home[c]))

    elif spec.scheme == "one_edge":
        if spec.nodes_per_community < n_c - 1:
            raise ValueError(
                "one_edge needs at least n_communities - 1 nodes per "
                "community: the centroid edge trades away one original "
                "member per other community"
            )
        first_block = np.arange(spec.nodes_per_community)

        def draw(c):
            original = first_block[a[first_block, 0] > 0]
            u = int(original[rng.integers(len(original))])
            return (u, 0, *_pick_membership(a, rng, home[c]))

    elif spec.scheme == "head2tail":

        def draw(c):
            return (*_pick_membership(a, rng, home[c - 1]), *_pick_membership(a, rng, home[c]))

    else:  # random

        def draw(c):
            ca, cb = rng.choice(n_c, size=2, replace=False)
            return (*_pick_membership(a, rng, home[ca]), *_pick_membership(a, rng, home[cb]))

    for c in range(1, n_c):
        for _ in range(_SWAP_RETRIES):
            u, e, v, f = draw(c)
            if u != v and e != f and a[u, f] == 0 and a[v, e] == 0:
                a[u, e] -= 1
                a[u, f] += 1
                a[v, f] -= 1
                a[v, e] += 1
                break
        else:
            raise ConvergenceError(f"{spec.scheme} swap retries exhausted")
    return a


def rewire(
    inst: ProblemInstance, spec: CommunitySpec, rng: np.random.Generator
) -> ProblemInstance:
    """Connect the communities with exactly n_communities - 1 swaps.

    Every swap exchanges two unit memberships, so row and column sums of the
    assignment are conserved exactly. The whole rewiring is resampled until
    the result is a single component (only the random scheme ever needs
    more than one attempt).
    """
    base = np.asarray(inst.assignment)
    for _ in range(_REWIRE_RETRIES):
        a = _attempt_rewire(base, spec, rng)
        if __debug__:
            assert np.array_equal(a.sum(axis=1), base.sum(axis=1))
            assert np.array_equal(a.sum(axis=0), base.sum(axis=0))
        if reaches_all(a > 0):
            return inst.with_assignment(a)
    raise ConvergenceError(
        f"no connected rewiring found in {_REWIRE_RETRIES} attempts "
        f"(scheme={spec.scheme}, n_communities={spec.n_communities})"
    )


def scaling_experiment(
    schemes: tuple[str, ...] = SCHEMES,
    sizes: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    reps: int = 30,
    seed: int = 0,
    *,
    coupled: bool = True,
) -> tuple[list[Curve], list[tuple[str, int, int, float]]]:
    """Finite-size scaling of connectivity under each rewiring scheme.

    In coupled mode (the default) the community size tracks the community
    count: size N_c means N_c communities of N_c nodes and N_c hyperedges.
    Otherwise communities stay at the fixed 6x6 layout. Returns one ``Curve``
    per scheme, labelled by the scheme over the sizes, plus every raw
    (scheme, size, rep, mu2) sample. Its fit runs on per-size means of mu2
    against N_c in log-log space, and ``fit.exponent`` is the raw slope; the
    CLI's ``scaling_fit.csv`` writes the decay exponent a = -slope, so a > 0
    means connectivity decays with size.
    Each (scheme, size) layout is built once. Its reps are rewired from it,
    each from its own substream, and scored as stacks by ``mu2_batch`` in
    pieces of ``batch_rows(N, K)``: a rewiring is connected and keeps every
    row and column sum, so every rep has the layout's energies.
    Reps below 1, a size below 2, under 3 distinct sizes, or a size or
    scheme given twice raise ValueError first: sizes and schemes are distinct.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if min(sizes, default=0) < 2 or len(set(sizes)) < 3:
        raise ValueError(f"scaling needs 3 or more distinct sizes, each >= 2; got {tuple(sizes)}")
    _given_once("size", sizes)
    _given_once("scheme", schemes)
    samples: list[tuple[str, int, int, float]] = []
    curves = []
    for scheme in schemes:
        per_size = []
        for size in sizes:
            spec = CommunitySpec(size, size, size, scheme) if coupled else CommunitySpec(size, scheme=scheme)
            base = build_communities(spec)
            step = batch_rows(*base.assignment.shape)
            mu2: list[float] = []
            for lo in range(0, reps, step):
                stack = np.stack([
                    rewire(base, spec, substream(seed, "scaling", scheme, size, rep)).assignment
                    for rep in range(lo, min(lo + step, reps))
                ])
                mu2 += mu2_batch(np.broadcast_to(base.energies, (len(stack), base.n_tasks)), stack).tolist()
            samples += [(scheme, size, rep, m) for rep, m in enumerate(mu2)]
            per_size.append(mu2)
        curves.append(_curve(scheme, sizes, per_size))
    return curves, samples


@dataclass(frozen=True)
class BudgetPoint:
    target_tasks: int
    rep: int
    multiplier: int
    n_agents: int
    n_tasks: int
    mu2: float


@dataclass(frozen=True)
class BudgetSweepResult:
    points: tuple[BudgetPoint, ...]
    curves: tuple[Curve, ...]  # one per multiplier, over the mean agent counts


def _sample_subinstance(
    inst: ProblemInstance,
    n_tasks: int,
    rng: np.random.Generator,
) -> ProblemInstance:
    """Induced sub-instance whose agent count is close to 4x its task count.

    Draws a uniform task sample, takes the agents incident to it, keeps the
    largest connected component, and accepts when that component has at
    least two tasks and an agent count within 10% of four agents per task.
    """
    target, tol = 4, 0.1  # agents per task, relative window
    full = np.asarray(inst.assignment)
    ratios = []  # agents per task of each draw with two or more tasks
    for _ in range(_SAMPLE_TRIES):
        chosen = np.sort(rng.choice(inst.n_tasks, size=n_tasks, replace=False))
        sub = full[:, chosen]
        agents = np.flatnonzero(sub.any(axis=1))
        sub = sub[agents, :]
        _, agent_labels, task_labels = bipartite_components(sub > 0)
        # the first largest component
        labels = np.concatenate((agent_labels, task_labels))
        best = np.bincount(labels).argmax()
        keep_agents = agents[agent_labels == best]
        keep_tasks = chosen[task_labels == best]
        n_cc, k_cc = len(keep_agents), len(keep_tasks)
        if k_cc < 2:
            continue
        ratios.append(n_cc / k_cc)
        if abs(n_cc - target * k_cc) > tol * target * k_cc:
            continue
        return ProblemInstance(
            agent_ids=tuple(inst.agent_ids[i] for i in keep_agents),
            budgets=inst.budgets[keep_agents],
            task_ids=tuple(inst.task_ids[k] for k in keep_tasks),
            energies=inst.energies[keep_tasks],
            assignment=full[np.ix_(keep_agents, keep_tasks)],
        )
    if ratios:
        closest = min(ratios, key=lambda r: abs(r - target))
        reached = f"the closest draw with two or more tasks had {closest:.2f}"
    else:
        reached = "no draw had two or more tasks"
    raise ConvergenceError(
        f"no acceptable connected sub-hypergraph with {n_tasks} tasks "
        f"found in {_SAMPLE_TRIES} tries: the window is "
        f"{target * (1 - tol):g}-{target * (1 + tol):g} agents per task, and {reached}"
    )


def budget_sweep(
    inst: ProblemInstance,
    multipliers: tuple[int, ...] = (1, 3, 5),
    sub_sizes: tuple[int, ...] = (4, 6, 9, 14),
    reps: int = 10,
    seed: int = 0,
) -> BudgetSweepResult:
    """Optimize budget-relaxed sub-hypergraphs and track connectivity.

    For each target size and repetition one sub-hypergraph is sampled, then
    shared across all budget multipliers so the comparison is paired: only
    the budgets change between runs. Each multiplied sub-instance is
    optimized with the greedy algorithm and its final connectivity recorded.
    Each multiplier's ``Curve`` aggregates its points per size and fits mean
    connectivity against mean agent count; ``fit.exponent`` is the raw slope,
    which the CLI's ``budget_fit.csv`` writes as it is. Reps or a multiplier
    below 1, a size below 2 or above the task count, under 3 distinct sizes,
    or a size or multiplier given twice raise ``ValueError`` before any draw,
    in that order: sub-sizes and multipliers are distinct.
    """
    if reps < 1 or min(multipliers, default=1) < 1:
        raise ValueError(f"reps and multipliers must be >= 1; got {reps} and {tuple(multipliers)}")
    for size in sub_sizes:
        if not 2 <= size <= inst.n_tasks:
            raise ValueError(f"sub-size {size} is outside 2..{inst.n_tasks} tasks")
    if len(set(sub_sizes)) < 3:
        raise ValueError(f"budget sweep needs 3 or more distinct sub-sizes; got {tuple(sub_sizes)}")
    _given_once("sub-size", sub_sizes)
    _given_once("multiplier", multipliers)
    points: list[BudgetPoint] = []
    for size in sub_sizes:
        for rep in range(reps):
            rng = substream(seed, "sweep", size, rep)
            sample = _sample_subinstance(inst, size, rng)
            gseed = int(rng.integers(2**63))
            for beta in multipliers:
                relaxed = replace(sample, budgets=sample.budgets * beta)
                result = greedy_optimize(relaxed, GreedyParams(seed=gseed))
                points.append(
                    BudgetPoint(
                        target_tasks=size,
                        rep=rep,
                        multiplier=beta,
                        n_agents=sample.n_agents,
                        n_tasks=sample.n_tasks,
                        mu2=result.best_mu2,
                    )
                )
    curves = []
    for beta in multipliers:
        groups = [[p for p in points if p.multiplier == beta and p.target_tasks == size] for size in sub_sizes]
        mean_agents = [np.mean([p.n_agents for p in pts]) for pts in groups]
        curves.append(_curve(beta, mean_agents, [[p.mu2 for p in pts] for pts in groups]))
    return BudgetSweepResult(points=tuple(points), curves=tuple(curves))


def fit_power_law(xs: np.ndarray, ys: np.ndarray) -> PowerLawFit:
    """Least squares on (log x, log y); exponent is the raw slope."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need at least 3 paired points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    # on the logs, not their spread: three equal logs of 17 leave 5.9e-31
    # about their rounded mean, and distinct x near 1e300 can share a log
    if (lx == lx[0]).all():
        raise ValueError("all x values identical")
    n = len(lx)
    sxx = float(((lx - lx.mean()) ** 2).sum())
    slope = float(((lx - lx.mean()) * (ly - ly.mean())).sum() / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    ss_res = float((resid**2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    return PowerLawFit(
        exponent=slope, intercept=intercept, r_squared=r_squared, stderr=stderr
    )
