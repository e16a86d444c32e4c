"""Team assignment on weighted hypergraphs.

Agents spend integer energy units on tasks; the resulting incidence matrix
defines a random walk whose Laplacian measures how well information flows
through the team. This package builds those spectral objects, optimizes
assignments for algebraic connectivity under budget and energy constraints
(simulated annealing and a greedy baseline), simulates agent-removal attacks
with local patching, and runs the structural experiments around them.
"""

from .bipartite import bipartite_connectivity, bipartite_laplacian, side_laplacians
from .csa import (
    CsaParams,
    OptimizationResult,
    TraceRow,
    anneal,
    evaluate,
    factor_metrics,
    initialize_assignment,
    perturb,
    random_feasible_assignment,
)
from .errors import (
    ConvergenceError,
    DegreeError,
    DisconnectedError,
    FormatError,
    HyperteamError,
    InfeasibleError,
    ReducibleChainError,
    StallError,
)
from .experiments import (
    SCHEMES,
    BudgetCurve,
    BudgetPoint,
    BudgetSweepResult,
    CommunitySpec,
    DiffusionTrace,
    PowerLawFit,
    ScalingFit,
    SmallHypergraph,
    budget_sweep,
    build_communities,
    diffusion_comparison,
    enumerate_small,
    fit_power_law,
    rewire,
    scaling_experiment,
    to_instance,
)
from .greedy import GreedyParams, centralized_init, greedy_optimize, phase1, phase2
from .instance import (
    ProblemInstance,
    StatsRecord,
    ValidationReport,
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
from .resilience import (
    AttackResult,
    ExperimentSummary,
    attack_experiment,
    gain,
    patch,
    remove_agents,
)
from .seeds import substream
from .spectral import (
    EDVWMatrices,
    SpectralBundle,
    build_matrices,
    diffuse,
    laplacian,
    mu2_batch,
    mu2_of_assignment,
    spectral_bundle,
    spectrum,
    stationary_distribution,
    transition_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HyperteamError",
    "FormatError",
    "DegreeError",
    "DisconnectedError",
    "InfeasibleError",
    "ConvergenceError",
    "ReducibleChainError",
    "StallError",
    # instance
    "ProblemInstance",
    "ValidationReport",
    "StatsRecord",
    "validate",
    "is_connected",
    "bipartite_components",
    "reaches_all",
    "co_membership_graph",
    "summary_stats",
    "parse_instance_json",
    "parse_edge_list",
    "load_instance",
    "save_instance",
    # spectral
    "EDVWMatrices",
    "SpectralBundle",
    "build_matrices",
    "transition_matrix",
    "stationary_distribution",
    "laplacian",
    "spectrum",
    "diffuse",
    "spectral_bundle",
    "mu2_of_assignment",
    "mu2_batch",
    # bipartite
    "bipartite_laplacian",
    "bipartite_connectivity",
    "side_laplacians",
    # optimizers
    "CsaParams",
    "TraceRow",
    "OptimizationResult",
    "anneal",
    "evaluate",
    "perturb",
    "initialize_assignment",
    "random_feasible_assignment",
    "factor_metrics",
    "GreedyParams",
    "centralized_init",
    "phase1",
    "phase2",
    "greedy_optimize",
    # resilience
    "AttackResult",
    "ExperimentSummary",
    "remove_agents",
    "patch",
    "attack_experiment",
    "gain",
    # experiments
    "SCHEMES",
    "CommunitySpec",
    "SmallHypergraph",
    "DiffusionTrace",
    "PowerLawFit",
    "ScalingFit",
    "BudgetPoint",
    "BudgetCurve",
    "BudgetSweepResult",
    "enumerate_small",
    "to_instance",
    "diffusion_comparison",
    "build_communities",
    "rewire",
    "scaling_experiment",
    "budget_sweep",
    "fit_power_law",
    # seeds
    "substream",
]
