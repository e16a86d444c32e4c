"""Exception types shared across the package."""

__all__ = [
    "HyperteamError",
    "FormatError",
    "DegreeError",
    "DisconnectedError",
    "InfeasibleError",
    "ConvergenceError",
    "ReducibleChainError",
    "StallError",
]


class HyperteamError(Exception):
    """Base class for all package-specific errors."""


class FormatError(HyperteamError, ValueError):
    """Malformed or inconsistent input data."""


class DegreeError(HyperteamError, ValueError):
    """An agent belongs to no task, or a task has no agents."""


class DisconnectedError(HyperteamError, ValueError):
    """The operation requires a connected hypergraph."""


class InfeasibleError(HyperteamError, ValueError):
    """Total budget cannot cover total energy demand."""


class ConvergenceError(HyperteamError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class ReducibleChainError(ConvergenceError):
    """A Markov chain has no unique stationary distribution: it is reducible."""


class StallError(HyperteamError, RuntimeError):
    """The greedy optimizer ran out of admissible moves."""
