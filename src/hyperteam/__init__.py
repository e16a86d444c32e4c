"""Team assignment on weighted hypergraphs.

Agents spend integer energy units on tasks; the resulting incidence matrix
defines a random walk whose Laplacian measures how well information flows
through the team. This package builds those spectral objects, optimizes
assignments for algebraic connectivity under budget and energy constraints
(simulated annealing and a greedy baseline), simulates agent-removal attacks
with local patching, and runs the structural experiments around them.
"""

from . import bipartite, csa, errors, experiments, greedy, instance, resilience, seeds, spectral
from .errors import *
from .instance import *
from .bipartite import *
# after bipartite: both export mu2_of_assignment, and the package's is the
# EDVW objective; the bipartite one stays bipartite.mu2_of_assignment
from .spectral import *
from .csa import *
from .greedy import *
from .resilience import *
from .experiments import *
from .seeds import *

__version__ = "0.1.0"

_REEXPORTED = (errors, instance, spectral, bipartite, csa, greedy, resilience, experiments, seeds)
__all__ = list(dict.fromkeys(["__version__", *(name for m in _REEXPORTED for name in m.__all__)]))
