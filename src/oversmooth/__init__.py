"""Numerical laboratory for linearized message-passing dynamics.

Subpackages: graph construction (graphio), dense spectral tools
(spectral), equitable partitions (partition), layer dynamics (layers),
collapse measures (metrics), proposition checks (propcheck), and the
command-line driver (cli).
"""

from .errors import (ContractError, DegenerateColumnError, DomainError,
                     OversmoothError, ParseError)
from .graphio import (Graph, OperatorMatrix, build_operator, center_operator,
                      gen_graph, make_graph, parse_edge_list)
from .layers import LayerConfig, WeightSpec, run_trajectory
from .metrics import MetricObserver, dirichlet, mu
from .partition import quotient, split_eigenpairs, wl_refine
from .spectral import EigenSystem, centered_eig, numerical_rank, symmetric_eig

__version__ = "0.1.0"

__all__ = [
    "ContractError", "DegenerateColumnError",
    "DomainError", "OversmoothError", "ParseError",
    "Graph", "OperatorMatrix", "build_operator", "center_operator",
    "gen_graph", "make_graph", "parse_edge_list",
    "LayerConfig", "WeightSpec", "run_trajectory",
    "MetricObserver", "dirichlet", "mu",
    "quotient", "split_eigenpairs", "wl_refine",
    "EigenSystem", "centered_eig", "numerical_rank", "symmetric_eig",
    "__version__",
]
