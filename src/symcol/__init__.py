"""Graph transformations, automorphism machinery, and coloring constructions.

The package is organized bottom-up:

- graphs: immutable Graph substrate, graph6 I/O, generators
- transforms: subdivision, central, middle, endline, line graph
- autos: automorphism groups as stabilizer chains, isomorphism search, lifting maps
- colorings: coloring containers and all property verifiers
- latin: idempotent commutative Latin squares
- families: exhaustive enumeration of small graphs up to isomorphism
- oracles: exact parameter search (distinguishing and chromatic variants)
- constructive: the coloring constructions, each verified on return
- cli: command-line front end
"""

from .errors import (
    BudgetExceededError,
    ConstructionDefectError,
    Graph6Error,
    NotApplicableError,
    SymcolError,
)
from .graphs import Graph, encode_graph6, parse_graph6

__all__ = [
    "Graph",
    "encode_graph6",
    "parse_graph6",
    "SymcolError",
    "Graph6Error",
    "NotApplicableError",
    "BudgetExceededError",
    "ConstructionDefectError",
]

__version__ = "0.1.0"
