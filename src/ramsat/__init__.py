"""Ramsey numbers and clique-avoiding edge colorings via an embedded SAT solver.

The pipeline: a complete graph (optionally minus deleted edges) is encoded
as CNF over one variable per edge, a deterministic DPLL solver decides it
together with lex-leader symmetry-breaking clauses, and models decode
back into red/blue colorings with no red K_s and no blue K_t.  On top sit
the classical-Ramsey-number search, the twin-vertex extension that colors
K_p minus one edge from a good coloring of K_{p-1}, and the
minimal-deletion search.
"""

from .cnf import CnfFormula, decode, encode, export_dimacs
from .coloring import Color, EdgeColoring, Verdict, is_good
from .document import ColoringDocument
from .dpll import DEFAULT_DECISION_BUDGET, SolveResult, SolveStatus, solve
from .errors import (
    BudgetExceededError,
    DocumentError,
    RamsatError,
    TheoremViolationError,
)
from .graphs import DeletedEdgeGraph, Edge, edge, edge_count
from .search import (
    Decision,
    RamseyResult,
    decide,
    extend_coloring,
    good_coloring,
    min_deletions,
    ramsey_number,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CnfFormula",
    "Color",
    "ColoringDocument",
    "DEFAULT_DECISION_BUDGET",
    "Decision",
    "DeletedEdgeGraph",
    "DocumentError",
    "Edge",
    "EdgeColoring",
    "RamsatError",
    "RamseyResult",
    "SolveResult",
    "SolveStatus",
    "TheoremViolationError",
    "Verdict",
    "decide",
    "decode",
    "edge",
    "edge_count",
    "encode",
    "export_dimacs",
    "extend_coloring",
    "good_coloring",
    "is_good",
    "min_deletions",
    "ramsey_number",
    "solve",
]
