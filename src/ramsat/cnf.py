"""CNF encoding of the good-coloring problem.

One Boolean variable per present edge, true = red.  Every s-subset that is
a clique of the graph contributes the clause "not all its edges red"; every
t-subset clique contributes "not all its edges blue".  Subsets spanning a
deleted edge contribute nothing.  Models of the formula are exactly the
good colorings.

Degenerate cases fall out of the same rule: s = 1 makes every single
vertex a red clique with zero edges, so its clause is empty and the
formula is unsatisfiable on any graph with a vertex; K_0 has no vertex,
so its formula is empty and its one model is the empty coloring.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Mapping, NamedTuple

from .coloring import Color, EdgeColoring
from .graphs import (
    CheckedRecord,
    DeletedEdgeGraph,
    Edge,
    check_size,
    edge,
    subset_is_clique,
)


class _FormulaFields(NamedTuple):
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


class CnfFormula(CheckedRecord, _FormulaFields):
    """An immutable clause set in DIMACS conventions: variables 1..num_vars,
    literals signed integers.  In an encoding, variable v stands for the
    edge present_edges()[v-1] of the encoded graph."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: tuple[tuple[int, ...], ...]) -> CnfFormula:
        if num_vars < 0:
            raise ValueError("variable count must be non-negative")
        literals = set(chain.from_iterable(clauses))
        if 0 in literals:
            raise ValueError("0 is not a literal")
        top = max(map(abs, literals), default=0)
        if top > num_vars:
            raise ValueError(f"variable {top} outside 1..{num_vars}")
        for clause in clauses:
            if len(set(map(abs, clause))) < len(clause):
                raise ValueError("a variable appears twice in a clause")
        return super().__new__(cls, num_vars, clauses)


def encode(graph: DeletedEdgeGraph, s: int, t: int) -> CnfFormula:
    """Build the clause set whose models are the good colorings of graph.

    Clause order is fixed: all red-blocking clauses in subset order, then
    all blue-blocking clauses in subset order.  Identical inputs give
    identical formulas.  A size or an instance that `check_size` refuses
    raises ValueError before any clause is built.
    """
    check_size(graph.p, s, t)
    present = graph.present_edges()
    not_red = {e: -v for v, e in enumerate(present, start=1)}
    not_blue = {e: v for v, e in enumerate(present, start=1)}
    clauses = [
        tuple(map(literal.__getitem__, combinations(subset, 2)))
        for size, literal in ((s, not_red), (t, not_blue))
        for subset in combinations(range(graph.p), size)
        if subset_is_clique(graph, subset)
    ]
    return CnfFormula(len(present), tuple(clauses))


def symmetry_break(graph: DeletedEdgeGraph, formula: CnfFormula) -> CnfFormula:
    """The formula plus lex-leader clauses for swaps of twin vertices.

    Vertices i < j are twins when they have the same deleted neighbours,
    not counting each other; each vertex i is paired with the next twin j
    (on a complete graph, j = i+1).  For each pair, row i of the red
    adjacency matrix must be lexicographically at most row j (false <
    true), compared over the columns k other than i and j where both edges
    are present (where one is deleted, so is the other).  A chain of helper
    variables, numbered after the formula's, carries "the rows agree so
    far"; with e for the current one (true at the first column), e' for
    the next, and a, b for the two edges of a column, each column adds
    ¬e ∨ ¬a ∨ b, ¬e ∨ ¬a ∨ e' and ¬e ∨ b ∨ e' (the last column only the
    first).  Only these clauses are checked; the formula's already were.

    Soundness (Crawford, Ginsberg, Luks & Roy, KR 1996): the swap (i j) of
    twins maps {i, k} to {j, k} for every other k and fixes every other
    edge, so it maps the deleted edges onto themselves: it is an
    automorphism of K_p minus the deleted edges and maps good colorings to
    good colorings.  In the lexicographic edge order of the variables,
    {i, k} precedes {j, k}, and the {i, k} come in ascending k (for k < i
    both lie in row k; for k > i, {i, k} lies in row i and {j, k} later).
    So a coloring x and its image first differ at {i, k} for the first
    column k where rows i and j differ, where x has the color of {i, k}
    and the image that of {j, k}: the row comparison says exactly
    x <=lex (i j)(x).  The lex-least coloring of every orbit under the
    automorphisms satisfies that for every such swap, so the clauses
    remove no orbit: an unsatisfiable formula stays unsatisfiable, and the
    edge variables of any model are still a good coloring.
    """
    near = [
        {v for e in graph.deleted if i in e for v in e} - {i} for i in range(graph.p)
    ]
    var_of = {e: v for v, e in enumerate(graph.present_edges(), start=1)}
    num_vars = formula.num_vars
    added: list[tuple[int, ...]] = []
    for i in range(graph.p):
        twins = (k for k in range(i + 1, graph.p) if near[i] - {k} == near[k] - {i})
        j = next(twins, None)
        if j is None:
            continue
        pairs = [
            (var_of[edge(i, k)], var_of[edge(j, k)])
            for k in range(graph.p)
            if k not in (i, j) and k not in near[i]
        ]
        equal: tuple[int, ...] = ()
        for column, (a, b) in enumerate(pairs):
            added.append((*equal, -a, b))
            if column == len(pairs) - 1:
                break
            num_vars += 1
            added.append((*equal, -a, num_vars))
            added.append((*equal, b, num_vars))
            equal = (-num_vars,)
    clauses = formula.clauses + CnfFormula(num_vars, tuple(added)).clauses
    # both parts are checked and fit the wider range: build without a re-check
    return _FormulaFields.__new__(CnfFormula, num_vars, clauses)


def decode(assignment: Mapping[int, bool], graph: DeletedEdgeGraph) -> EdgeColoring:
    """Turn a model back into a coloring: edge red iff its variable is true.

    Variables beyond the edge range are ignored; a missing edge variable
    is an error.
    """
    colors: dict[Edge, Color] = {}
    for i, e in enumerate(graph.present_edges()):
        var = i + 1
        if var not in assignment:
            raise ValueError(f"assignment misses variable {var} (edge {e})")
        colors[e] = Color.RED if assignment[var] else Color.BLUE
    return EdgeColoring(graph, colors)


def export_dimacs(formula: CnfFormula, graph: DeletedEdgeGraph) -> str:
    """Render DIMACS CNF text, with one comment line per edge of the graph.

    Output is byte-deterministic: LF line endings, single spaces, comments
    before the header.
    """
    lines = [
        f"c var {var} = edge ({u},{v})"
        for var, (u, v) in enumerate(graph.present_edges(), start=1)
    ]
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join([*map(str, clause), "0"]))
    return "\n".join(lines) + "\n"
