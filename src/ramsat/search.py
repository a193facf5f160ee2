"""Ramsey-number search, coloring extension, and minimal deletion sets.

r(s,t) is the least p such that K_p has no good coloring for (s,t).  The
search here simply walks p = 0, 1, ... and asks the solver; it is meant
for the small classical numbers, and one decision budget bounds the walk.
"""

from __future__ import annotations

from itertools import chain, count, islice
from typing import NamedTuple, Optional

from .cnf import CnfFormula, decode, encode, symmetry_break
from .coloring import EdgeColoring, is_good
from .dpll import DEFAULT_DECISION_BUDGET, SolveStatus, solve
from .errors import BudgetExceededError, TheoremViolationError
from .graphs import (
    DeletedEdgeGraph,
    Edge,
    check_size,
    deletion_classes,
    edge,
    edge_count,
)


class RamseyResult(NamedTuple):
    """r(s,t) = p, with a good coloring of K_{p-1}: for p = 1, K_0's empty one."""

    p: int
    witness: EdgeColoring


class Decision(NamedTuple):
    """One decided instance: the solver's status, the instance's encoding
    (without the symmetry-breaking clauses), only when SAT the coloring
    after re-verification, and the solver's decision count."""

    status: SolveStatus
    formula: CnfFormula
    coloring: Optional[EdgeColoring]
    decisions: int


def decide(
    graph: DeletedEdgeGraph,
    s: int,
    t: int,
    *,
    budget: int = DEFAULT_DECISION_BUDGET,
) -> Decision:
    """Encode, solve, decode, and re-verify one instance.

    The solver gets the encoding plus the lex-leader clauses of
    `symmetry_break`, which keep at least one coloring of every
    relabelling class, so SAT and UNSAT are the encoding's own answers.
    The Decision holds the encoding alone, which is what `solve --dimacs`
    writes.  A SAT model is decoded and re-checked by the subset-walking
    verifier; a model that decodes to a bad coloring raises
    TheoremViolationError, so the only coloring a Decision can hold is a
    verified one.
    """
    formula = encode(graph, s, t)
    result = solve(symmetry_break(graph, formula), budget)
    if result.status is not SolveStatus.SAT:
        return Decision(result.status, formula, None, result.decisions)
    coloring = decode(result.model, graph)
    verdict = is_good(coloring, s, t)
    if not verdict.good:
        raise TheoremViolationError(
            f"solver model for K_{graph.p} decoded to a bad coloring: {verdict.witness}"
        )
    return Decision(result.status, formula, coloring, result.decisions)


def budget_exceeded(budget: int, n: int, bound: str = "") -> BudgetExceededError:
    """The one error for a budget that ran out at K_n, plus any bound proven."""
    return BudgetExceededError(f"budget of {budget} decisions exceeded at n = {n}{bound}")


def good_coloring(
    n: int,
    s: int,
    t: int,
    deleted: tuple[Edge, ...] = (),
    *,
    budget: int = DEFAULT_DECISION_BUDGET,
) -> Optional[EdgeColoring]:
    """Find a verified good coloring of K_n minus the deleted edges, or None.

    A budgeted-out solve raises BudgetExceededError rather than guessing.
    """
    decision = decide(DeletedEdgeGraph(n, tuple(deleted)), s, t, budget=budget)
    if decision.status is SolveStatus.BUDGET_EXCEEDED:
        raise budget_exceeded(budget, n)
    return decision.coloring


def ramsey_number(
    s: int, t: int, *, budget: int = DEFAULT_DECISION_BUDGET
) -> RamseyResult:
    """Walk n = 0, 1, ... until K_n has no good coloring: r(s,t) is finite.

    All solves share one budget of decisions, each K_n costing at least
    one.  When it runs out at K_n, or `check_size` refuses K_n, the walk
    raises BudgetExceededError with the reason and the proven bound
    r(s,t) > n-1.  The witness is the good coloring found at p - 1; K_0,
    with no edges, always has one, so every witness comes from `decide`.
    """
    spent, witness = 0, None
    for n in count():
        decision = decide(DeletedEdgeGraph(n), s, t, budget=budget - spent)
        spent += max(1, decision.decisions)
        if decision.status is SolveStatus.BUDGET_EXCEEDED or spent > budget:
            raise budget_exceeded(budget, n, f"; r({s},{t}) > {n - 1}")
        if decision.coloring is None:
            return RamseyResult(n, witness)
        witness = decision.coloring
        try:
            check_size(n + 1, s, t)
        except ValueError as refusal:
            raise BudgetExceededError(f"{refusal}; r({s},{t}) > {n}") from None


def extend_coloring(coloring: EdgeColoring, vertex: int) -> EdgeColoring:
    """Grow a coloring of K_{p-1} to one of K_p minus one edge.

    The new vertex p-1 is a twin of `vertex`: every edge (q, p-1) copies
    the color of (q, vertex), and the edge (vertex, p-1) between the twins
    is the deleted one.  The input is the coloring that the result induces
    on 0..p-2, so one `is_good` walk of the result decides both, with the
    same witness.  No clique of the result contains both twins, so a
    clique through p-1 maps onto the lex-smaller clique through `vertex`
    in the same color: the lex-first monochromatic clique lies in 0..p-2
    and is the input's, and red still comes before blue.
    """
    graph = coloring.graph
    if graph.deleted:
        raise ValueError("extension starts from a complete graph")
    old_p = graph.p
    if not 0 <= vertex < old_p:
        raise ValueError(f"vertex {vertex} is not a vertex of K_{old_p}")
    parent = [*range(old_p), vertex]  # new vertex i copies parent[i]
    extended_graph = DeletedEdgeGraph(old_p + 1, ((vertex, old_p),))
    return EdgeColoring(
        extended_graph,
        {
            (u, v): coloring.assignment[edge(parent[u], parent[v])]
            for u, v in extended_graph.present_edges()
        },
    )


def min_deletions(
    s: int,
    t: int,
    p: int,
    k_max: int,
    *,
    budget: int = DEFAULT_DECISION_BUDGET,
) -> Optional[EdgeColoring]:
    """A good coloring of K_p minus the fewest deletions, up to k_max.

    The deleted edges are the coloring's `graph.deleted`, their number the
    minimal count e.

    Relabelling the vertices of K_p maps good colorings to good colorings,
    so whether K_p minus D is colorable depends only on the isomorphism
    class of the deletion graph D.  For each size k the search therefore
    solves one set per class: the class's lex-least sorted edge tuple,
    taken in increasing order (`deletion_classes`).  The first colorable
    representative is the lex-first minimal set overall: every set before
    it lies in a class whose representative comes earlier still, and that
    representative was not colorable.  It is solved as the same formula a
    scan of all C(m,k) sets would solve, so the coloring is the same too.
    Returns None when k_max deletions are still not enough, that is
    e > k_max, and raises ValueError, before any class is built, when
    `check_size` refuses K_p.
    """
    m = edge_count(p)
    if not 0 <= k_max <= m:
        raise ValueError(f"k_max must be between 0 and {m}")
    check_size(p, s, t)
    if p and min(s, t) == 1:
        return None  # any vertex is a monochromatic K_1, whatever is deleted
    for deleted in chain.from_iterable(islice(deletion_classes(p), k_max + 1)):
        coloring = good_coloring(p, s, t, deleted, budget=budget)
        if coloring is not None:
            return coloring
    return None
