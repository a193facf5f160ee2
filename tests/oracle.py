"""Exhaustive reference oracle for the tests.

`brute_force_good_coloring` enumerates raw colorings and shares no code
with the CNF encoding or the solver, so the tests compare both against it.
`KNOWN_RAMSEY` holds Ramsey numbers from the literature, so tests can
derive expected answers without the solver.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional

from ramsat.coloring import Color, EdgeColoring
from ramsat.errors import BudgetExceededError
from ramsat.graphs import DeletedEdgeGraph, subset_is_clique

# Largest edge count brute_force_good_coloring will enumerate (2^24 words).
ENUMERATION_LIMIT = 24

# r(s,t): Greenwood & Gleason (1955) for (3,3), (3,4) and (3,5); r(2,t) = t,
# since a coloring with no red edge is all blue
KNOWN_RAMSEY = {
    (2, 3): 3, (3, 2): 3, (2, 4): 4, (2, 5): 5, (3, 3): 6, (3, 4): 9, (3, 5): 14,
}


def every_coloring(p: int) -> Iterator[EdgeColoring]:
    """All 2^C(p,2) red/blue colorings of K_p: bit i of the word colors the
    i-th edge red."""
    graph = DeletedEdgeGraph(p)
    present = graph.present_edges()
    for word in range(1 << len(present)):
        yield EdgeColoring(
            graph,
            {e: Color.RED if word >> i & 1 else Color.BLUE for i, e in enumerate(present)},
        )


def brute_force_good_coloring(
    graph: DeletedEdgeGraph, s: int, t: int
) -> Optional[EdgeColoring]:
    """Exhaustively scan all 2^m colorings; return the first good one.

    Bit i of the enumeration word is the color of the i-th present edge in
    lexicographic order (1 = red, 0 = blue), and words are tried in
    increasing order, so the result is deterministic.  This shares nothing
    with the CNF encoding or the solver and is the ground-truth oracle for
    both.
    """
    if s < 2 or t < 2:
        raise ValueError("clique sizes below 2 never admit a good coloring")
    present = graph.present_edges()
    m = len(present)
    if m > ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"{m} edges exceed the 2^{ENUMERATION_LIMIT} enumeration budget"
        )
    position = {e: i for i, e in enumerate(present)}
    deleted = graph.deleted  # with none, every subset is a clique

    def clique_masks(k: int) -> list[int]:
        masks = []
        for subset in combinations(range(graph.p), k):
            if not deleted or subset_is_clique(graph, subset):
                mask = 0
                for pair in combinations(subset, 2):
                    mask |= 1 << position[pair]
                masks.append(mask)
        return masks

    red_masks = clique_masks(s)
    blue_masks = clique_masks(t)
    for word in range(1 << m):
        if any(word & mask == mask for mask in red_masks):
            continue
        if any(word & mask == 0 for mask in blue_masks):
            continue
        return EdgeColoring(
            graph,
            {
                e: Color.RED if word >> i & 1 else Color.BLUE
                for i, e in enumerate(present)
            },
        )
    return None
