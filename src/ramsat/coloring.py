"""Red/blue edge colorings and the monochromatic-clique verifier.

A coloring is *good* for (s, t) when no s vertices span an all-red clique
and no t vertices span an all-blue clique.  Vertex subsets containing a
deleted edge are not cliques and never count as witnesses.

The verifier here is deliberately independent of the CNF machinery: it
walks vertex subsets directly, and `brute_force_good_coloring` enumerates
raw colorings.  Both serve as oracles for the solver pipeline.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import Mapping, NamedTuple, Optional

from .errors import BudgetExceededError
from .graphs import CheckedRecord, DeletedEdgeGraph, Edge, subset_is_clique

# Largest edge count brute_force_good_coloring will enumerate (2^24 words).
ENUMERATION_LIMIT = 24


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


class _ColoringFields(NamedTuple):
    graph: DeletedEdgeGraph
    assignment: Mapping[Edge, Color]


class EdgeColoring(CheckedRecord, _ColoringFields):
    """A total assignment of colors to the present edges of a graph."""

    __slots__ = ()

    def __new__(
        cls, graph: DeletedEdgeGraph, assignment: Mapping[Edge, Color]
    ) -> EdgeColoring:
        present = set(graph.present_edges())
        given = set(assignment)
        if given != present:
            missing = sorted(present - given)
            extra = sorted(given - present)
            if missing:
                raise ValueError(f"coloring misses present edge {missing[0]}")
            raise ValueError(f"coloring assigns non-present edge {extra[0]}")
        return super().__new__(cls, graph, assignment)

    def edges_of_color(self, color: Color) -> list[Edge]:
        """Edges of one color, in lexicographic order."""
        return [e for e in self.graph.present_edges() if self.assignment[e] is color]


class Verdict(NamedTuple):
    """Outcome of a goodness check; bad verdicts carry one witness clique."""

    good: bool
    witness: Optional[tuple[Color, tuple[int, ...]]] = None


def find_mono_clique(
    coloring: EdgeColoring, color: Color, k: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically first k-subset spanning a monochromatic clique.

    Returns None when there is none.  A single vertex is a clique of either
    color, so k = 1 always finds (0,) on a non-empty graph.
    """
    if k < 1:
        raise ValueError("clique size must be at least 1")
    graph = coloring.graph
    deleted = graph.deleted  # with none, every subset is a clique
    assignment = coloring.assignment
    for subset in combinations(range(graph.p), k):
        if deleted and not subset_is_clique(graph, subset):
            continue
        if all(assignment[pair] is color for pair in combinations(subset, 2)):
            return subset
    return None


def is_good(coloring: EdgeColoring, s: int, t: int) -> Verdict:
    """Check for red K_s and blue K_t; red witnesses take priority."""
    red = find_mono_clique(coloring, Color.RED, s)
    if red is not None:
        return Verdict(False, (Color.RED, red))
    blue = find_mono_clique(coloring, Color.BLUE, t)
    if blue is not None:
        return Verdict(False, (Color.BLUE, blue))
    return Verdict(True)


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
