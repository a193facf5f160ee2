"""Red/blue edge colorings and the monochromatic-clique verifier.

A coloring is *good* for (s, t) when no s vertices span an all-red clique
and no t vertices span an all-blue clique.  Vertex subsets containing a
deleted edge are not cliques and never count as witnesses.

The verifier `is_good` is deliberately independent of the CNF machinery:
it walks vertex subsets directly, so it can re-check every coloring the
solver pipeline produces.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import Mapping, NamedTuple, Optional

from .graphs import CheckedRecord, DeletedEdgeGraph, Edge, check_size, subset_is_clique


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


def is_good(coloring: EdgeColoring, s: int, t: int) -> Verdict:
    """Check for a red K_s, then for a blue K_t.

    A bad verdict's witness is the lexicographically first clique of the
    first color that has one, so red witnesses take priority.  A single
    vertex is a clique of either color, so a size of 1 is bad on any
    non-empty graph.  A size or a walk that `check_size` refuses raises
    ValueError before any subset.
    """
    graph = coloring.graph
    check_size(graph.p, s, t)
    deleted = graph.deleted  # with none, every subset is a clique
    assignment = coloring.assignment
    for color, k in ((Color.RED, s), (Color.BLUE, t)):
        for subset in combinations(range(graph.p), k):
            if deleted and not subset_is_clique(graph, subset):
                continue
            if all(assignment[pair] is color for pair in combinations(subset, 2)):
                return Verdict(False, (color, subset))
    return Verdict(True)
