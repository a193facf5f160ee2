"""Shared fixtures: small hand-built colorings used across test modules."""

from __future__ import annotations

from itertools import combinations

import pytest

import ramsat.coloring
import ramsat.search
from ramsat import Color, DeletedEdgeGraph, EdgeColoring


def make_coloring(
    p: int, red_edges: set[tuple[int, int]], deleted: tuple = ()
) -> EdgeColoring:
    """Color K_p (minus deleted): the given edges red, everything else blue."""
    graph = DeletedEdgeGraph(p, deleted)
    return EdgeColoring(
        graph,
        {
            e: Color.RED if e in red_edges else Color.BLUE
            for e in graph.present_edges()
        },
    )


C5_RED = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


@pytest.fixture
def c5_coloring() -> EdgeColoring:
    """K_5 with a red 5-cycle and blue chords.

    The fixture itself proves this has no monochromatic triangle, walking
    all 10 triples directly, so downstream tests can rely on it being a
    good (3,3)-coloring without trusting any library code.
    """
    coloring = make_coloring(5, C5_RED)
    for triple in combinations(range(5), 3):
        colors = {coloring.assignment[pair] for pair in combinations(triple, 2)}
        assert len(colors) == 2, f"triple {triple} is monochromatic"
    return coloring


@pytest.fixture
def nothing_built(monkeypatch):
    """Make building any instance fail: a graph's edge list and the
    deletion classes raise AssertionError, so a size-guard test never
    builds the oversized instance it names."""

    def built(*args):
        raise AssertionError("an instance was built past the size guard")

    monkeypatch.setattr(DeletedEdgeGraph, "present_edges", built)
    monkeypatch.setattr(ramsat.search, "deletion_classes", built)


@pytest.fixture
def nothing_walked(monkeypatch):
    """Make the verifier's subset walk fail: is_good's `combinations`
    raises AssertionError, so a size-guard test never starts the walk it
    refuses."""

    def walked(*args):
        raise AssertionError("a subset walk started past the size guard")

    monkeypatch.setattr(ramsat.coloring, "combinations", walked)
