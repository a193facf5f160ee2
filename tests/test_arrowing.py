"""Arrowing facts from the literature about K_p minus some edges.

A graph arrows (s,t) when every red/blue coloring of its edges has a red
K_s or a blue K_t, that is, when `decide` says UNSAT.  The expected
answers below come from published results and from two rules that hold
for any deletion set, never from the solver itself.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

from ramsat import DeletedEdgeGraph, SolveStatus, decide, is_good
from ramsat.graphs import deletion_classes
from .oracle import KNOWN_RAMSEY

# Graham (1968): K_8 minus this 5-cycle arrows (3,3), yet has no K_6
GRAHAM_C5 = ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4))


def has_clique(graph: DeletedEdgeGraph, size: int) -> bool:
    """Whether some `size` vertices of the graph span no deleted edge."""
    return any(
        not any(pair in graph.deleted for pair in combinations(subset, 2))
        for subset in combinations(range(graph.p), size)
    )


def vertex_colorable(graph: DeletedEdgeGraph, colors: int) -> bool:
    """Whether the present graph has a proper vertex coloring, by backtracking."""
    deleted = set(graph.deleted)
    chosen: list[int] = []

    def place(v: int) -> bool:
        if v == graph.p:
            return True
        for c in range(colors):
            if all(chosen[u] != c or (u, v) in deleted for u in range(v)):
                chosen.append(c)
                if place(v + 1):
                    return True
                chosen.pop()
        return False

    return place(0)


def colorable(graph: DeletedEdgeGraph, s: int, t: int) -> bool:
    decision = decide(graph, s, t)
    assert decision.status is not SolveStatus.BUDGET_EXCEEDED
    return decision.status is SolveStatus.SAT


def test_graham_k8_minus_c5_arrows_3_3():
    assert not has_clique(DeletedEdgeGraph(8, GRAHAM_C5), 6)
    assert not colorable(DeletedEdgeGraph(8, GRAHAM_C5), 3, 3)
    sparser = decide(DeletedEdgeGraph(8, GRAHAM_C5 + ((5, 6),)), 3, 3)
    assert sparser.status is SolveStatus.SAT
    assert is_good(sparser.coloring, 3, 3).good


def test_k8_minus_at_most_7_edges_has_one_k6_free_arrower():
    classes = chain.from_iterable(islice(deletion_classes(8), 8))
    k6_free = [
        graph
        for graph in (DeletedEdgeGraph(8, d) for d in classes)
        if not has_clique(graph, 6)
    ]
    assert len(k6_free) == 161
    arrowing = [graph.deleted for graph in k6_free if not colorable(graph, 3, 3)]
    assert arrowing == [GRAHAM_C5]


def test_k6_free_graphs_on_7_vertices_do_not_arrow_3_3():
    # Folkman (1970): F_e(3,3;6) = 8.  Removing edges keeps a coloring
    # good, and K_7 minus D is K_6-free only if D contains two disjoint
    # edges or a triangle, so the classes with at most 3 edges suffice.
    classes = chain.from_iterable(islice(deletion_classes(7), 4))
    k6_free = [
        graph
        for graph in (DeletedEdgeGraph(7, d) for d in classes)
        if not has_clique(graph, 6)
    ]
    minimal = {((0, 1), (2, 3)), ((0, 1), (0, 2), (1, 2))}
    assert minimal <= {graph.deleted for graph in k6_free}
    assert all(colorable(graph, 3, 3) for graph in k6_free)


def test_clique_and_chromatic_number_rules_on_small_graphs():
    # a K_r has no good coloring, and a present graph whose vertices take
    # r-1 colors is the blow-up of a good coloring of K_{r-1}
    for n in range(1, 7):
        for deleted in chain.from_iterable(deletion_classes(n)):
            graph = DeletedEdgeGraph(n, deleted)
            for (s, t), r in KNOWN_RAMSEY.items():
                if has_clique(graph, r):
                    assert not colorable(graph, s, t), (graph, s, t)
                elif vertex_colorable(graph, r - 1):
                    assert colorable(graph, s, t), (graph, s, t)
