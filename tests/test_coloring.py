"""Verifier and brute-force oracle tests.

The expected values here are recomputed inside the tests by direct
enumeration wherever they are not immediate from the definitions, so the
verifier is checked against arithmetic, not against itself.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from ramsat import (
    BudgetExceededError,
    Color,
    DeletedEdgeGraph,
    EdgeColoring,
    is_good,
)
import ramsat.coloring
import ramsat.graphs
from .conftest import C5_RED, make_coloring
from .oracle import brute_force_good_coloring


def naive_is_good(coloring: EdgeColoring, s: int, t: int) -> bool:
    """Definition-level re-check, sharing nothing with the library verifier."""
    graph = coloring.graph
    deleted = set(graph.deleted)
    for k, color in ((s, Color.RED), (t, Color.BLUE)):
        for subset in combinations(range(graph.p), k):
            pairs = list(combinations(subset, 2))
            if any(pair in deleted for pair in pairs):
                continue
            if all(coloring.assignment[pair] is color for pair in pairs):
                return False
    return True


def random_coloring(rng: random.Random, graph: DeletedEdgeGraph) -> EdgeColoring:
    return EdgeColoring(
        graph,
        {e: rng.choice((Color.RED, Color.BLUE)) for e in graph.present_edges()},
    )


class TestEdgeColoring:
    def test_rejects_missing_edge(self):
        g = DeletedEdgeGraph(3)
        with pytest.raises(ValueError, match="misses"):
            EdgeColoring(g, {(0, 1): Color.RED, (0, 2): Color.RED})

    def test_rejects_extra_edge(self):
        g = DeletedEdgeGraph(3, ((1, 2),))
        full = {e: Color.BLUE for e in [(0, 1), (0, 2), (1, 2)]}
        with pytest.raises(ValueError, match="non-present"):
            EdgeColoring(g, full)

    def test_edges_of_color_lexicographic(self, c5_coloring):
        assert c5_coloring.edges_of_color(Color.RED) == sorted(C5_RED)


class TestFindMonoClique:
    """The monochromatic-clique search, seen through is_good's witness."""

    def test_all_red_triangle(self):
        coloring = make_coloring(3, {(0, 1), (0, 2), (1, 2)})
        assert is_good(coloring, 3, 3) == (False, (Color.RED, (0, 1, 2)))
        # no red K_4 on three vertices and no blue edge at all
        assert is_good(coloring, 4, 2) == (True, None)

    def test_single_vertex_clique(self, c5_coloring):
        assert is_good(c5_coloring, 1, 3).witness == (Color.RED, (0,))
        assert is_good(c5_coloring, 3, 1).witness == (Color.BLUE, (0,))
        assert is_good(make_coloring(1, set()), 2, 1).witness == (Color.BLUE, (0,))
        # K_0 has no vertex, so not even a K_1
        assert is_good(make_coloring(0, set()), 1, 1) == (True, None)

    def test_size_zero_rejected(self, c5_coloring):
        for s, t in ((0, 3), (3, 0)):
            with pytest.raises(ValueError, match="clique sizes must be at least 1"):
                is_good(c5_coloring, s, t)
        # both sizes are checked before any subset, even with a red clique
        red_k3 = make_coloring(3, {(0, 1), (0, 2), (1, 2)})
        with pytest.raises(ValueError, match="clique sizes must be at least 1"):
            is_good(red_k3, 3, 0)

    def test_returns_lexicographically_first(self):
        # red edges (1,2),(1,3),(2,3) and (2,4),(3,4): triangles (1,2,3) and (2,3,4)
        coloring = make_coloring(5, {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)})
        assert is_good(coloring, 3, 3).witness == (Color.RED, (1, 2, 3))
        # no red K_4; (0,1,4) is the first of the blue triangles
        assert is_good(coloring, 4, 3).witness == (Color.BLUE, (0, 1, 4))

    def test_deleted_edges_disqualify_subsets(self):
        # all-blue K_6 minus (0,1): triples through the gap are not cliques
        coloring = make_coloring(6, set(), deleted=((0, 1),))
        assert is_good(coloring, 3, 3).witness == (Color.BLUE, (0, 2, 3))
        assert is_good(coloring, 3, 5).witness == (Color.BLUE, (0, 2, 3, 4, 5))
        gap = make_coloring(3, set(), deleted=((0, 2),))
        assert is_good(gap, 3, 3) == (True, None)

    def test_oversized_clique_absent(self, c5_coloring):
        assert is_good(c5_coloring, 6, 6) == (True, None)


class TestIsGood:
    def test_c5_is_good(self, c5_coloring):
        verdict = is_good(c5_coloring, 3, 3)
        assert verdict.good
        assert verdict.witness is None

    def test_all_blue_triangle_is_bad(self):
        verdict = is_good(make_coloring(3, set()), 3, 3)
        assert not verdict.good
        assert verdict.witness == (Color.BLUE, (0, 1, 2))

    def test_red_witness_takes_priority(self):
        # red triangle on (0,1,2) and blue triangle on (3,4,5)
        coloring = make_coloring(6, {(0, 1), (0, 2), (1, 2)} | {(u, v) for u, v in combinations(range(6), 2) if (u < 3) != (v < 3)})
        verdict = is_good(coloring, 3, 3)
        assert verdict.witness == (Color.RED, (0, 1, 2))

    def test_complete_graph_skips_the_clique_check(self, c5_coloring, monkeypatch):
        # with no deleted edges every subset is a clique; nothing need ask
        def called(graph, vertices):
            raise AssertionError("subset_is_clique called on a complete graph")

        monkeypatch.setattr(ramsat.coloring, "subset_is_clique", called)
        assert is_good(c5_coloring, 3, 3) == (True, None)
        assert is_good(c5_coloring, 3, 2).witness == (Color.BLUE, (0, 2))

    def test_twin_construction_by_hand(self, c5_coloring):
        # copy vertex 0's colors onto a new vertex 5, drop the twin edge
        red = set(C5_RED)
        for q in range(1, 5):
            if (min(0, q), max(0, q)) in red:
                red.add((q, 5))
        coloring = make_coloring(6, red, deleted=((0, 5),))
        assert naive_is_good(coloring, 3, 3)
        assert is_good(coloring, 3, 3).good

    def test_walk_limit_is_exact(self, c5_coloring, monkeypatch):
        # K_5 at (3,3) walks C(5,3) + C(5,3) = 20 subsets, the encoder's count
        monkeypatch.setattr(ramsat.graphs, "MAX_CLAUSES", 20)
        assert is_good(c5_coloring, 3, 3).good
        monkeypatch.setattr(ramsat.graphs, "MAX_CLAUSES", 19)
        with pytest.raises(ValueError, match="over the limit of 19"):
            is_good(c5_coloring, 3, 3)

    @pytest.mark.parametrize("s, t", [(15, 15), (16, 3)])
    def test_oversized_walk_refused(self, nothing_walked, s, t):
        # K_30 all blue: the red walk alone would visit C(30,15) subsets
        with pytest.raises(ValueError, match="over the limit"):
            is_good(make_coloring(30, set()), s, t)

    def test_degenerate_sizes_rejected(self, c5_coloring):
        for s, t in ((0, 3), (3, 0)):
            with pytest.raises(ValueError):
                is_good(c5_coloring, s, t)
        # a single vertex is a monochromatic K_1 of either color
        assert is_good(c5_coloring, 1, 3).witness == (Color.RED, (0,))
        assert is_good(c5_coloring, 3, 1).witness == (Color.BLUE, (0,))

    def test_witness_is_sound_on_random_colorings(self):
        rng = random.Random(20260819)
        graphs = [
            DeletedEdgeGraph(5),
            DeletedEdgeGraph(6),
            DeletedEdgeGraph(6, ((0, 5),)),
            DeletedEdgeGraph(6, ((0, 1), (2, 3))),
        ]
        checked_bad = 0
        for _ in range(200):
            graph = rng.choice(graphs)
            s, t = rng.choice([(2, 3), (3, 3), (3, 4)])
            coloring = random_coloring(rng, graph)
            verdict = is_good(coloring, s, t)
            assert verdict.good == naive_is_good(coloring, s, t)
            if not verdict.good:
                checked_bad += 1
                color, clique = verdict.witness
                assert len(clique) == (s if color is Color.RED else t)
                deleted = set(graph.deleted)
                for pair in combinations(clique, 2):
                    assert pair not in deleted
                    assert coloring.assignment[pair] is color
        assert checked_bad > 50  # the sample actually exercised bad verdicts

    def test_swap_symmetry(self):
        rng = random.Random(7)
        swap = {Color.RED: Color.BLUE, Color.BLUE: Color.RED}
        for _ in range(100):
            coloring = random_coloring(rng, DeletedEdgeGraph(6))
            s, t = rng.choice([(2, 3), (3, 3), (3, 4), (2, 4)])
            swapped = EdgeColoring(
                coloring.graph,
                {e: swap[c] for e, c in coloring.assignment.items()},
            )
            assert is_good(coloring, s, t).good == is_good(swapped, t, s).good


class TestBruteForce:
    def test_k5_has_good_33_coloring(self):
        coloring = brute_force_good_coloring(DeletedEdgeGraph(5), 3, 3)
        assert coloring is not None
        assert naive_is_good(coloring, 3, 3)

    def test_k6_has_none(self):
        assert brute_force_good_coloring(DeletedEdgeGraph(6), 3, 3) is None

    def test_k6_minus_one_edge_has_one(self):
        coloring = brute_force_good_coloring(DeletedEdgeGraph(6, ((0, 5),)), 3, 3)
        assert coloring is not None
        assert naive_is_good(coloring, 3, 3)

    def test_returns_first_in_binary_order(self):
        # independent scan: same word order, definition-level goodness check
        graph = DeletedEdgeGraph(4)
        present = graph.present_edges()
        expected = None
        for word in range(1 << 6):
            candidate = EdgeColoring(
                graph,
                {
                    e: Color.RED if word >> i & 1 else Color.BLUE
                    for i, e in enumerate(present)
                },
            )
            if naive_is_good(candidate, 3, 3):
                expected = candidate
                break
        assert brute_force_good_coloring(graph, 3, 3) == expected

    def test_impossible_kind(self):
        # (2,2): any colored edge is a monochromatic K_2
        assert brute_force_good_coloring(DeletedEdgeGraph(3), 2, 2) is None
        assert brute_force_good_coloring(DeletedEdgeGraph(1), 2, 2) is not None

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            brute_force_good_coloring(DeletedEdgeGraph(8), 3, 3)  # 28 edges

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            brute_force_good_coloring(DeletedEdgeGraph(3), 1, 3)
