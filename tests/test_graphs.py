"""Edges, deleted-edge graphs, and deletion classes."""

from __future__ import annotations

from itertools import combinations, islice, permutations

import pytest

from ramsat import DeletedEdgeGraph, edge
from ramsat.graphs import deletion_classes, subset_is_clique


class TestEdge:
    def test_canonicalizes_order(self):
        assert edge(3, 1) == (1, 3)
        assert edge(1, 3) == (1, 3)

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            edge(2, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            edge(-1, 2)


class TestDeletedEdgeGraph:
    def test_complete_graph_has_all_edges(self):
        g = DeletedEdgeGraph(4)
        assert g.present_edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_deletion_removes_edge(self):
        g = DeletedEdgeGraph(4, ((1, 3),))
        assert (1, 3) not in g.present_edges()
        assert len(g.present_edges()) == 5

    def test_deleted_edges_normalized(self):
        g = DeletedEdgeGraph(5, ((3, 1), (0, 2)))
        assert g.deleted == ((0, 2), (1, 3))

    def test_equal_after_normalization(self):
        assert DeletedEdgeGraph(5, ((3, 1),)) == DeletedEdgeGraph(5, ((1, 3),))

    def test_rejects_endpoint_outside_graph(self):
        with pytest.raises(ValueError):
            DeletedEdgeGraph(4, ((0, 4),))

    def test_rejects_duplicate_deletion(self):
        with pytest.raises(ValueError):
            DeletedEdgeGraph(4, ((0, 1), (1, 0)))

    def test_rejects_loop_deletion(self):
        with pytest.raises(ValueError):
            DeletedEdgeGraph(4, ((2, 2),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            DeletedEdgeGraph(-1)

    def test_present_edges_stay_lexicographic(self):
        g = DeletedEdgeGraph(5, ((0, 3), (2, 4)))
        present = g.present_edges()
        assert present == sorted(present)
        assert len(present) == 8


class TestSubsetIsClique:
    def test_complete_graph_every_subset(self):
        g = DeletedEdgeGraph(5)
        for k in range(6):
            assert all(subset_is_clique(g, s) for s in combinations(range(5), k))

    def test_spanning_subset_is_not_clique(self):
        g = DeletedEdgeGraph(6, ((0, 5),))
        assert not subset_is_clique(g, (0, 1, 5))
        assert subset_is_clique(g, (1, 2, 3))

    def test_endpoints_alone_not_a_clique(self):
        g = DeletedEdgeGraph(6, ((0, 5),))
        assert not subset_is_clique(g, (0, 5))
        assert subset_is_clique(g, (0, 4))

    def test_monotone_in_deletions(self):
        # a clique with more deletions is still a clique with fewer
        smaller = DeletedEdgeGraph(5, ((0, 1),))
        larger = DeletedEdgeGraph(5, ((0, 1), (2, 3)))
        for k in range(6):
            for s in combinations(range(5), k):
                if subset_is_clique(larger, s):
                    assert subset_is_clique(smaller, s)


def relabelled(edges, relabel):
    """The sorted edge tuple of an edge set after moving vertex v to relabel[v]."""
    return tuple(sorted(edge(relabel[u], relabel[v]) for u, v in edges))


class TestDeletionClasses:
    @pytest.mark.parametrize("p", range(7))
    def test_matches_brute_force_orbits(self, p):
        # every k-edge set lies in the orbit of exactly one representative,
        # and each representative is the least member of its orbit
        relabels = list(permutations(range(p)))
        all_edges = list(combinations(range(p), 2))
        levels = list(deletion_classes(p))
        assert len(levels) == len(all_edges) + 1
        for k, reps in enumerate(levels):
            covered = set()
            assert reps == sorted(reps)
            for rep in reps:
                orbit = {relabelled(rep, relabel) for relabel in relabels}
                assert min(orbit) == rep
                assert not orbit & covered
                covered |= orbit
            assert covered == set(combinations(all_edges, k))

    def test_counts_graphs_with_k_edges(self):
        # OEIS A000664: graphs with k edges, all of which fit on 10 vertices
        counts = [len(level) for level in islice(deletion_classes(10), 6)]
        assert counts == [1, 1, 2, 5, 11, 26]
