"""Ramsey-number search, twin extension, and minimal-deletion search."""

from __future__ import annotations

import math
import random
from itertools import combinations, islice, product

import pytest

import ramsat.graphs
import ramsat.search
from ramsat import (
    BudgetExceededError,
    Color,
    DeletedEdgeGraph,
    EdgeColoring,
    SolveStatus,
    decide,
    encode,
    extend_coloring,
    good_coloring,
    is_good,
    min_deletions,
    ramsey_number,
)
from .conftest import make_coloring
from .oracle import KNOWN_RAMSEY, brute_force_good_coloring, every_coloring


class TestDecide:
    def test_each_status_keeps_its_formula(self):
        sat = decide(DeletedEdgeGraph(5), 3, 3)
        assert sat.status is SolveStatus.SAT
        assert is_good(sat.coloring, 3, 3).good
        unsat = decide(DeletedEdgeGraph(6), 3, 3)
        assert (unsat.status, unsat.coloring) == (SolveStatus.UNSAT, None)
        assert len(unsat.formula.clauses) == 40
        cut = decide(DeletedEdgeGraph(6), 3, 3, budget=2)
        assert (cut.status, cut.coloring) == (SolveStatus.BUDGET_EXCEEDED, None)
        assert cut.formula == unsat.formula

    @pytest.mark.parametrize("deleted", [(), ((0, 5),), ((1, 2), (3, 4))])
    def test_formula_is_the_plain_encoding(self, deleted):
        # the symmetry-breaking clauses are solved but never handed out
        graph = DeletedEdgeGraph(6, deleted)
        assert decide(graph, 3, 3).formula == encode(graph, 3, 3)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_status_agrees_with_brute_force(self, n):
        # Colorability depends only on the isomorphism class of the deletion
        # graph, and a set of at most two edges is fixed up to relabelling by
        # its size and its number of endpoints, so the oracle runs once per
        # class; the solver sees every labelling.
        oracle: dict[tuple[int, int, int, int], bool] = {}
        for k in range(3):
            for deleted in combinations(combinations(range(n), 2), k):
                graph = DeletedEdgeGraph(n, deleted)
                for s, t in product(range(1, 5), repeat=2):
                    key = (k, len({v for e in deleted for v in e}), s, t)
                    if key not in oracle:
                        # K_0 has no vertex, so every (s,t) is good on it;
                        # elsewhere a single vertex is a red K_1 and a blue K_1
                        oracle[key] = n == 0 or (
                            s > 1
                            and t > 1
                            and brute_force_good_coloring(graph, s, t) is not None
                        )
                    status = decide(graph, s, t).status
                    assert (status is SolveStatus.SAT) == oracle[key], (deleted, s, t)


class TestGoodColoring:
    def test_k5_found_and_verified(self):
        coloring = good_coloring(5, 3, 3)
        assert coloring is not None
        assert is_good(coloring, 3, 3).good

    def test_k6_none(self):
        assert good_coloring(6, 3, 3) is None

    def test_k6_minus_edge_found(self):
        coloring = good_coloring(6, 3, 3, ((0, 5),))
        assert coloring is not None
        assert coloring.graph.deleted == ((0, 5),)

    def test_budget_raises(self):
        with pytest.raises(BudgetExceededError, match="n = 6"):
            good_coloring(6, 3, 3, budget=3)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            good_coloring(-1, 3, 3)


class TestRamseyNumber:
    def test_r33(self):
        result = ramsey_number(3, 3)
        assert result.p == 6
        assert result.witness.graph.p == 5
        assert is_good(result.witness, 3, 3).good

    def test_r22(self):
        result = ramsey_number(2, 2)
        assert result.p == 2
        assert result.witness.graph.p == 1

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_one_clique_size(self, t):
        # a single vertex is already a red K_1; the witness is K_0's coloring
        result = ramsey_number(1, t)
        assert result.p == 1
        assert result.witness == EdgeColoring(DeletedEdgeGraph(0), {})

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_two_clique_size(self, t):
        # avoiding red K_2 means all blue, so only K_{t-1} survives
        assert ramsey_number(2, t).p == t

    def test_symmetry_23(self):
        assert ramsey_number(2, 3).p == ramsey_number(3, 2).p == 3

    def test_symmetry_34(self):
        assert ramsey_number(3, 4).p == ramsey_number(4, 3).p == 9

    def test_r34_lower_bound_by_explicit_witness(self):
        # K_8 colored red at circular distances 1 and 4 has no red K_3 and
        # no blue K_4, so r(3,4) > 8 independently of the solver
        from itertools import combinations

        red = {
            (u, v) for u, v in combinations(range(8), 2) if (v - u) % 8 in (1, 4, 7)
        }
        witness = make_coloring(8, red)
        assert is_good(witness, 3, 4).good
        assert good_coloring(8, 3, 4) is not None

    def test_budget_exhausted_names_the_proven_bound(self):
        # the walk to r(3,5) = 14 costs 788: its decisions, and one for each
        # K_n that the solver settles without a branch
        assert ramsey_number(3, 5, budget=788).p == 14
        with pytest.raises(BudgetExceededError) as excinfo:
            ramsey_number(3, 5, budget=787)
        assert str(excinfo.value) == (
            "budget of 787 decisions exceeded at n = 14; r(3,5) > 13"
        )

    @pytest.mark.parametrize("budget", [1, 50, 787, 788, 10_000])
    def test_one_budget_for_the_whole_walk(self, monkeypatch, budget):
        # every solve, the one cut short too, spends the one budget
        decided = []
        solve = ramsat.search.solve

        def counted(formula, budget):
            result = solve(formula, budget)
            decided.append(result.decisions)
            return result

        monkeypatch.setattr(ramsat.search, "solve", counted)
        try:
            ramsey_number(3, 5, budget=budget)
        except BudgetExceededError:
            pass
        assert sum(decided) <= budget

    def test_no_ceiling_below_r(self):
        # the walk ends at r(s,t) itself, past the old cap of 14
        assert ramsey_number(2, 16).p == 16

    def test_budget_bounds_a_walk_without_branches(self, monkeypatch):
        # at s = 2 unit propagation settles every K_n, yet each costs one
        solved = []
        solve = ramsat.search.solve
        monkeypatch.setattr(
            ramsat.search, "solve", lambda *args: solved.append(1) or solve(*args)
        )
        with pytest.raises(BudgetExceededError, match=r"n = 20; r\(2,1400\) > 19$"):
            ramsey_number(2, 1400, budget=20)
        assert len(solved) == 21

    def test_budget_propagates_with_n(self):
        # K_0 and K_1 cost one each without a branch; K_2 needs its first
        with pytest.raises(BudgetExceededError, match="n = 2"):
            ramsey_number(3, 3, budget=2)

    def test_invalid_query(self):
        with pytest.raises(ValueError):
            ramsey_number(0, 3)


class TestExtendColoring:
    def test_k2_red_example(self):
        base = make_coloring(2, {(0, 1)})
        extended = extend_coloring(base, 0)
        assert extended.graph.p == 3
        assert extended.graph.deleted == ((0, 2),)
        assert extended.assignment[(1, 2)] is Color.RED  # copies (0,1)
        assert extended.assignment[(0, 1)] is Color.RED  # unchanged

    def test_c5_every_vertex(self, c5_coloring):
        for vertex in range(5):
            extended = extend_coloring(c5_coloring, vertex)
            assert extended.graph.p == 6
            assert extended.graph.deleted == ((vertex, 5),)
            assert is_good(extended, 3, 3).good
            for q in range(5):
                if q != vertex:
                    twin_edge = (q, 5)
                    source = (min(vertex, q), max(vertex, q))
                    assert extended.assignment[twin_edge] is c5_coloring.assignment[source]

    def test_rejects_deleted_edge_input(self):
        base = make_coloring(3, set(), deleted=((0, 2),))
        with pytest.raises(ValueError, match="complete"):
            extend_coloring(base, 0)

    def test_bad_input_keeps_its_witness(self):
        extended = extend_coloring(make_coloring(3, set()), 0)
        assert is_good(extended, 3, 3) == (False, (Color.BLUE, (0, 1, 2)))

    def test_one_walk_decides_input_and_extension(self):
        # the input is what the extension induces on 0..p-2, so the twin
        # theorem holds both ways, with the same lex-first witness
        cases = [
            (coloring, s, t)
            for p in range(1, 5)
            for coloring in every_coloring(p)
            for s, t in product(range(1, 5), repeat=2)
        ]
        cases += [
            (coloring, s, t)
            for coloring in every_coloring(5)
            for s, t in ((3, 3), (2, 3), (3, 2))
        ]
        for coloring, s, t in cases:
            expected = is_good(coloring, s, t)
            for vertex in range(coloring.graph.p):
                extended = extend_coloring(coloring, vertex)
                assert is_good(extended, s, t) == expected, (coloring, vertex, s, t)

    def test_walk_of_the_extension_is_size_checked(
        self, c5_coloring, nothing_walked, monkeypatch
    ):
        # K_6 at (3,3) walks 40 subsets: refused before the walk starts
        monkeypatch.setattr(ramsat.graphs, "MAX_CLAUSES", 39)
        with pytest.raises(ValueError, match=r"K_6 at \(3,3\) needs up to 40 subsets"):
            is_good(extend_coloring(c5_coloring, 0), 3, 3)

    def test_rejects_missing_vertex(self, c5_coloring):
        with pytest.raises(ValueError, match="vertex 5"):
            extend_coloring(c5_coloring, 5)

    def test_random_relabelings_stay_good(self):
        # 100 sampled (coloring, vertex) pairs across several sizes
        rng = random.Random(1234)
        cases = []
        for n, s, t in ((5, 3, 3), (5, 3, 4), (6, 3, 4), (7, 3, 4), (8, 3, 4)):
            base = good_coloring(n, s, t)
            assert base is not None
            cases.append((base, s, t))
        for _ in range(100):
            base, s, t = rng.choice(cases)
            p = base.graph.p
            relabel = list(range(p))
            rng.shuffle(relabel)
            permuted = EdgeColoring(
                base.graph,
                {
                    (min(relabel[u], relabel[v]), max(relabel[u], relabel[v])): c
                    for (u, v), c in base.assignment.items()
                },
            )
            vertex = rng.randrange(p)
            extended = extend_coloring(permuted, vertex)
            assert is_good(extended, s, t).good


class TestMinDeletions:
    def test_k5_needs_none(self):
        coloring = min_deletions(3, 3, 5, 3)
        assert coloring.graph == DeletedEdgeGraph(5)

    def test_k6_needs_exactly_one(self):
        coloring = min_deletions(3, 3, 6, 3)
        assert isinstance(coloring, EdgeColoring)
        # the first singleton in lex order
        assert coloring.graph == DeletedEdgeGraph(6, ((0, 1),))
        assert is_good(coloring, 3, 3).good

    def test_exhausted(self):
        # K_7 itself has no good coloring: e > 0
        assert min_deletions(3, 3, 7, 0) is None

    def test_monotone_in_p(self):
        counts = [
            len(min_deletions(3, 3, p, 1).graph.deleted) for p in range(2, 7)
        ]
        assert counts == sorted(counts)
        assert counts == [0, 0, 0, 0, 1]

    def test_each_level_is_built_once(self, monkeypatch):
        # K_9 at (3,3) needs e = 4, so the walk builds levels 1..4, each
        # from the level before: one lex-least test per candidate edge
        # after each representative of levels 0..3
        levels = list(islice(ramsat.graphs.deletion_classes(9), 4))
        candidates = sum(
            sum(1 for e in combinations(range(9), 2) if not rep or e > rep[-1])
            for level in levels
            for rep in level
        )
        calls = []
        is_lex_least = ramsat.graphs._is_lex_least

        def counted(target):
            calls.append(target)
            return is_lex_least(target)

        monkeypatch.setattr(ramsat.graphs, "_is_lex_least", counted)
        assert len(min_deletions(3, 3, 9, 4).graph.deleted) == 4
        assert len(calls) == candidates

    def test_k_max_bounds(self):
        with pytest.raises(ValueError):
            min_deletions(3, 3, 4, 7)
        with pytest.raises(ValueError):
            min_deletions(3, 3, 4, -1)

    @pytest.mark.parametrize(
        "s, t, p, message",
        [
            (3, 3, 2000, "over the limit of 1,000,000"),
            (999, 999, 1000, "edges and edge reads"),
        ],
    )
    def test_size_limit_checked_before_any_class(self, nothing_built, s, t, p, message):
        with pytest.raises(ValueError, match=message):
            min_deletions(s, t, p, 0)

    def test_small_p_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            min_deletions(3, 3, -1, 0)

    @pytest.mark.parametrize("s, t, p", [(1, 3, 9), (3, 1, 10), (1, 1, 1)])
    def test_one_clique_size_needs_no_class(self, nothing_built, s, t, p):
        # any vertex is a monochromatic K_1, whatever is deleted: e > k_max
        assert min_deletions(s, t, p, p - 1) is None

    def test_one_clique_size_on_k0(self):
        # K_0 has no vertex, so it is good at any sizes: e = 0
        assert min_deletions(1, 3, 0, 0) == EdgeColoring(DeletedEdgeGraph(0), {})

    def test_one_vertex(self):
        # K_1 has no edge: good when neither size is 1, else no deletion helps
        coloring = min_deletions(3, 3, 1, 0)
        assert coloring == EdgeColoring(DeletedEdgeGraph(1), {})
        assert min_deletions(1, 3, 1, 0) is None

    @pytest.mark.parametrize(
        "s, t, p", [(3, 3, p) for p in range(2, 9)] + [(3, 4, p) for p in range(2, 10)]
    )
    def test_same_answer_as_lex_scan(self, s, t, p):
        expected = lex_scan_min_deletions(s, t, p)
        coloring = min_deletions(s, t, p, p - 1)
        deleted = coloring.graph.deleted
        assert (len(deleted), deleted, coloring.assignment) == expected

    @pytest.mark.parametrize(
        "s, t, p",
        [(3, 3, p) for p in range(2, 11)]
        + [(3, 4, p) for p in range(2, 12)]
        + [(2, 4, p) for p in range(2, 9)]
        + [(2, 5, p) for p in range(2, 9)]
        + [(3, 5, 13), (3, 5, 14)],
    )
    def test_turan_closed_form(self, s, t, p):
        # A good coloring's present graph has no K_r, r = r(s,t), so Turán
        # (1941) bounds it by t(p, r-1) edges; blowing a good coloring of
        # K_{r-1} up into r-1 parts meets the bound.  The lex-first minimal
        # set deletes the cliques on r-1 runs of consecutive vertices, as
        # equal as possible, larger runs first.
        q = KNOWN_RAMSEY[s, t] - 1
        sizes = [p // q + 1] * (p % q) + [p // q] * (q - p % q)
        turan_edges = sum(a * b for a, b in combinations(sizes, 2))
        runs, start = [], 0
        for size in sizes:
            runs += combinations(range(start, start + size), 2)
            start += size
        deleted = min_deletions(s, t, p, math.comb(p, 2)).graph.deleted
        assert len(deleted) == math.comb(p, 2) - turan_edges
        assert deleted == tuple(runs)


def lex_scan_min_deletions(s, t, p):
    """Reference: try every deletion set of each size in lex order of sorted
    edge tuples and return (e, deleted, assignment) of the first colorable one."""
    all_edges = list(combinations(range(p), 2))
    for k in range(len(all_edges) + 1):
        for deleted in combinations(all_edges, k):
            coloring = good_coloring(p, s, t, deleted)
            if coloring is not None:
                return k, deleted, coloring.assignment
    raise AssertionError(f"K_{p} minus all its edges has no good coloring")

