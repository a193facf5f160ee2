"""Encoder, decoder, and DIMACS export."""

from __future__ import annotations

from itertools import combinations, permutations, product

import pytest

import ramsat.graphs
from ramsat import (
    CnfFormula,
    Color,
    DeletedEdgeGraph,
    EdgeColoring,
    SolveStatus,
    decode,
    edge,
    encode,
    export_dimacs,
    is_good,
    solve,
)
from ramsat.cnf import symmetry_break

K3_DIMACS = """c var 1 = edge (0,1)
c var 2 = edge (0,2)
c var 3 = edge (1,2)
p cnf 3 2
-1 -2 -3 0
1 2 3 0
"""


def satisfies(formula: CnfFormula, word: int) -> bool:
    """Evaluate the clause set under assignment bit i-1 of word for var i."""

    def lit_true(lit: int) -> bool:
        value = bool(word >> (abs(lit) - 1) & 1)
        return value if lit > 0 else not value

    return all(any(lit_true(lit) for lit in clause) for clause in formula.clauses)


class TestCnfFormula:
    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, 0),))

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((3,),))

    def test_rejects_duplicate_variable(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, 1),))

    def test_rejects_complementary_pair(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, -1),))

    @pytest.mark.parametrize(
        "last, message",
        [
            (0, "0 is not a literal"),
            (11, r"variable 11 outside 1\.\.10"),
            (-11, r"variable 11 outside 1\.\.10"),
            (4, "a variable appears twice in a clause"),
            (-4, "a variable appears twice in a clause"),
        ],
    )
    def test_checks_every_literal_of_a_wide_clause(self, last, message):
        # ten literals, the width of a blue-blocking clause at t = 5; the
        # bad one comes last
        with pytest.raises(ValueError, match=message):
            CnfFormula(10, ((*range(1, 10), last),))


class TestEncode:
    def test_k3_exact_clauses(self):
        formula = encode(DeletedEdgeGraph(3), 3, 3)
        assert formula.num_vars == 3
        assert formula.clauses == ((-1, -2, -3), (1, 2, 3))

    def test_k6_counts(self):
        formula = encode(DeletedEdgeGraph(6), 3, 3)
        assert formula.num_vars == 15
        assert len(formula.clauses) == 40

    def test_k6_clause_ordering(self):
        formula = encode(DeletedEdgeGraph(6), 3, 3)
        # first 20 clauses block red triangles, in subset order
        assert formula.clauses[0] == (-1, -2, -6)
        assert all(all(l < 0 for l in c) for c in formula.clauses[:20])
        assert all(all(l > 0 for l in c) for c in formula.clauses[20:])
        assert formula.clauses[20] == (1, 2, 6)

    def test_deleted_edge_drops_vars_and_clauses(self):
        formula = encode(DeletedEdgeGraph(6, ((0, 5),)), 3, 3)
        assert formula.num_vars == 14
        # oracle for the clause count: triples avoiding the deleted pair
        spanning = sum(
            1 for s in combinations(range(6), 3) if 0 in s and 5 in s
        )
        assert spanning == 4
        assert len(formula.clauses) == 2 * (20 - spanning)

    def test_asymmetric_sizes(self):
        formula = encode(DeletedEdgeGraph(5), 3, 4)
        red_blocking = [c for c in formula.clauses if c[0] < 0]
        blue_blocking = [c for c in formula.clauses if c[0] > 0]
        assert len(red_blocking) == 10  # C(5,3)
        assert len(blue_blocking) == 5  # C(5,4)
        assert all(len(c) == 3 for c in red_blocking)
        assert all(len(c) == 6 for c in blue_blocking)

    def test_size_one_gives_empty_clause(self):
        formula = encode(DeletedEdgeGraph(3), 1, 3)
        assert () in formula.clauses
        assert solve(formula).status is not SolveStatus.SAT

    def test_oversized_cliques_give_no_clauses(self):
        formula = encode(DeletedEdgeGraph(3), 4, 5)
        assert formula.clauses == ()

    def test_empty_graph_encodes_to_the_empty_formula(self):
        # K_0 has no vertex to form a clique of any size, and no edge
        graph = DeletedEdgeGraph(0)
        for s, t in ((1, 1), (1, 3), (3, 3)):
            assert encode(graph, s, t) == (0, ())
        result = solve(encode(graph, 3, 3))
        assert result.status is SolveStatus.SAT
        assert decode(result.model, graph) == EdgeColoring(graph, {})

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            encode(DeletedEdgeGraph(3), 0, 3)

    def test_clause_limit_checked_before_building(self, monkeypatch):
        # K_6 at (3,3) can need C(6,3) + C(6,3) = 40 clauses
        monkeypatch.setattr(ramsat.graphs, "MAX_CLAUSES", 40)
        assert len(encode(DeletedEdgeGraph(6), 3, 3).clauses) == 40
        # the bound ignores deletions: this graph has only 32 clique triples
        monkeypatch.setattr(ramsat.graphs, "MAX_CLAUSES", 39)
        with pytest.raises(ValueError, match="over the limit of 39"):
            encode(DeletedEdgeGraph(6, ((0, 1),)), 3, 3)

    @pytest.mark.parametrize(
        "n, s, t, size",
        [(1000, 999, 999, "997,501,500"), (5000, 5000, 5000, "37,492,500")],
    )
    def test_size_limit_counts_variables_and_literals(
        self, nothing_built, n, s, t, size
    ):
        # two clauses each, but C(n,2) variables and clauses of C(s,2) literals
        message = f"needs up to {size} edges and edge reads"
        with pytest.raises(ValueError, match=message):
            encode(DeletedEdgeGraph(n), s, t)

    def test_size_limit_admits_k23_at_3_7(self, nothing_built):
        # 253 variables and 5,153,610 literals: past both checks
        with pytest.raises(AssertionError, match="past the size guard"):
            encode(DeletedEdgeGraph(23), 3, 7)

    def test_size_limit_is_exact(self, monkeypatch):
        # K_6 at (3,3): 15 variables and 40 clauses of 3 literals
        monkeypatch.setattr(ramsat.graphs, "MAX_SIZE", 135)
        assert encode(DeletedEdgeGraph(6), 3, 3).num_vars == 15
        monkeypatch.setattr(ramsat.graphs, "MAX_SIZE", 134)
        with pytest.raises(ValueError, match="135 edges and edge reads"):
            encode(DeletedEdgeGraph(6), 3, 3)

    def test_soundness_exhaustive_k4(self):
        # every assignment satisfies the formula iff its coloring is good
        graph = DeletedEdgeGraph(4)
        formula = encode(graph, 3, 3)
        present = graph.present_edges()
        for word in range(1 << 6):
            model = {i + 1: bool(word >> i & 1) for i in range(6)}
            coloring = decode(model, graph)
            assert satisfies(formula, word) == is_good(coloring, 3, 3).good

    def test_soundness_exhaustive_with_deletion(self):
        graph = DeletedEdgeGraph(5, ((1, 3),))
        formula = encode(graph, 3, 3)
        for word in range(1 << 9):
            model = {i + 1: bool(word >> i & 1) for i in range(9)}
            coloring = decode(model, graph)
            assert satisfies(formula, word) == is_good(coloring, 3, 3).good


def breaking_only(graph: DeletedEdgeGraph) -> CnfFormula:
    """The lex-leader clauses of the graph over an otherwise empty formula."""
    return symmetry_break(graph, CnfFormula(len(graph.present_edges()), ()))


class TestSymmetryBreak:
    def test_k3_exact_clauses(self):
        # swap (0,1) compares column 2, swap (1,2) column 0; no helpers
        formula = breaking_only(DeletedEdgeGraph(3))
        assert formula.num_vars == 3
        assert formula.clauses == ((-2, 3), (-1, 2))

    def test_k5_counts(self):
        # four swaps of three columns: two helpers and seven clauses each
        plain = encode(DeletedEdgeGraph(5), 3, 3)
        broken = symmetry_break(DeletedEdgeGraph(5), plain)
        assert broken.num_vars == plain.num_vars + 8
        assert len(broken.clauses) == len(plain.clauses) + 28
        assert broken.clauses[: len(plain.clauses)] == plain.clauses

    def test_helper_chain(self):
        # K_4 rows 0 and 1 over columns 2, 3; helper 7 = "equal at column 2"
        formula = breaking_only(DeletedEdgeGraph(4))
        assert formula.clauses[:4] == ((-2, 4), (-2, 7), (4, 7), (-7, -3, 5))

    def test_twins_swap_even_when_apart_or_joined_by_a_deleted_edge(self):
        # K_4 minus 0-2: variables (0,1) (0,3) (1,2) (1,3) (2,3) = 1..5;
        # swap (0,2) compares columns 1, 3, swap (1,3) columns 0, 2
        formula = breaking_only(DeletedEdgeGraph(4, ((0, 2),)))
        assert formula.num_vars == 5 + 2
        assert formula.clauses == (
            (-1, 3), (-1, 6), (3, 6), (-6, -2, 5),
            (-1, 2), (-1, 7), (2, 7), (-7, -3, 5),
        )
        # K_4 minus 0-1: variables (0,2) (0,3) (1,2) (1,3) (2,3) = 1..5;
        # swap (0,1) compares columns 2, 3, swap (2,3) columns 0, 1
        formula = breaking_only(DeletedEdgeGraph(4, ((0, 1),)))
        assert formula.num_vars == 5 + 2
        assert formula.clauses == (
            (-1, 3), (-1, 6), (3, 6), (-6, -2, 4),
            (-1, 2), (-1, 7), (2, 7), (-7, -3, 4),
        )

    @pytest.mark.parametrize(
        "graph",
        [DeletedEdgeGraph(14), DeletedEdgeGraph(10, ((2, 7),))]
        + [
            DeletedEdgeGraph(n, deleted)
            for n in range(1, 7)
            for k in range(3)
            for deleted in combinations(combinations(range(n), 2), k)
        ],
    )
    def test_result_passes_the_full_check(self, graph):
        # symmetry_break checks only the clauses it adds
        for s, t in ((3, 3), (3, 4), (4, 4), (3, 5)):
            formula = symmetry_break(graph, encode(graph, s, t))
            assert CnfFormula._make(formula) == formula

    def test_rejects_a_row_above_the_next(self):
        # (0,2) red and (1,2) blue puts row 0 above row 1 at column 2
        units = ((-1,), (2,), (-3,))
        formula = breaking_only(DeletedEdgeGraph(3))
        constrained = CnfFormula(3, formula.clauses + units)
        assert solve(constrained).status is SolveStatus.UNSAT

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_orbit_keeps_its_lex_leader(self, n):
        # For every graph with at most two deleted edges and every coloring,
        # the lex-least relabelling by an automorphism (false < true, edges
        # in variable order) satisfies the breaking clauses.  At n = 6 only
        # K_6 minus 0-5, whose twins 0 and 5 are not adjacent labels.
        if n == 6:
            deletion_sets = [((0, 5),)]
        else:
            edges = list(combinations(range(n), 2))
            deletion_sets = [d for k in range(3) for d in combinations(edges, k)]
        for deleted in deletion_sets:
            graph = DeletedEdgeGraph(n, deleted)
            present = graph.present_edges()
            position = {e: i for i, e in enumerate(present)}
            images = [
                [position[edge(perm[u], perm[v])] for u, v in present]
                for perm in permutations(range(n))
                if {edge(perm[u], perm[v]) for u, v in deleted} == set(deleted)
            ]
            leaders = {
                min(tuple(bits[i] for i in image) for image in images)
                for bits in product((False, True), repeat=len(present))
            }
            formula = breaking_only(graph)
            for leader in leaders:
                units = tuple(
                    (var if red else -var,) for var, red in enumerate(leader, 1)
                )
                fixed = CnfFormula(formula.num_vars, formula.clauses + units)
                assert solve(fixed).status is SolveStatus.SAT, (deleted, leader)


class TestDecode:
    def test_all_true_is_all_red(self):
        graph = DeletedEdgeGraph(3)
        coloring = decode({1: True, 2: True, 3: True}, graph)
        assert all(c is Color.RED for c in coloring.assignment.values())

    def test_false_is_blue(self):
        graph = DeletedEdgeGraph(3)
        coloring = decode({1: True, 2: False, 3: True}, graph)
        assert coloring.assignment[(0, 2)] is Color.BLUE

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError, match="misses variable 3"):
            decode({1: True, 2: False}, DeletedEdgeGraph(3))

    def test_auxiliary_variables_ignored(self):
        graph = DeletedEdgeGraph(3)
        coloring = decode({1: True, 2: False, 3: True, 4: True}, graph)
        assert coloring.assignment[(0, 1)] is Color.RED

    def test_respects_deletions(self):
        graph = DeletedEdgeGraph(4, ((0, 2),))
        coloring = decode({v: False for v in range(1, 6)}, graph)
        assert (0, 2) not in coloring.assignment
        assert len(coloring.assignment) == 5


def dimacs(graph: DeletedEdgeGraph, s: int, t: int) -> str:
    return export_dimacs(encode(graph, s, t), graph)


class TestExportDimacs:
    def test_k3_exact_bytes(self):
        assert dimacs(DeletedEdgeGraph(3), 3, 3) == K3_DIMACS

    def test_k6_header(self):
        text = dimacs(DeletedEdgeGraph(6), 3, 3)
        assert "p cnf 15 40" in text.splitlines()

    def test_deleted_edge_header_and_comments(self):
        text = dimacs(DeletedEdgeGraph(6, ((0, 5),)), 3, 3)
        lines = text.splitlines()
        assert "p cnf 14 32" in lines
        assert "c var 5 = edge (1,2)" in lines
        assert not any("(0,5)" in line for line in lines)

    def test_empty_clause_renders_bare_zero(self):
        text = dimacs(DeletedEdgeGraph(2), 1, 2)
        assert "\n0\n" in text

    def test_ends_with_newline_no_crlf(self):
        text = dimacs(DeletedEdgeGraph(5), 3, 3)
        assert text.endswith("\n")
        assert "\r" not in text

    def test_comments_precede_header(self):
        lines = dimacs(DeletedEdgeGraph(4), 3, 3).splitlines()
        header = lines.index("p cnf 6 8")
        assert all(line.startswith("c var") for line in lines[:header])

    def test_comments_name_only_the_graph_edges(self):
        # helper variables of symmetry breaking get no comment line
        graph = DeletedEdgeGraph(4)
        formula = symmetry_break(graph, encode(graph, 3, 3))
        assert formula.num_vars > 6
        lines = export_dimacs(formula, graph).splitlines()
        assert lines[5:7] == [
            "c var 6 = edge (2,3)",
            f"p cnf {formula.num_vars} {len(formula.clauses)}",
        ]
