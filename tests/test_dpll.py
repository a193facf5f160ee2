"""Solver unit tests: hand instances, determinism, budget, oracle agreement."""

from __future__ import annotations

from itertools import combinations

import pytest

from ramsat import (
    DEFAULT_DECISION_BUDGET,
    CnfFormula,
    DeletedEdgeGraph,
    SolveStatus,
    decide,
    decode,
    encode,
    is_good,
    solve,
)
from ramsat.cnf import symmetry_break
from .oracle import brute_force_good_coloring


class TestHandInstances:
    def test_empty_formula_is_sat(self):
        result = solve(CnfFormula(0, ()))
        assert result.status is SolveStatus.SAT
        assert result.model == {}

    def test_no_clauses_all_true(self):
        # unconstrained variables get the tried-first phase
        result = solve(CnfFormula(3, ()))
        assert result.model == {1: True, 2: True, 3: True}

    def test_empty_clause_is_unsat(self):
        result = solve(CnfFormula(2, ((),)))
        assert result.status is SolveStatus.UNSAT
        assert result.model is None

    def test_conflicting_units(self):
        assert solve(CnfFormula(1, ((1,), (-1,)))).status is SolveStatus.UNSAT

    def test_unit_chain(self):
        result = solve(CnfFormula(3, ((1,), (-1, 2), (-2, 3))))
        assert result.model == {1: True, 2: True, 3: True}
        assert result.decisions == 0

    def test_requires_branching_unsat(self):
        result = solve(CnfFormula(2, ((1, 2), (-1, 2), (1, -2), (-1, -2))))
        assert result.status is SolveStatus.UNSAT
        assert result.decisions > 0

    def test_negative_unit_forces_false(self):
        result = solve(CnfFormula(2, ((-1,), (1, 2))))
        assert result.model == {1: False, 2: True}

    def test_lowest_variable_first_true_first(self):
        # (-1 or -2): branch on 1 as true, then 2 must flip to false
        result = solve(CnfFormula(2, ((-1, -2),)))
        assert result.model == {1: True, 2: False}

    def test_long_clause_watch_shuffling(self):
        result = solve(CnfFormula(4, ((1, 2, 3, 4), (-1,), (-2,), (-3,))))
        assert result.model == {1: False, 2: False, 3: False, 4: True}

    @pytest.mark.parametrize(
        "clauses",
        [((1,), (-2,), (1, 2), ()), ((1,), (2, 3), (2,), (-1,))],
        ids=["empty-clause-after-units", "unit-contradicts-earlier-unit"],
    )
    def test_loading_pass_refutes_without_deciding(self, clauses):
        assert solve(CnfFormula(3, clauses)) == (SolveStatus.UNSAT, None, 0)

    def test_repeated_unit_is_sat(self):
        result = solve(CnfFormula(2, ((1,), (-1, 2), (1,))))
        assert result == (SolveStatus.SAT, {1: True, 2: True}, 0)


class TestRamseyInstances:
    def test_k5_33_sat(self):
        graph = DeletedEdgeGraph(5)
        result = solve(encode(graph, 3, 3))
        assert result.status is SolveStatus.SAT
        assert is_good(decode(result.model, graph), 3, 3).good

    def test_k6_33_unsat(self):
        assert solve(encode(DeletedEdgeGraph(6), 3, 3)).status is SolveStatus.UNSAT

    def test_k6_minus_edge_sat(self):
        graph = DeletedEdgeGraph(6, ((0, 5),))
        result = solve(encode(graph, 3, 3))
        assert result.status is SolveStatus.SAT
        assert is_good(decode(result.model, graph), 3, 3).good

    def test_k2_trivial(self):
        result = solve(encode(DeletedEdgeGraph(2), 3, 3))
        assert result.status is SolveStatus.SAT
        assert result.model == {1: True}

    def test_model_is_total(self):
        formula_ = encode(DeletedEdgeGraph(5), 3, 4)
        result = solve(formula_)
        assert set(result.model) == set(range(1, formula_.num_vars + 1))

    def test_deletion_monotone_satisfiability(self):
        # adding deletions only removes constraints
        assert solve(encode(DeletedEdgeGraph(5), 3, 3)).status is SolveStatus.SAT
        assert solve(encode(DeletedEdgeGraph(5, ((0, 1),)), 3, 3)).status is SolveStatus.SAT
        assert solve(encode(DeletedEdgeGraph(5, ((0, 1), (2, 3))), 3, 3)).status is SolveStatus.SAT


# (p, deleted, s, t, budget, status, decisions) of the search that decide runs
PINNED_SEARCHES = [
    (5, (), 3, 3, DEFAULT_DECISION_BUDGET, SolveStatus.SAT, 9),
    (6, (), 3, 3, DEFAULT_DECISION_BUDGET, SolveStatus.UNSAT, 6),
    (8, (), 3, 4, DEFAULT_DECISION_BUDGET, SolveStatus.SAT, 39),
    (9, (), 3, 4, DEFAULT_DECISION_BUDGET, SolveStatus.UNSAT, 48),
    (13, (), 3, 5, DEFAULT_DECISION_BUDGET, SolveStatus.SAT, 98),
    (14, (), 3, 5, DEFAULT_DECISION_BUDGET, SolveStatus.UNSAT, 416),
    (10, ((0, 1),), 3, 4, DEFAULT_DECISION_BUDGET, SolveStatus.UNSAT, 236),
    (10, ((0, 1), (2, 3)), 3, 4, DEFAULT_DECISION_BUDGET, SolveStatus.SAT, 33),
    (9, (), 3, 4, 47, SolveStatus.BUDGET_EXCEEDED, 47),
]


@pytest.mark.parametrize(
    "p, deleted, s, t, budget, status, decisions",
    PINNED_SEARCHES,
    ids=[f"K{c[0]}-{len(c[1])}del-({c[2]},{c[3]})-{c[5].name}" for c in PINNED_SEARCHES],
)
def test_symmetry_broken_search_is_pinned(p, deleted, s, t, budget, status, decisions):
    """Exact status and decision count, so any change to the branch order,
    the phase or the decision count shows."""
    graph = DeletedEdgeGraph(p, deleted)
    broken = symmetry_break(graph, encode(graph, s, t))
    result = solve(broken, budget)
    assert (result.status, result.decisions) == (status, decisions)


# K_10 minus one edge at (3,4): exact decision counts, and the most any edge takes
K10_MINUS_EDGE_DECISIONS = {(0, 1): 236, (2, 7): 108, (3, 7): 112}
K10_MINUS_EDGE_MOST = 236


def test_k10_minus_any_edge_is_unsat_within_pinned_decisions():
    """Twins that are not adjacent labels, such as 1 and 3 or 2 and 7 in
    K_10 minus 2-7, keep their lex-leader clauses, so every edge is cheap."""
    counts = {}
    for deleted in combinations(range(10), 2):
        graph = DeletedEdgeGraph(10, (deleted,))
        result = solve(symmetry_break(graph, encode(graph, 3, 4)))
        assert result.status is SolveStatus.UNSAT, deleted
        counts[deleted] = result.decisions
    assert max(counts.values()) == K10_MINUS_EDGE_MOST
    assert {e: counts[e] for e in K10_MINUS_EDGE_DECISIONS} == K10_MINUS_EDGE_DECISIONS


class TestDeterminism:
    def test_identical_results_on_repeat(self):
        formula_ = encode(DeletedEdgeGraph(5), 3, 3)
        first = solve(formula_)
        second = solve(formula_)
        assert first == second

    def test_identical_unsat_decision_counts(self):
        formula_ = encode(DeletedEdgeGraph(6), 3, 3)
        assert solve(formula_).decisions == solve(formula_).decisions


class TestBudget:
    def test_budget_exceeded_reported(self):
        result = solve(encode(DeletedEdgeGraph(6), 3, 3), budget=5)
        assert result.status is SolveStatus.BUDGET_EXCEEDED
        assert result.model is None
        assert result.decisions == 5

    def test_zero_budget_still_propagates(self):
        # decided entirely by unit propagation, no decisions needed
        result = solve(CnfFormula(2, ((1,), (-1, 2))), budget=0)
        assert result.status is SolveStatus.SAT

    def test_zero_budget_blocks_first_decision(self):
        result = solve(CnfFormula(1, ()), budget=0)
        assert result.status is SolveStatus.BUDGET_EXCEEDED

    @pytest.mark.parametrize("budget", range(7))
    def test_never_counts_a_decision_it_did_not_make(self, budget):
        # the symmetry-broken K_6 at (3,3) is UNSAT after exactly 6 decisions
        graph = DeletedEdgeGraph(6)
        result = solve(symmetry_break(graph, encode(graph, 3, 3)), budget)
        assert result.decisions <= budget
        assert (result.status is SolveStatus.BUDGET_EXCEEDED) == (budget < 6)
        assert decide(graph, 3, 3, budget=budget).decisions == result.decisions

    def test_exact_budget_suffices(self):
        reference = solve(encode(DeletedEdgeGraph(6), 3, 3))
        again = solve(encode(DeletedEdgeGraph(6), 3, 3), budget=reference.decisions)
        assert again.status is SolveStatus.UNSAT


class TestOracleAgreement:
    DELETION_SETS = [(), ((0, 1),), ((0, 1), (2, 3)), ((0, 1), (1, 2))]

    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 3), (3, 4)])
    @pytest.mark.parametrize("deleted", DELETION_SETS)
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_brute_force(self, n, deleted, s, t):
        graph = DeletedEdgeGraph(n, deleted)
        oracle = brute_force_good_coloring(graph, s, t)
        result = solve(encode(graph, s, t))
        assert (result.status is SolveStatus.SAT) == (oracle is not None)
        if result.status is SolveStatus.SAT:
            assert is_good(decode(result.model, graph), s, t).good
