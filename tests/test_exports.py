"""The package's public names."""

from __future__ import annotations

import ramsat
import ramsat.cli
import ramsat.coloring
import ramsat.errors
import ramsat.graphs
import ramsat.search


def test_all_names_resolve_without_duplicates():
    assert len(set(ramsat.__all__)) == len(ramsat.__all__)
    for name in ramsat.__all__:
        assert hasattr(ramsat, name), name


def test_test_scaffolding_is_not_exported():
    # the exhaustive oracle lives in tests/oracle.py; is_good is the one verifier
    for name in ("find_mono_clique", "brute_force_good_coloring", "ENUMERATION_LIMIT"):
        assert name not in ramsat.__all__
        assert not hasattr(ramsat, name), name
        assert not hasattr(ramsat.coloring, name), name


def test_subset_is_clique_stays_a_graphs_global():
    # the benchmark's layer tracer wraps it there and at each import site;
    # only the package's own modules and tests call it
    assert callable(ramsat.graphs.subset_is_clique)
    assert ramsat.coloring.subset_is_clique is ramsat.graphs.subset_is_clique
    assert "subset_is_clique" not in ramsat.__all__
    assert not hasattr(ramsat, "subset_is_clique")


def test_document_methods_stay_in_the_class_dict():
    # the benchmark's layer tracer wraps each of these by name in
    # ColoringDocument.__dict__, unwrapping the two classmethods
    methods = vars(ramsat.ColoringDocument)
    for name in ("from_json_text", "to_coloring", "from_coloring", "to_json_text", "to_dot"):
        assert name in methods, name
    for name in ("from_json_text", "from_coloring"):
        assert isinstance(methods[name], classmethod), name
    for name in ("to_coloring", "to_json_text", "to_dot"):
        assert callable(methods[name]), name


def test_a_search_past_its_cap_is_an_answer_not_an_error():
    # min_deletions returns None past its cap; only BudgetExceededError
    # means "no answer"
    assert "SearchExhaustedError" not in ramsat.__all__
    assert not hasattr(ramsat, "SearchExhaustedError")
    assert not hasattr(ramsat.errors, "SearchExhaustedError")


def test_edge_facts_have_one_source():
    # a formula's variables are its graph's present edges, and min_deletions
    # returns the coloring whose graph holds the deleted edges
    assert ramsat.CnfFormula._fields == ("num_vars", "clauses")
    assert "DeletionResult" not in ramsat.__all__
    assert not hasattr(ramsat, "DeletionResult")
    assert not hasattr(ramsat.search, "DeletionResult")


def test_the_ramsey_walk_has_no_ceiling():
    # ramsey_number ends at r(s,t) or when its one budget runs out
    for module in (ramsat, ramsat.search, ramsat.cli):
        assert not hasattr(module, "DEFAULT_MAX_N"), module.__name__
    assert "DEFAULT_MAX_N" not in ramsat.__all__


def test_min_deletions_solves_each_class_through_good_coloring(monkeypatch):
    # the benchmark's layer tracer counts these calls as search.candidates:
    # K_6 at (3,3) solves the empty set, then the one class of one edge
    calls = []
    good_coloring = ramsat.search.good_coloring

    def counted(*args, **kwargs):
        calls.append(args)
        return good_coloring(*args, **kwargs)

    monkeypatch.setattr(ramsat.search, "good_coloring", counted)
    assert len(ramsat.search.min_deletions(3, 3, 6, 5).graph.deleted) == 1
    assert len(calls) == 2
