"""The record types: immutable named tuples that validate on every path."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramsat
from ramsat import (
    CnfFormula,
    ColoringDocument,
    Decision,
    DeletedEdgeGraph,
    EdgeColoring,
    RamseyResult,
    SolveResult,
    Verdict,
    decide,
    encode,
    solve,
)
from .conftest import C5_RED, make_coloring

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, ramsat.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_no_public_class_is_a_dataclass():
    for name in ramsat.__all__:
        assert not dataclasses.is_dataclass(getattr(ramsat, name)), name


def all_records():
    graph = DeletedEdgeGraph(4, ((0, 1),))
    coloring = make_coloring(5, C5_RED)
    formula = encode(DeletedEdgeGraph(3), 3, 3)
    return [
        formula,
        coloring,
        Verdict(True),
        ColoringDocument.from_coloring(coloring),
        solve(formula),
        graph,
        RamseyResult(6, coloring),
        decide(DeletedEdgeGraph(5), 3, 3),
    ]


def test_the_eight_records_are_covered():
    assert {type(r) for r in all_records()} == {
        CnfFormula, EdgeColoring, Verdict, ColoringDocument, SolveResult,
        DeletedEdgeGraph, RamseyResult, Decision,
    }


@pytest.mark.parametrize("record", all_records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no __dict__ to put it in


# (valid instance, field, bad value, error, message)
BAD_FIELDS = [
    (encode(DeletedEdgeGraph(3), 3, 3), "clauses", ((1, 0),), ValueError,
     "0 is not a literal"),
    (encode(DeletedEdgeGraph(3), 3, 3), "num_vars", 2, ValueError,
     r"variable 3 outside 1\.\.2"),
    (make_coloring(3, set()), "assignment", {}, ValueError,
     r"coloring misses present edge \(0, 1\)"),
    (DeletedEdgeGraph(4), "deleted", ((0, 4),), ValueError,
     r"deleted edge \(0,4\) has an endpoint outside K_4"),
    (DeletedEdgeGraph(4, ((0, 1),)), "p", -1, ValueError,
     "vertex count must be non-negative"),
]


@pytest.mark.parametrize("path", ["constructor", "_make", "_replace"])
@pytest.mark.parametrize(
    "good, field, bad, error, message",
    BAD_FIELDS,
    ids=[f"{type(case[0]).__name__}.{case[1]}" for case in BAD_FIELDS],
)
def test_validating_records_reject_bad_input_on_every_path(
    good, field, bad, error, message, path
):
    fields = good._asdict()
    fields[field] = bad
    build = {
        "constructor": lambda: type(good)(**fields),
        "_make": lambda: type(good)._make(fields.values()),
        "_replace": lambda: good._replace(**{field: bad}),
    }[path]
    with pytest.raises(error, match=message):
        build()


def test_make_and_replace_canonicalise_deleted_edges():
    graph = DeletedEdgeGraph(4)
    assert graph._replace(deleted=((2, 1), (1, 0))).deleted == ((0, 1), (1, 2))
    assert DeletedEdgeGraph._make([4, [(3, 2)]]) == DeletedEdgeGraph(4, ((2, 3),))


def test_deleted_edges_are_canonical_for_equality_and_hash():
    reversed_edge = DeletedEdgeGraph(4, ((1, 0),))
    canonical = DeletedEdgeGraph(4, ((0, 1),))
    assert reversed_edge == canonical
    assert hash(reversed_edge) == hash(canonical)
    assert repr(reversed_edge) == "DeletedEdgeGraph(p=4, deleted=((0, 1),))"


def test_records_unpack_and_equal_plain_tuples():
    assert repr(Verdict(True)) == "Verdict(good=True, witness=None)"
    good, witness = Verdict(True)
    assert (good, witness) == (True, None)
    assert DeletedEdgeGraph(3, ((0, 2),)) == (3, ((0, 2),))
