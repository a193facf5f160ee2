"""JSON document schema, round trips, and DOT export."""

from __future__ import annotations

import json

import pytest

from ramsat import Color, ColoringDocument, DeletedEdgeGraph, DocumentError, EdgeColoring
from .conftest import C5_RED, make_coloring
from .oracle import every_coloring


def c5_document() -> ColoringDocument:
    return ColoringDocument.from_coloring(make_coloring(5, C5_RED))


def document_text(n, deleted_edges, red, blue) -> str:
    return json.dumps({"n": n, "deleted_edges": deleted_edges, "red": red, "blue": blue})


class TestSchema:
    def test_from_coloring_fields(self, monkeypatch):
        # the document wraps the checked coloring and checks nothing again:
        # no edge list is built
        coloring = make_coloring(5, C5_RED)
        monkeypatch.delattr(DeletedEdgeGraph, "present_edges")
        doc = ColoringDocument.from_coloring(coloring)
        assert ColoringDocument._fields == ("coloring",)
        assert doc.coloring is coloring
        assert doc.to_coloring() is coloring

    def test_rejects_overlap(self):
        with pytest.raises(DocumentError, match="more than one list"):
            ColoringDocument.from_json_text(
                document_text(3, [], [[0, 1], [0, 2]], [[0, 1], [1, 2]])
            )

    def test_rejects_gap(self):
        with pytest.raises(DocumentError, match="lists cover 2 edges but K_3 has 3"):
            ColoringDocument.from_json_text(document_text(3, [], [[0, 1]], [[1, 2]]))

    def test_rejects_non_canonical_pair(self):
        with pytest.raises(DocumentError, match=r"non-canonical .* pair \[1, 0\]"):
            ColoringDocument.from_json_text(
                document_text(3, [], [[1, 0], [0, 2]], [[1, 2]])
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(DocumentError, match="out-of-range"):
            ColoringDocument.from_json_text(
                document_text(3, [], [[0, 3], [0, 2]], [[1, 2]])
            )

    def test_rejects_unsorted_list(self):
        with pytest.raises(DocumentError, match="red is not sorted"):
            ColoringDocument.from_json_text(
                document_text(3, [], [[0, 2], [0, 1]], [[1, 2]])
            )

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DocumentError, match="twice"):
            ColoringDocument.from_json_text(
                document_text(3, [], [[0, 1], [0, 1], [0, 2]], [[1, 2]])
            )

    def test_rejects_negative_n(self):
        with pytest.raises(DocumentError, match="non-negative"):
            ColoringDocument.from_json_text(document_text(-1, [], [], []))

    def test_empty_graph_allowed(self):
        doc = ColoringDocument.from_json_text(document_text(1, [], [], []))
        assert doc.to_coloring().graph.p == 1

    def test_huge_n_refused_before_any_edge_list(self, nothing_built):
        with pytest.raises(DocumentError, match="lists cover 0 edges"):
            ColoringDocument.from_json_text(document_text(10**30, [], [], []))


class TestJsonRoundTrip:
    def test_bytes_stable(self):
        doc = c5_document()
        text = doc.to_json_text()
        assert ColoringDocument.from_json_text(text) == doc
        assert ColoringDocument.from_json_text(text).to_json_text() == text

    def test_text_shape(self):
        text = c5_document().to_json_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == ["blue", "deleted_edges", "n", "red"]  # sorted keys

    def test_rejects_invalid_json(self):
        with pytest.raises(DocumentError, match="not valid JSON"):
            ColoringDocument.from_json_text("{nope")

    def test_rejects_nesting_past_the_recursion_limit(self):
        with pytest.raises(DocumentError, match="not valid JSON"):
            ColoringDocument.from_json_text("[" * 100_000)

    def test_rejects_an_integer_past_the_digit_limit(self):
        # where CPython caps integer digits (4,300 by default) json
        # refuses this n; without the cap the edge count fails instead
        with pytest.raises(DocumentError):
            ColoringDocument.from_json_text(
                '{"n": %s, "deleted_edges": [], "red": [], "blue": []}' % ("1" * 5000)
            )

    def test_rejects_non_object(self):
        with pytest.raises(DocumentError, match="object"):
            ColoringDocument.from_json_text("[1, 2]")

    def test_rejects_missing_key(self):
        with pytest.raises(DocumentError, match="missing key 'blue'"):
            ColoringDocument.from_json_text('{"n": 1, "deleted_edges": [], "red": []}')

    def test_rejects_extra_key(self):
        text = '{"n": 1, "deleted_edges": [], "red": [], "blue": [], "extra": 0}'
        with pytest.raises(DocumentError, match="unexpected key 'extra'"):
            ColoringDocument.from_json_text(text)

    def test_rejects_boolean_n(self):
        text = '{"n": true, "deleted_edges": [], "red": [], "blue": []}'
        with pytest.raises(DocumentError, match="integer"):
            ColoringDocument.from_json_text(text)

    def test_rejects_non_integer_vertex(self):
        text = '{"n": 3, "deleted_edges": [], "red": [["0", 1]], "blue": [[0, 2], [1, 2]]}'
        with pytest.raises(DocumentError, match="non-integer"):
            ColoringDocument.from_json_text(text)

    def test_rejects_triple_entry(self):
        text = '{"n": 3, "deleted_edges": [], "red": [[0, 1, 2]], "blue": []}'
        with pytest.raises(DocumentError, match="two-element"):
            ColoringDocument.from_json_text(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 9, "deleted_edges": [], "red": [[0, 1], [0, 2], [1, 2]], '
            '"blue": [], "n": 3}',
            '{"n": 2, "deleted_edges": [], "red": [[0, 1]], "blue": [], "n": 2}',
        ],
        ids=["last-one-good", "same-value"],
    )
    def test_rejects_repeated_key(self, text):
        # json.loads alone keeps the last value of a repeated key
        with pytest.raises(DocumentError, match="^duplicate key 'n'$"):
            ColoringDocument.from_json_text(text)

    def test_rejects_non_list_field(self):
        text = '{"n": 3, "deleted_edges": {}, "red": [], "blue": []}'
        with pytest.raises(DocumentError, match="must be a list"):
            ColoringDocument.from_json_text(text)


class TestColoringRoundTrip:
    def test_document_coloring_document(self):
        doc = c5_document()
        assert ColoringDocument.from_coloring(doc.to_coloring()) == doc

    def test_with_deleted_edges(self):
        coloring = make_coloring(6, {(1, 2), (2, 3)}, deleted=((0, 5),))
        text = ColoringDocument.from_coloring(coloring).to_json_text()
        assert json.loads(text)["deleted_edges"] == [[0, 5]]
        restored = ColoringDocument.from_json_text(text).to_coloring()
        assert restored == coloring
        assert restored.assignment[(1, 2)] is Color.RED


class TestDot:
    def test_c5_exact_text(self):
        dot = c5_document().to_dot()
        expected = (
            "graph coloring {\n"
            "  0;\n  1;\n  2;\n  3;\n  4;\n"
            "  0 -- 1 [color=red];\n"
            "  0 -- 2 [color=blue];\n"
            "  0 -- 3 [color=blue];\n"
            "  0 -- 4 [color=red];\n"
            "  1 -- 2 [color=red];\n"
            "  1 -- 3 [color=blue];\n"
            "  1 -- 4 [color=blue];\n"
            "  2 -- 3 [color=red];\n"
            "  2 -- 4 [color=blue];\n"
            "  3 -- 4 [color=red];\n"
            "}\n"
        )
        assert dot == expected

    def test_deleted_edges_absent(self):
        coloring = make_coloring(6, {(1, 2)}, deleted=((0, 5),))
        dot = ColoringDocument.from_coloring(coloring).to_dot()
        assert "0 -- 5" not in dot
        assert dot.count(" -- ") == 14

    def test_edge_color_counts(self):
        dot = ColoringDocument.from_coloring(
            make_coloring(3, {(0, 1), (0, 2), (1, 2)})
        ).to_dot()
        assert dot.count("[color=red]") == 3
        assert dot.count("[color=blue]") == 0


# K_4 minus 0-3, as from_coloring writes it
VALID = {
    "n": 4,
    "deleted_edges": [[0, 3]],
    "red": [[0, 1], [1, 2]],
    "blue": [[0, 2], [1, 3], [2, 3]],
}
BAD_VALUES = [
    None, True, False, 1.5, "1", [], {}, [0], [0, 1, 2], -1, 10**30,
    [0, 4], [3, 0], [1, 1], [-1, 2], [0, 10**30], [None, 1], [0, "1"],
]


def single_faults(valid):
    """Every document that differs from `valid` in one value, one pair, or
    one slot of a pair."""
    for key in valid:
        for bad in BAD_VALUES:
            yield {**valid, key: bad}
        if key == "n":
            continue
        for i, pair in enumerate(valid[key]):
            for bad in BAD_VALUES:
                yield {**valid, key: valid[key][:i] + [bad] + valid[key][i + 1:]}
            for j in range(2):
                for bad in BAD_VALUES:
                    faulty = list(pair)
                    faulty[j] = bad
                    yield {**valid, key: valid[key][:i] + [faulty] + valid[key][i + 1:]}


def canonical_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestMutations:
    def test_valid_document_is_what_from_coloring_writes(self):
        coloring = make_coloring(4, {(0, 1), (1, 2)}, deleted=((0, 3),))
        text = ColoringDocument.from_coloring(coloring).to_json_text()
        assert text == canonical_text(VALID)

    def test_every_single_fault_is_refused_or_round_trips(self):
        faults = list(single_faults(VALID))
        assert len(faults) == 22 * len(BAD_VALUES)  # 4 values, 6 pairs, 12 slots
        for payload in faults:
            text = canonical_text(payload)
            try:
                doc = ColoringDocument.from_json_text(text)
            except DocumentError:
                continue
            assert doc.to_json_text() == text, payload


def colorings_with_a_deleted_edge():
    for coloring in every_coloring(4):
        for gone in coloring.graph.present_edges():
            yield EdgeColoring(
                DeletedEdgeGraph(4, (gone,)),
                {e: c for e, c in coloring.assignment.items() if e != gone},
            )
    yield make_coloring(6, {(1, 2), (2, 3)}, deleted=((0, 5), (1, 4), (2, 5)))


def dot_edges(dot: str) -> dict[tuple[int, int], str]:
    edges = {}
    for line in dot.splitlines():
        if " -- " in line:
            u, rest = line.strip().split(" -- ")
            v, color = rest.split(" [color=")
            edges[(int(u), int(v))] = color.rstrip("];")
    return edges


class TestEveryColoring:
    @pytest.mark.parametrize("n", range(5))
    def test_every_coloring_of_k_n_round_trips(self, n):
        for coloring in every_coloring(n):
            text = ColoringDocument.from_coloring(coloring).to_json_text()
            assert ColoringDocument.from_json_text(text).to_coloring() == coloring

    def test_colorings_with_deleted_edges_round_trip(self):
        for coloring in colorings_with_a_deleted_edge():
            text = ColoringDocument.from_coloring(coloring).to_json_text()
            assert ColoringDocument.from_json_text(text).to_coloring() == coloring

    def test_dot_lists_exactly_the_present_edges(self):
        for coloring in [*every_coloring(4), *colorings_with_a_deleted_edge()]:
            dot = ColoringDocument.from_coloring(coloring).to_dot()
            assert dot_edges(dot) == {
                e: c.value for e, c in coloring.assignment.items()
            }
            assert list(dot_edges(dot)) == coloring.graph.present_edges()
