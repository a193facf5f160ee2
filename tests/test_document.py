"""JSON document schema, round trips, and DOT export."""

from __future__ import annotations

import json

import pytest

from ramsat import Color, ColoringDocument, DocumentError
from .conftest import C5_RED, make_coloring


def c5_document() -> ColoringDocument:
    return ColoringDocument.from_coloring(make_coloring(5, C5_RED))


class TestSchema:
    def test_from_coloring_fields(self):
        doc = c5_document()
        assert doc.n == 5
        assert doc.deleted_edges == ()
        assert doc.red == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert len(doc.blue) == 5

    def test_rejects_overlap(self):
        with pytest.raises(DocumentError, match="more than one list"):
            ColoringDocument(3, (), ((0, 1), (0, 2)), ((0, 1), (1, 2)))

    def test_rejects_gap(self):
        with pytest.raises(DocumentError, match="cover"):
            ColoringDocument(3, (), ((0, 1),), ((1, 2),))

    def test_rejects_non_canonical_pair(self):
        with pytest.raises(DocumentError, match="non-canonical"):
            ColoringDocument(3, (), ((1, 0), (0, 2)), ((1, 2),))

    def test_rejects_out_of_range(self):
        with pytest.raises(DocumentError, match="out-of-range"):
            ColoringDocument(3, (), ((0, 3), (0, 2)), ((1, 2),))

    def test_rejects_unsorted_list(self):
        with pytest.raises(DocumentError, match="not sorted"):
            ColoringDocument(3, (), ((0, 2), (0, 1)), ((1, 2),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DocumentError, match="twice"):
            ColoringDocument(3, (), ((0, 1), (0, 1), (0, 2)), ((1, 2),))

    def test_rejects_negative_n(self):
        with pytest.raises(DocumentError, match="non-negative"):
            ColoringDocument(-1, (), (), ())

    def test_empty_graph_allowed(self):
        doc = ColoringDocument(1, (), (), ())
        assert doc.to_coloring().graph.p == 1


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
        doc = ColoringDocument.from_coloring(coloring)
        assert doc.deleted_edges == ((0, 5),)
        restored = doc.to_coloring()
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
