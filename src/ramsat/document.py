"""JSON coloring documents and DOT figure export.

The interchange format is a single JSON object with exactly the keys
n, deleted_edges, red, blue.  The three edge lists must partition the
edges of K_n: canonical [u, v] pairs with u < v, each list sorted
lexicographically, no duplicates, no overlaps, no gaps.  Every violation
is rejected with the broken invariant named.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .coloring import Color, EdgeColoring
from .errors import DocumentError
from .graphs import CheckedRecord, DeletedEdgeGraph, Edge, edge_count

_KEYS = ("n", "deleted_edges", "red", "blue")


class _DocumentFields(NamedTuple):
    n: int
    deleted_edges: tuple[Edge, ...]
    red: tuple[Edge, ...]
    blue: tuple[Edge, ...]


class ColoringDocument(CheckedRecord, _DocumentFields):
    """Validated document contents; construction enforces the schema."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        deleted_edges: tuple[Edge, ...],
        red: tuple[Edge, ...],
        blue: tuple[Edge, ...],
    ) -> ColoringDocument:
        if isinstance(n, bool) or not isinstance(n, int):
            raise DocumentError("n must be an integer")
        if n < 0:
            raise DocumentError("n must be non-negative")
        seen: set[Edge] = set()
        total = 0
        for name, edges in zip(_KEYS[1:], (deleted_edges, red, blue)):
            for e in edges:
                u, v = e
                for w in (u, v):
                    if isinstance(w, bool) or not isinstance(w, int):
                        raise DocumentError(f"{name} contains a non-integer vertex")
                if not 0 <= u < v < n:
                    raise DocumentError(
                        f"{name} contains non-canonical or out-of-range pair [{u}, {v}]"
                    )
                if e in seen:
                    raise DocumentError(
                        f"edge [{u}, {v}] appears in more than one list or twice"
                    )
                seen.add(e)
            if list(edges) != sorted(edges):
                raise DocumentError(f"{name} is not sorted lexicographically")
            total += len(edges)
        if total != edge_count(n):
            raise DocumentError(
                f"lists cover {total} edges but K_{n} has {edge_count(n)}"
            )
        return super().__new__(cls, n, deleted_edges, red, blue)

    @classmethod
    def from_json_text(cls, text: str) -> "ColoringDocument":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DocumentError(f"not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DocumentError("top level must be a JSON object")
        if set(raw) != set(_KEYS):
            missing = sorted(set(_KEYS) - set(raw))
            extra = sorted(set(raw) - set(_KEYS))
            if missing:
                raise DocumentError(f"missing key {missing[0]!r}")
            raise DocumentError(f"unexpected key {extra[0]!r}")
        lists = {}
        for name in ("deleted_edges", "red", "blue"):
            value = raw[name]
            if not isinstance(value, list):
                raise DocumentError(f"{name} must be a list")
            pairs = []
            for item in value:
                if not isinstance(item, list) or len(item) != 2:
                    raise DocumentError(f"{name} entries must be two-element lists")
                pairs.append((item[0], item[1]))
            lists[name] = tuple(pairs)
        return cls(raw["n"], lists["deleted_edges"], lists["red"], lists["blue"])

    def to_json_text(self) -> str:
        """Canonical rendering: sorted keys, two-space indent, one trailing
        newline.  Equal documents serialize to identical bytes."""
        payload = {
            "n": self.n,
            "deleted_edges": [list(e) for e in self.deleted_edges],
            "red": [list(e) for e in self.red],
            "blue": [list(e) for e in self.blue],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_coloring(cls, coloring: EdgeColoring) -> "ColoringDocument":
        graph = coloring.graph
        return cls(
            graph.p,
            graph.deleted,
            tuple(coloring.edges_of_color(Color.RED)),
            tuple(coloring.edges_of_color(Color.BLUE)),
        )

    def to_coloring(self) -> EdgeColoring:
        graph = DeletedEdgeGraph(self.n, self.deleted_edges)
        assignment = {e: Color.RED for e in self.red}
        assignment.update({e: Color.BLUE for e in self.blue})
        return EdgeColoring(graph, assignment)

    def to_dot(self) -> str:
        """Undirected DOT graph with color attributes, edges in lex order.

        Deleted edges are simply absent, matching how a one-edge-deleted
        example is usually drawn.
        """
        color_of = {e: "red" for e in self.red}
        color_of.update({e: "blue" for e in self.blue})
        lines = ["graph coloring {"]
        for v in range(self.n):
            lines.append(f"  {v};")
        for (u, v) in sorted(color_of):
            lines.append(f"  {u} -- {v} [color={color_of[(u, v)]}];")
        lines.append("}")
        return "\n".join(lines) + "\n"
