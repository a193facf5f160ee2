"""JSON coloring documents and DOT figure export.

The interchange format is a single JSON object with exactly the keys
n, deleted_edges, red, blue, each once.  The three edge lists must
partition the edges of K_n: canonical [u, v] pairs with u < v, each list
sorted lexicographically, no duplicates, no overlaps, no gaps.  Every
violation is rejected with the broken invariant named.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .coloring import Color, EdgeColoring
from .errors import DocumentError
from .graphs import DeletedEdgeGraph, Edge

_KEYS = ("n", "deleted_edges", "red", "blue")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """json's object hook: a repeated key is refused, not overwritten."""
    raw: dict[str, object] = {}
    for key, value in pairs:
        if key in raw:
            raise DocumentError(f"duplicate key {key!r}")
        raw[key] = value
    return raw


class ColoringDocument(NamedTuple):
    """A checked coloring in its JSON form; the schema is checked where the
    text comes in, in `from_json_text`."""

    coloring: EdgeColoring

    @classmethod
    def from_json_text(cls, text: str) -> "ColoringDocument":
        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
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
        lists: dict[str, list[Edge]] = {}
        for name in _KEYS[1:]:
            value = raw[name]
            if not isinstance(value, list):
                raise DocumentError(f"{name} must be a list")
            if not all(isinstance(item, list) and len(item) == 2 for item in value):
                raise DocumentError(f"{name} entries must be two-element lists")
            lists[name] = [tuple(item) for item in value]
        n = raw["n"]
        if not _is_int(n):
            raise DocumentError("n must be an integer")
        if n < 0:
            raise DocumentError("n must be non-negative")
        seen: set[Edge] = set()
        for name, edges in lists.items():
            for (u, v) in edges:
                if not (_is_int(u) and _is_int(v)):
                    raise DocumentError(f"{name} contains a non-integer vertex")
                if not 0 <= u < v < n:
                    raise DocumentError(
                        f"{name} contains non-canonical or out-of-range pair [{u}, {v}]"
                    )
                if (u, v) in seen:
                    raise DocumentError(
                        f"edge [{u}, {v}] appears in more than one list or twice"
                    )
                seen.add((u, v))
            if edges != sorted(edges):
                raise DocumentError(f"{name} is not sorted lexicographically")
        # counted before K_n's edge list is built, so a huge n is cheap to refuse
        if len(seen) != math.comb(n, 2):
            raise DocumentError(
                f"lists cover {len(seen)} edges but K_{n} has {math.comb(n, 2)}"
            )
        assignment = dict.fromkeys(lists["red"], Color.RED)
        assignment.update(dict.fromkeys(lists["blue"], Color.BLUE))
        return cls(EdgeColoring(DeletedEdgeGraph(n, lists["deleted_edges"]), assignment))

    def to_json_text(self) -> str:
        """Canonical rendering: sorted keys, two-space indent, one trailing
        newline.  Equal documents serialize to identical bytes."""
        coloring = self.coloring
        payload = {
            "n": coloring.graph.p,
            "deleted_edges": [list(e) for e in coloring.graph.deleted],
            "red": [list(e) for e in coloring.edges_of_color(Color.RED)],
            "blue": [list(e) for e in coloring.edges_of_color(Color.BLUE)],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_coloring(cls, coloring: EdgeColoring) -> "ColoringDocument":
        return cls(coloring)

    def to_coloring(self) -> EdgeColoring:
        return self.coloring

    def to_dot(self) -> str:
        """Undirected DOT graph with color attributes, edges in lex order.

        Deleted edges are simply absent, matching how a one-edge-deleted
        example is usually drawn.
        """
        graph, assignment = self.coloring
        lines = ["graph coloring {"]
        for v in range(graph.p):
            lines.append(f"  {v};")
        for (u, v) in graph.present_edges():
            lines.append(f"  {u} -- {v} [color={assignment[(u, v)].value}];")
        lines.append("}")
        return "\n".join(lines) + "\n"
