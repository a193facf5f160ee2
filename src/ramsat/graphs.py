"""Complete graphs with deleted edges.

Vertices of K_p are 0..p-1.  An edge is a pair (u, v) with u < v, and the
C(p,2) edges are ranked lexicographically: (0,1), (0,2), ..., (0,p-1),
(1,2), ..., (p-2,p-1).  Everything downstream (CNF variables, enumeration
bit positions, output ordering) leans on this one ordering.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterable, Iterator, NamedTuple

Edge = tuple[int, int]

# Largest count of vertex subsets a walk over K_p may visit: each is a
# clause of `encode` and a clique test of `is_good`.  The biggest instance
# the classical questions need, K_14 at (3,5), has 2,366.
MAX_CLAUSES = 1_000_000
# Largest count of edges plus edge reads of the subsets: the variables
# and literals of `encode`.  K_23 at (3,7), the instance that r(3,7) = 23
# turns on, needs 253 + 5,153,610.
MAX_SIZE = 10_000_000


def edge(u: int, v: int) -> Edge:
    """Canonical form of the edge between two distinct vertices."""
    if u == v:
        raise ValueError(f"loop ({u},{u}) is not an edge")
    if u < 0 or v < 0:
        raise ValueError(f"negative vertex in edge ({u},{v})")
    return (u, v) if u < v else (v, u)


def edge_count(p: int) -> int:
    """Number of edges of K_p."""
    if p < 0:
        raise ValueError("vertex count must be non-negative")
    return math.comb(p, 2)


def deletion_classes(p: int) -> Iterator[list[tuple[Edge, ...]]]:
    """Yield level k = 0, 1, ..., C(p,2) of K_p's k-edge sets, one per class.

    Level k holds one k-edge set per isomorphism class, in lexicographic
    order.  A class is represented by its lex-least member: the sorted
    edge tuple that is smallest over all relabellings of the p vertices.
    The representatives are built by orderly generation (Read 1978; McKay
    1998): each level-k one is a level-(k-1) one with a later edge
    appended, kept only if it is lex-least.  Dropping the last edge of a
    lex-least set leaves a lex-least set, so every class is reached, and
    from exactly one parent.  Each level is built once, from the one
    before, and only when the caller asks for it.
    """
    edges = list(combinations(range(p), 2))
    level: list[tuple[Edge, ...]] = [()]
    while level:  # the level past C(p,2) is empty: no edge follows the last
        yield level
        level = [
            rep + (e,)
            for rep in level
            for e in edges
            if (not rep or e > rep[-1]) and _is_lex_least(rep + (e,))
        ]


def _is_lex_least(target: tuple[Edge, ...]) -> bool:
    """Whether no relabelling maps these sorted edges to a smaller tuple.

    Labels are handed out in order: each processed vertex gives its
    unlabelled neighbours the next free labels, in every order, and a new
    component may start at any unlabelled endpoint.  A lex-least image
    always arises this way, so the search misses none of them; a branch
    is cut as soon as its edges, placed block by block, sort above or
    below the input's.
    """
    neighbours: dict[int, list[int]] = {}
    for u, v in target:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)

    def beaten(order: list[int], done: int, pos: int) -> bool:
        # order[j] is the vertex labelled j; the labels below `done` have
        # placed their edges to higher labels, and those equal target[:pos]
        if done == len(order):
            starts = [w for w in neighbours if w not in order]
            return any(beaten(order + [w], done, pos) for w in starts)
        label = {w: j for j, w in enumerate(order)}
        vertex = order[done]
        fresh = [w for w in neighbours[vertex] if w not in label]
        later = [label[w] for w in neighbours[vertex] if label.get(w, -1) > done]
        later += range(len(order), len(order) + len(fresh))
        block = tuple((done, b) for b in sorted(later))
        end = pos + len(block)
        if block != target[pos:end]:
            return block < target[pos:end]
        return any(
            beaten(order + list(ordering), done + 1, end)
            for ordering in permutations(fresh)
        )

    return not beaten([], 0, 0)


def check_size(p: int, s: int, t: int) -> None:
    """Raise ValueError for a size below 1, or a subset walk of K_p too big.

    Both bounds ignore deletions: at most C(p,s) + C(p,t) subsets, and at
    most C(p,2) edges plus C(p,s)·C(s,2) + C(p,t)·C(t,2) edge reads.
    """
    if s < 1 or t < 1:
        raise ValueError("clique sizes must be at least 1")
    bound = math.comb(p, s) + math.comb(p, t)
    if bound > MAX_CLAUSES:
        raise ValueError(
            f"K_{p} at ({s},{t}) needs up to {bound:,} subsets, "
            f"over the limit of {MAX_CLAUSES:,}"
        )
    size = math.comb(p, 2) + sum(math.comb(p, k) * math.comb(k, 2) for k in (s, t))
    if size > MAX_SIZE:
        raise ValueError(
            f"K_{p} at ({s},{t}) needs up to {size:,} edges and edge reads, "
            f"over the limit of {MAX_SIZE:,}"
        )


class CheckedRecord:
    """First base of the named-tuple records that check their fields in
    __new__: _make builds through __new__, so _make and _replace check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class _GraphFields(NamedTuple):
    p: int
    deleted: tuple[Edge, ...] = ()


class DeletedEdgeGraph(CheckedRecord, _GraphFields):
    """K_p minus a (possibly empty) set of deleted edges.

    The deleted edges are normalised to canonical sorted tuples, so two
    graphs compare equal iff they have the same vertices and the same
    deleted edge set.
    """

    __slots__ = ()

    def __new__(cls, p: int, deleted: Iterable[Edge] = ()) -> DeletedEdgeGraph:
        if p < 0:
            raise ValueError("vertex count must be non-negative")
        canonical = tuple(sorted(edge(u, v) for u, v in deleted))
        for u, v in canonical:
            if v >= p:
                raise ValueError(f"deleted edge ({u},{v}) has an endpoint outside K_{p}")
        if len(frozenset(canonical)) != len(canonical):
            raise ValueError("duplicate deleted edge")
        return super().__new__(cls, p, canonical)

    def present_edges(self) -> list[Edge]:
        """The surviving edges, in lexicographic order."""
        gone = frozenset(self.deleted)
        return [e for e in combinations(range(self.p), 2) if e not in gone]


def subset_is_clique(graph: DeletedEdgeGraph, vertices: Iterable[int]) -> bool:
    """True iff no deleted edge of the graph joins two of the given vertices.

    Callers are expected to pass vertices of the graph; this is the inner
    loop of both the verifier and the encoder, so membership is not
    re-checked here.
    """
    deleted = graph.deleted  # a named-tuple field read is not cheap, so read it once
    if not deleted:
        return True
    inside = set(vertices)
    return not any(u in inside and v in inside for u, v in deleted)
