"""Reference checker for the benchmark.

It imports nothing from ramsat and shares no code with it: documents are
parsed here, cliques are found with a bitset search instead of ramsat's
subset walk, and DIMACS headers are checked against clause counts computed
here.  Every check returns a list of problems; an empty list means the
command's outputs are correct.

A command that honestly gives up (exit code 4, stdout starting with
BUDGET EXCEEDED) is undecided, not failed, wherever the command takes a
decision budget.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import ClassVar, Optional

RED, BLUE = "red", "blue"
EXIT_BUDGET = 4
BUDGET_PREFIX = "BUDGET EXCEEDED"

Edge = tuple[int, int]


class CheckError(Exception):
    """An output that cannot be parsed or breaks the document format."""


@dataclass(frozen=True)
class Document:
    """A coloring document: n vertices, deleted edges, a color per present edge."""

    n: int
    deleted: frozenset[Edge]
    colors: dict[Edge, str]


def all_edges(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def render_document(n: int, colors: dict[Edge, str], deleted=()) -> str:
    """Document text in the interchange format (sorted lists, sorted keys)."""
    payload = {
        "n": n,
        "deleted_edges": [list(e) for e in sorted(deleted)],
        "red": [list(e) for e in sorted(e for e, c in colors.items() if c == RED)],
        "blue": [list(e) for e in sorted(e for e, c in colors.items() if c == BLUE)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_document(text: str) -> Document:
    """Parse a document and check that its lists partition the edges of K_n."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"document is not JSON: {exc}") from exc
    if not isinstance(raw, dict) or set(raw) != {"n", "deleted_edges", "red", "blue"}:
        raise CheckError("document must have exactly the keys n, deleted_edges, red, blue")
    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise CheckError("n must be a non-negative integer")
    seen: dict[Edge, str] = {}
    for name in ("deleted_edges", "red", "blue"):
        pairs = []
        for item in raw[name]:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(w, int) and not isinstance(w, bool) for w in item)
                or not 0 <= item[0] < item[1] < n
            ):
                raise CheckError(f"{name} holds a bad pair {item!r}")
            e = (item[0], item[1])
            if e in seen:
                raise CheckError(f"edge {e} is listed twice")
            seen[e] = name
            pairs.append(e)
        if pairs != sorted(pairs):
            raise CheckError(f"{name} is not sorted")
    if len(seen) != math.comb(n, 2):
        raise CheckError(f"lists cover {len(seen)} of the {math.comb(n, 2)} edges of K_{n}")
    deleted = frozenset(e for e, name in seen.items() if name == "deleted_edges")
    colors = {e: name for e, name in seen.items() if name != "deleted_edges"}
    return Document(n, deleted, colors)


def find_clique(adjacency: list[int], k: int) -> Optional[tuple[int, ...]]:
    """Some k vertices pairwise adjacent in the bitset adjacency, or None."""

    def grow(clique: tuple[int, ...], candidates: int) -> Optional[tuple[int, ...]]:
        if len(clique) == k:
            return clique
        while candidates and len(clique) + candidates.bit_count() >= k:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            found = grow(clique + (v,), candidates & adjacency[v])
            if found is not None:
                return found
        return None

    return grow((), (1 << len(adjacency)) - 1)


def mono_clique(doc: Document, color: str, k: int) -> Optional[tuple[int, ...]]:
    """A clique of k vertices whose edges are all present and of one color."""
    adjacency = [0] * doc.n
    for (u, v), c in doc.colors.items():
        if c == color:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    return find_clique(adjacency, k)


def good_problems(doc: Document, s: int, t: int) -> list[str]:
    problems = []
    for color, k in ((RED, s), (BLUE, t)):
        clique = mono_clique(doc, color, k)
        if clique is not None:
            problems.append(f"{color} K_{k} on {sorted(clique)}")
    return problems


_BAD_LINE = re.compile(r"BAD: (red|blue) K_(\d+) on \{(\d+(?:,\d+)*)\}\n")


def bad_line_problems(stdout: str, doc: Document, s: int, t: int) -> list[str]:
    """The BAD line must name a monochromatic clique of the forbidden size."""
    match = _BAD_LINE.fullmatch(stdout)
    if match is None:
        return [f"not a BAD line: {stdout!r}"]
    color, size = match.group(1), int(match.group(2))
    vertices = [int(w) for w in match.group(3).split(",")]
    want = s if color == RED else t
    if size != want or len(vertices) != want:
        return [f"{color} witness must have {want} vertices: {stdout!r}"]
    if len(set(vertices)) != len(vertices) or not all(0 <= w < doc.n for w in vertices):
        return [f"witness vertices are not distinct vertices of K_{doc.n}: {stdout!r}"]
    for pair in combinations(sorted(vertices), 2):
        if doc.colors.get(pair) != color:
            return [f"edge {pair} of the witness is not {color}: {stdout!r}"]
    return []


def dimacs_problems(text: str, n: int, s: int, t: int, deleted=()) -> list[str]:
    """Header and clause count must match the clique counts computed here."""
    gone = set(deleted)

    def cliques(k: int) -> int:
        return sum(
            1
            for subset in combinations(range(n), k)
            if not any(pair in gone for pair in combinations(subset, 2))
        )

    want_vars = math.comb(n, 2) - len(gone)
    want_clauses = cliques(s) + cliques(t)
    lines = text.split("\n")
    headers = [line for line in lines if line.startswith("p ")]
    if headers != [f"p cnf {want_vars} {want_clauses}"]:
        return [f"DIMACS header {headers} != ['p cnf {want_vars} {want_clauses}']"]
    clause_lines = [line for line in lines if line and line[0] not in "cp"]
    if len(clause_lines) != want_clauses:
        return [f"{len(clause_lines)} clause lines, header says {want_clauses}"]
    for line in clause_lines:
        lits = line.split()
        if lits[-1] != "0" or not all(0 < abs(int(x)) <= want_vars for x in lits[:-1]):
            return [f"bad clause line {line!r}"]
    return []


_DOT_EDGE = re.compile(r"  (\d+) -- (\d+) \[color=(red|blue)\];")
_DOT_VERTEX = re.compile(r"  (\d+);")


def dot_problems(text: str, doc: Document) -> list[str]:
    """Every vertex once, every present edge once with its color, nothing else."""
    lines = text.split("\n")
    if lines[0] != "graph coloring {" or lines[-2:] != ["}", ""]:
        return ["DOT text is not one 'graph coloring { ... }' block"]
    vertices, colors = [], {}
    for line in lines[1:-2]:
        if (m := _DOT_VERTEX.fullmatch(line)) is not None:
            vertices.append(int(m.group(1)))
        elif (m := _DOT_EDGE.fullmatch(line)) is not None:
            e = (int(m.group(1)), int(m.group(2)))
            if e in colors:
                return [f"edge {e} drawn twice"]
            colors[e] = m.group(3)
        else:
            return [f"unexpected DOT line {line!r}"]
    if sorted(vertices) != list(range(doc.n)):
        return ["DOT vertex lines do not list each vertex once"]
    if colors != doc.colors:
        return ["DOT edges differ from the document's colored edges"]
    return []


def extension_problems(source: Document, out: Document, vertex: int) -> list[str]:
    """The twin p copies `vertex` edge by edge; the edge between them is deleted."""
    twin = source.n
    if out.n != twin + 1 or out.deleted != {(vertex, twin)}:
        return [f"extension must be K_{twin + 1} minus edge {vertex}-{twin}"]
    for (u, v), color in source.colors.items():
        if out.colors[(u, v)] != color:
            return [f"extension recolored edge {(u, v)}"]
    for q in range(twin):
        if q != vertex:
            copied = source.colors[(min(q, vertex), max(q, vertex))]
            if out.colors[(q, twin)] != copied:
                return [f"edge ({q},{twin}) does not copy the color of ({q},{vertex})"]
    return []


@dataclass(frozen=True)
class Outcome:
    """What one CLI call did: exit code, captured streams, and any exception."""

    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str] = None


def _read(directory: Path, name: str) -> str:
    try:
        return (directory / name).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckError(f"cannot read {name}: {exc.strerror}") from exc


@dataclass(frozen=True)
class Expectation:
    """Base class; `budgeted` commands may honestly end in BUDGET EXCEEDED."""

    budgeted: ClassVar[bool] = False

    def check(self, outcome: Outcome, directory: Path) -> list[str]:
        if outcome.error is not None:
            return [f"raised: {outcome.error.strip().splitlines()[-1]}"]
        if self.undecided(outcome):
            return []
        try:
            return self._check(outcome, directory)
        except CheckError as exc:
            return [str(exc)]

    def undecided(self, outcome: Outcome) -> bool:
        return (
            self.budgeted
            and outcome.code == EXIT_BUDGET
            and outcome.stdout.startswith(BUDGET_PREFIX)
        )

    def _check(self, outcome: Outcome, directory: Path) -> list[str]:
        raise NotImplementedError


def _exit_and_stdout(outcome: Outcome, code: int, stdout: str) -> list[str]:
    if (outcome.code, outcome.stdout) != (code, stdout):
        return [f"exit {outcome.code} stdout {outcome.stdout!r}, want exit {code} stdout {stdout!r}"]
    return []


@dataclass(frozen=True)
class Exact(Expectation):
    """A known answer: exact exit code and stdout bytes."""

    budgeted: ClassVar[bool] = True
    code: int
    stdout: str

    def _check(self, outcome, directory):
        return _exit_and_stdout(outcome, self.code, self.stdout)


@dataclass(frozen=True)
class Witness(Expectation):
    """A SAT answer with a coloring file that must be good for (s,t) on
    K_n minus exactly the given edges, and optionally a DIMACS file."""

    stdout: str
    coloring: str
    n: int
    deleted: tuple[Edge, ...]
    s: int
    t: int
    dimacs: Optional[str] = None
    budgeted: ClassVar[bool] = True

    def _check(self, outcome, directory):
        problems = _exit_and_stdout(outcome, 0, self.stdout)
        if problems:
            return problems
        if self.dimacs is not None:
            problems += dimacs_problems(
                _read(directory, self.dimacs), self.n, self.s, self.t, self.deleted
            )
        doc = parse_document(_read(directory, self.coloring))
        if doc.n != self.n or doc.deleted != set(self.deleted):
            problems.append(f"witness is for K_{doc.n} minus {sorted(doc.deleted)}")
        else:
            problems += [f"witness has a {p}" for p in good_problems(doc, self.s, self.t)]
        return problems


@dataclass(frozen=True)
class Verdict(Expectation):
    """`verify` on a document the benchmark wrote; `good` is the generator's
    claim, which the checker confirms before judging the program."""

    document: str
    s: int
    t: int
    good: bool

    def _check(self, outcome, directory):
        doc = parse_document(_read(directory, self.document))
        truth = not good_problems(doc, self.s, self.t)
        if truth != self.good:
            return [f"benchmark input {self.document} is not {'good' if self.good else 'bad'}"]
        if truth:
            return _exit_and_stdout(outcome, 0, "GOOD\n")
        if outcome.code != 1:
            return [f"exit {outcome.code} on a bad coloring, want 1"]
        return bad_line_problems(outcome.stdout, doc, self.s, self.t)


@dataclass(frozen=True)
class Extension(Expectation):
    """`extend`: the output twins `vertex` and stays good."""

    source: str
    vertex: int
    out: str
    s: int
    t: int

    def _check(self, outcome, directory):
        source = parse_document(_read(directory, self.source))
        problems = _exit_and_stdout(
            outcome, 0, f"deleted edge {self.vertex}-{source.n}\n"
        )
        if problems:
            return problems
        out = parse_document(_read(directory, self.out))
        problems = extension_problems(source, out, self.vertex)
        return problems or [f"extension has a {p}" for p in good_problems(out, self.s, self.t)]


@dataclass(frozen=True)
class Dot(Expectation):
    """`export-dot`: silent success and a DOT file that draws the document."""

    document: str
    dot: str

    def _check(self, outcome, directory):
        problems = _exit_and_stdout(outcome, 0, "")
        if problems:
            return problems
        doc = parse_document(_read(directory, self.document))
        return dot_problems(_read(directory, self.dot), doc)
