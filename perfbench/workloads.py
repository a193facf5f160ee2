"""Seeded command lists for the benchmark's workloads.

`plan(workload, seed, variant)` is pure: it returns the input files a pass
needs and the argv of each command, with the reference expectation for
each.  File names are relative; a pass runs in its own directory.  The
same (workload, seed, variant) always gives the same plan.  Each timed
pass of a run uses a new variant, so one run samples several seeded
inputs and its median pass is not set by one unlucky draw.

Why each workload is there is written up in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from reference import (
    BLUE,
    RED,
    Dot,
    Exact,
    Expectation,
    Extension,
    Verdict,
    Witness,
    all_edges,
    render_document,
)

WORKLOADS = ("ramsey", "deletions", "certify")

# The r(3,5) wall: K_14 at (3,5) runs into this budget (exit 4) today.
R35_BUDGET = 300_000

# Hand-written answers of the min-deletions questions: the lex-first
# minimal deletion set of K_p for (s,t).
MIN_DELETIONS = (
    (3, 3, 9, ((0, 1), (2, 3), (4, 5), (6, 7))),
    (3, 3, 8, ((0, 1), (2, 3), (4, 5))),
    (3, 4, 9, ((0, 1),)),
)

# Paley colorings (order, s = t): P(17) has no K_4, P(29) and P(37) no K_5.
PALEY = ((17, 4), (29, 5), (37, 5))


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: Expectation


@dataclass(frozen=True)
class Plan:
    files: dict[str, str]
    commands: tuple[Command, ...]


def _edge_arg(e: tuple[int, int]) -> str:
    return f"{e[0]}-{e[1]}"


def _ramsey(rng: random.Random) -> Plan:
    commands = [
        Command(("number", "-s", "3", "-t", "3"), Exact(0, "r(3,3) = 6\n")),
        Command(("number", "-s", "3", "-t", "4"), Exact(0, "r(3,4) = 9\n")),
        Command(
            ("number", "-s", "3", "-t", "5", "--budget", str(R35_BUDGET)),
            Exact(0, "r(3,5) = 14\n"),
        ),
    ]
    for n in range(10, 14):
        coloring, dimacs = f"k{n}.json", f"k{n}.cnf"
        commands.append(
            Command(
                ("solve", "-n", str(n), "-s", "3", "-t", "5",
                 "--json", coloring, "--dimacs", dimacs),
                Witness("SAT\n", coloring, n, (), 3, 5, dimacs),
            )
        )
    edges = all_edges(10)
    # K_10 minus one edge still contains a K_9, and r(3,4) = 9.
    gone = rng.choice(edges)
    commands.append(
        Command(
            ("solve", "-n", "10", "-s", "3", "-t", "4", "--delete", _edge_arg(gone)),
            Exact(1, "UNSAT\n"),
        )
    )
    # Two disjoint deleted edges leave no K_9 inside K_10, and it is colorable.
    first = rng.choice(edges)
    second = rng.choice([e for e in edges if not set(e) & set(first)])
    pair = tuple(sorted((first, second)))
    commands.append(
        Command(
            ("solve", "-n", "10", "-s", "3", "-t", "4",
             "--delete", _edge_arg(first), "--delete", _edge_arg(second),
             "--json", "k10-2.json"),
            Witness("SAT\n", "k10-2.json", 10, pair, 3, 4),
        )
    )
    return Plan({}, tuple(commands))


def _deletions() -> Plan:
    commands = []
    for s, t, p, deleted in MIN_DELETIONS:
        name = f"min-{s}{t}-{p}.json"
        stdout = f"e = {len(deleted)}\ndeleted: {' '.join(map(_edge_arg, deleted))}\n"
        commands.append(
            Command(
                ("min-deletions", "-s", str(s), "-t", str(t), "-p", str(p),
                 "--json", name),
                Witness(stdout, name, p, deleted, s, t),
            )
        )
    return Plan({}, tuple(commands))


def paley_colors(q: int, labels: list[int]) -> dict[tuple[int, int], str]:
    """Paley coloring of K_q with vertex a relabelled to labels[a]: the edge
    is red iff the difference of its ends is a nonzero square mod q."""
    squares = {x * x % q for x in range(1, q)}
    colors = {}
    for a, b in combinations(range(q), 2):
        u, v = sorted((labels[a], labels[b]))
        colors[(u, v)] = RED if (a - b) % q in squares else BLUE
    return colors


def _certify(rng: random.Random) -> Plan:
    files, commands = {}, []

    def verify(name, colors, n, k, good):
        files[name] = render_document(n, colors)
        commands.append(
            Command(("verify", name, "-s", str(k), "-t", str(k)), Verdict(name, k, k, good))
        )

    paley = {}
    for q, k in PALEY:
        labels = list(range(q))
        rng.shuffle(labels)
        paley[q] = paley_colors(q, labels)
        verify(f"paley{q}.json", paley[q], q, k, True)
    # Planting a monochromatic K_4 into P(17) makes it bad for (4,4).
    for color in (RED, BLUE):
        planted = dict(paley[17])
        for e in combinations(sorted(rng.sample(range(17), 4)), 2):
            planted[e] = color
        verify(f"planted-{color}.json", planted, 17, 4, False)
    vertex = rng.randrange(29)
    commands.append(
        Command(
            ("extend", "paley29.json", "--vertex", str(vertex), "-s", "5", "-t", "5",
             "--out", "extended.json"),
            Extension("paley29.json", vertex, "extended.json", 5, 5),
        )
    )
    for name in list(files):
        dot = name.replace(".json", ".dot")
        commands.append(Command(("export-dot", name, "-o", dot), Dot(name, dot)))
    return Plan(files, tuple(commands))


def plan(workload: str, seed: int, variant: int) -> Plan:
    """The inputs and commands of one pass."""
    rng = random.Random(f"{workload}:{seed}:{variant}")
    if workload == "ramsey":
        return _ramsey(rng)
    if workload == "deletions":
        # No labelled input: the question is the same for every seed.
        return _deletions()
    if workload == "certify":
        return _certify(rng)
    raise ValueError(f"unknown workload {workload!r}")
