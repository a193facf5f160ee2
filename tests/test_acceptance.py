"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each
test re-derives its expected values from first principles (brute-force
enumeration, definition-level checks) before comparing them with the
library, and enforces its wall-clock bound.
"""

from __future__ import annotations

import subprocess
import sys
import time

from ramsat import (
    DeletedEdgeGraph,
    SolveStatus,
    decode,
    encode,
    extend_coloring,
    is_good,
    min_deletions,
    ramsey_number,
    solve,
)
from .cli_corpus import Outcome, run_through
from .oracle import (
    brute_force_good_coloring,
    every_coloring,
    naive_is_good,
    satisfies,
)

CLI = [sys.executable, "-m", "ramsat"]


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert passed, f"{name}{suffix}"


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(CLI + args, capture_output=True, text=True, timeout=300)


def test_criterion_1_r33_under_a_second():
    start = time.perf_counter()
    proc = run_cli(["number", "-s", "3", "-t", "3"])
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and proc.stdout == "r(3,3) = 6\n" and elapsed < 1.0
    report(
        "criterion 1: r(3,3) = 6 in under 1 s",
        ok,
        f"stdout={proc.stdout.strip()!r}, {elapsed:.2f}s",
    )


def test_criterion_2_single_deletion_suffices_at_6():
    start = time.perf_counter()
    coloring = min_deletions(3, 3, 6, 3)
    deleted = coloring.graph.deleted
    ok = len(deleted) == 1 and is_good(coloring, 3, 3).good
    # independent confirmation on the reported graph: 2^14 enumeration
    graph = DeletedEdgeGraph(6, deleted)
    oracle = brute_force_good_coloring(graph, 3, 3)
    ok = ok and oracle is not None and naive_is_good(oracle, 3, 3)
    # and zero deletions really do not suffice
    ok = ok and brute_force_good_coloring(DeletedEdgeGraph(6), 3, 3) is None
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(
        "criterion 2: e = 1 for (3,3) at p = 6, oracle-confirmed",
        ok,
        f"e={len(deleted)}, deleted={deleted}, {elapsed:.2f}s",
    )


def test_criterion_3_extension_works_from_every_good_k5_coloring():
    start = time.perf_counter()
    good_colorings = [c for c in every_coloring(5) if naive_is_good(c, 3, 3)]
    failures = 0
    for coloring in good_colorings:
        for vertex in range(5):
            extended = extend_coloring(coloring, vertex)
            if not is_good(extended, 3, 3).good or not naive_is_good(extended, 3, 3):
                failures += 1
    elapsed = time.perf_counter() - start
    # the good (3,3)-colorings of K_5 are exactly the 12 red 5-cycles
    ok = len(good_colorings) == 12 and failures == 0 and elapsed < 60.0
    report(
        "criterion 3: twin extension good for all good K_5 colorings x all vertices",
        ok,
        f"{len(good_colorings)} colorings x 5 vertices, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_4_deletion_bound():
    r33 = len(min_deletions(3, 3, 6, 5).graph.deleted)
    r34 = len(min_deletions(3, 4, 9, 8).graph.deleted)
    ok = 1 <= r33 <= 6 - 1 and 1 <= r34 <= 9 - 1
    report(
        "criterion 4: 1 <= e <= p-1 at (3,3,p=6) and (3,4,p=9)",
        ok,
        f"e(3,3,6)={r33}, e(3,4,9)={r34}",
    )


def test_criterion_5_r34_within_default_budget():
    start = time.perf_counter()
    proc = run_cli(["number", "-s", "3", "-t", "4"])
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and proc.stdout == "r(3,4) = 9\n" and elapsed < 60.0
    report(
        "criterion 5: r(3,4) = 9 within default budget in under 60 s",
        ok,
        f"stdout={proc.stdout.strip()!r}, {elapsed:.1f}s",
    )


def test_criterion_6_solver_matches_oracle_with_deletions():
    start = time.perf_counter()
    deletion_sets = [((0, 1),), ((0, 1), (2, 3)), ((0, 1), (1, 2))]
    mismatches = []
    checked = 0
    for n in range(2, 7):
        for deleted in deletion_sets:
            if any(v >= n for e in deleted for v in e):
                continue  # deletion set does not fit in K_n
            for s, t in ((2, 2), (2, 3), (3, 3)):
                graph = DeletedEdgeGraph(n, deleted)
                oracle = brute_force_good_coloring(graph, s, t)
                result = solve(encode(graph, s, t))
                checked += 1
                if (result.status is SolveStatus.SAT) != (oracle is not None):
                    mismatches.append((n, deleted, s, t))
                elif result.status is SolveStatus.SAT:
                    coloring = decode(result.model, graph)
                    if not naive_is_good(coloring, s, t):
                        mismatches.append((n, deleted, s, t))
    elapsed = time.perf_counter() - start
    # valid (n, deletion set) pairs: 1 at n=2, 2 at n=3, 3 each at n=4..6
    ok = not mismatches and checked == 36 and elapsed < 120.0
    report(
        "criterion 6: solver agrees with 2^m oracle on deleted-edge graphs",
        ok,
        f"{checked} instances, mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_7_encoding_soundness_exhaustive_k5():
    start = time.perf_counter()
    graph = DeletedEdgeGraph(5)
    formula = encode(graph, 3, 3)
    failures = 0
    for word in range(1 << 10):
        model = {i + 1: bool(word >> i & 1) for i in range(10)}
        if satisfies(formula, word) != naive_is_good(decode(model, graph), 3, 3):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 1.0
    report(
        "criterion 7: all 1024 assignments satisfy CNF iff coloring is good",
        ok,
        f"{failures} failures, {elapsed:.2f}s",
    )


def test_criterion_8_degenerate_clique_sizes():
    ones = {t: ramsey_number(1, t).p for t in (1, 2, 3)}
    twos = {t: ramsey_number(2, t).p for t in (2, 3, 4, 5)}
    ok = all(p == 1 for p in ones.values()) and all(twos[t] == t for t in twos)
    report(
        "criterion 8: r(1,t) = 1 and r(2,t) = t from the encoding itself",
        ok,
        f"r(1,t)={ones}, r(2,t)={twos}",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    # each digest covers the exit code, stdout, stderr and every file left
    # in the run's fresh directory: the corpus seeds and what it wrote
    commands = [
        "number -s 3 -t 3 --witness w33.json",
        "number -s 3 -t 4 --witness w34.json",
        "min-deletions -s 3 -t 3 -p 6 --json mindel.json",
        "solve -n 6 -s 3 -t 3 --delete 0-5 --json coloring.json --dimacs formula.cnf",
        "export-dot coloring.json -o coloring.dot",
    ]

    def run_all(tag: str) -> list[Outcome]:
        outcomes = []
        for i, argv in enumerate(commands):
            workdir = tmp_path / f"{tag}{i}"
            workdir.mkdir()
            outcomes.append(run_through(CLI, argv, workdir))
        return outcomes

    first, second = run_all("first"), run_all("second")
    differing = [
        argv for argv, a, b in zip(commands, first, second) if a.digest != b.digest
    ]
    failed = [argv for argv, outcome in zip(commands, first) if outcome.exit_code]
    ok = not differing and not failed
    report(
        "criterion 9: consecutive runs byte-identical (stdout, JSON, DIMACS, DOT)",
        ok,
        f"{len(commands)} commands compared, differing={differing}, failed={failed}",
    )
