"""The reference checker accepts right outputs and rejects tampered ones.

Run from the repository root with
    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference import (  # noqa: E402
    BLUE,
    RED,
    Dot,
    Exact,
    Extension,
    Outcome,
    Verdict,
    Witness,
    render_document,
)
from workloads import paley_colors  # noqa: E402

# K_5 with a red 5-cycle and blue chords: good for (3,3).
C5 = {
    e: RED if (e[1] - e[0]) in (1, 4) else BLUE for e in combinations(range(5), 2)
}


def dimacs(n: int, s: int, t: int) -> str:
    var = {e: i + 1 for i, e in enumerate(combinations(range(n), 2))}
    lines = [f"p cnf {len(var)} {math.comb(n, s) + math.comb(n, t)}"]
    for k, sign in ((s, -1), (t, 1)):
        for subset in combinations(range(n), k):
            lines.append(" ".join([*(str(sign * var[p]) for p in combinations(subset, 2)), "0"]))
    return "\n".join(lines) + "\n"


class ReferenceTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def write(self, name: str, text: str) -> None:
        (self.dir / name).write_text(text, encoding="utf-8")

    def check(self, expect, code, stdout) -> list[str]:
        return expect.check(Outcome(code, stdout, ""), self.dir)

    def test_known_answer(self) -> None:
        expect = Exact(0, "r(3,4) = 9\n")
        self.assertEqual(self.check(expect, 0, "r(3,4) = 9\n"), [])
        self.assertNotEqual(self.check(expect, 0, "r(3,4) = 8\n"), [])
        self.assertNotEqual(self.check(expect, 1, "r(3,4) = 9\n"), [])

    def test_budget_exceeded_is_undecided_only_where_budgeted(self) -> None:
        self.assertEqual(self.check(Exact(0, "r(3,5) = 14\n"), 4, "BUDGET EXCEEDED: n = 14\n"), [])
        self.write("p.json", render_document(5, C5))
        self.assertNotEqual(self.check(Verdict("p.json", 3, 3, True), 4, "BUDGET EXCEEDED\n"), [])

    def test_exception_fails(self) -> None:
        outcome = Outcome(None, "", "", "Traceback ...\nValueError: boom\n")
        self.assertEqual(Exact(0, "SAT\n").check(outcome, self.dir), ["raised: ValueError: boom"])

    def test_witness_rejects_tampered_coloring(self) -> None:
        expect = Witness("SAT\n", "w.json", 5, (), 3, 3)
        self.write("w.json", render_document(5, C5))
        self.assertEqual(self.check(expect, 0, "SAT\n"), [])
        tampered = dict(C5)
        tampered[(0, 2)] = RED  # closes the red triangle 0-1-2
        self.write("w.json", render_document(5, tampered))
        problems = self.check(expect, 0, "SAT\n")
        self.assertTrue(any("red K_3" in p for p in problems), problems)

    def test_witness_rejects_broken_partition(self) -> None:
        expect = Witness("SAT\n", "w.json", 5, (), 3, 3)
        doc = json.loads(render_document(5, C5))
        doc["blue"].pop()
        self.write("w.json", json.dumps(doc))
        self.assertNotEqual(self.check(expect, 0, "SAT\n"), [])

    def test_witness_rejects_wrong_deleted_edges(self) -> None:
        colors = {e: c for e, c in C5.items() if e != (0, 1)}
        self.write("w.json", render_document(5, colors, [(0, 1)]))
        self.assertEqual(self.check(Witness("SAT\n", "w.json", 5, ((0, 1),), 3, 3), 0, "SAT\n"), [])
        self.assertNotEqual(self.check(Witness("SAT\n", "w.json", 5, ((0, 2),), 3, 3), 0, "SAT\n"), [])

    def test_dimacs_header(self) -> None:
        self.write("w.json", render_document(5, C5))
        expect = Witness("SAT\n", "w.json", 5, (), 3, 3, "f.cnf")
        self.write("f.cnf", dimacs(5, 3, 3))
        self.assertEqual(self.check(expect, 0, "SAT\n"), [])
        self.write("f.cnf", dimacs(5, 3, 3).replace("p cnf 10 20", "p cnf 10 19"))
        problems = self.check(expect, 0, "SAT\n")
        self.assertTrue(any("header" in p for p in problems), problems)

    def test_bad_line_must_name_a_monochromatic_clique(self) -> None:
        colors = paley_colors(17, list(range(17)))
        for e in combinations((0, 1, 2, 3), 2):
            colors[e] = RED
        self.write("bad.json", render_document(17, colors))
        expect = Verdict("bad.json", 4, 4, False)
        self.assertEqual(self.check(expect, 1, "BAD: red K_4 on {0,1,2,3}\n"), [])
        self.assertNotEqual(self.check(expect, 1, "BAD: red K_4 on {0,1,2,4}\n"), [])
        self.assertNotEqual(self.check(expect, 1, "BAD: blue K_4 on {0,1,2,3}\n"), [])
        self.assertNotEqual(self.check(expect, 1, "BAD: red K_3 on {0,1,2}\n"), [])
        self.assertNotEqual(self.check(expect, 0, "GOOD\n"), [])

    def test_good_verdict(self) -> None:
        self.write("p.json", render_document(17, paley_colors(17, list(range(17)))))
        expect = Verdict("p.json", 4, 4, True)
        self.assertEqual(self.check(expect, 0, "GOOD\n"), [])
        self.assertNotEqual(self.check(expect, 1, "BAD: red K_4 on {0,1,2,3}\n"), [])
        # a generator claim the checker cannot confirm is a failure too
        self.assertNotEqual(self.check(Verdict("p.json", 3, 3, True), 0, "GOOD\n"), [])

    def test_extension_copies_the_twin(self) -> None:
        self.write("c5.json", render_document(5, C5))
        twin = dict(C5)
        for q in range(5):
            if q != 2:
                twin[(q, 5)] = C5[(min(q, 2), max(q, 2))]
        self.write("out.json", render_document(6, twin, [(2, 5)]))
        expect = Extension("c5.json", 2, "out.json", 3, 3)
        self.assertEqual(self.check(expect, 0, "deleted edge 2-5\n"), [])
        self.assertNotEqual(self.check(expect, 0, "deleted edge 2-6\n"), [])
        twin[(0, 5)] = BLUE if twin[(0, 5)] == RED else RED
        self.write("out.json", render_document(6, twin, [(2, 5)]))
        self.assertNotEqual(self.check(expect, 0, "deleted edge 2-5\n"), [])

    def test_dot(self) -> None:
        self.write("c5.json", render_document(5, C5))
        lines = ["graph coloring {", *(f"  {v};" for v in range(5))]
        lines += [f"  {u} -- {v} [color={C5[(u, v)]}];" for u, v in sorted(C5)]
        text = "\n".join([*lines, "}"]) + "\n"
        self.write("c5.dot", text)
        self.assertEqual(self.check(Dot("c5.json", "c5.dot"), 0, ""), [])
        self.write("c5.dot", text.replace("0 -- 1 [color=red]", "0 -- 1 [color=blue]"))
        self.assertNotEqual(self.check(Dot("c5.json", "c5.dot"), 0, ""), [])


if __name__ == "__main__":
    unittest.main()
