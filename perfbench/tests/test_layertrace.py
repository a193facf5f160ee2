"""Self times, and the traced counts of one small command."""

from __future__ import annotations

import io
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from layertrace import LAYER_METRICS, Tracer, self_times  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self) -> None:
        spans = [
            ["cli.main", 0.0, 10.0, -1, 0],
            ["search.good_coloring", 1.0, 9.0, 0, 0],
            ["cnf.encode", 1.0, 3.0, 1, 0],
            ["dpll.solve", 3.0, 8.0, 1, 0],
        ]
        self.assertEqual(self_times(spans), [2.0, 1.0, 2.0, 5.0])


class TracedCommandTest(unittest.TestCase):
    def test_counts_and_restore(self) -> None:
        cli = run.import_ramsat()
        search = sys.modules["ramsat.search"]
        original = search.good_coloring
        tracer = Tracer()
        tracer.install()
        try:
            main = tracer.span("cli.main", cli.main)
            with redirect_stdout(io.StringIO()) as out:
                code = main(["min-deletions", "-s", "3", "-t", "3", "-p", "6"])
        finally:
            tracer.restore()
        self.assertEqual((code, out.getvalue()), (0, "e = 1\ndeleted: 0-1\n"))
        self.assertIs(search.good_coloring, original)
        metrics = tracer.metrics()
        self.assertEqual(list(metrics), list(LAYER_METRICS))
        # k = 0 (K_6 itself, UNSAT), then k = 1 with edge 0-1 (SAT)
        self.assertEqual(metrics["search.candidates"], 2)
        self.assertEqual(metrics["search.sat_ratio"], 0.5)
        self.assertEqual(metrics["dpll.unsat"], 1)
        # 20 triangles of K_6 per color; 4 of them contain the deleted edge
        self.assertEqual(metrics["cnf.clauses"], 40 + 32)
        # encode and is_good each test the 2 x 20 triangles of K_6 minus 0-1
        self.assertEqual(metrics["graphs.subset_is_clique.calls"], 40 + 40 + 40)
        self.assertEqual(metrics["graphs.subset_is_clique.deleted_calls"], 40 + 40)
        self.assertEqual(metrics["coloring.is_good.calls"], 1)
        self.assertEqual(metrics["cli.commands"], 1)


if __name__ == "__main__":
    unittest.main()
