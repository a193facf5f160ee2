"""Workload plans are deterministic per seed, and their inputs are what
the plans claim them to be."""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layertrace import LAYER_METRICS  # noqa: E402
from reference import Verdict, good_problems, parse_document  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402


class PlanTest(unittest.TestCase):
    def test_same_seed_same_plan(self) -> None:
        for workload in WORKLOADS:
            for seed, variant in ((1, 0), (7, 3)):
                self.assertEqual(plan(workload, seed, variant), plan(workload, seed, variant))

    def test_seed_changes_labelled_inputs(self) -> None:
        for workload in ("ramsey", "certify"):
            plans = {repr(plan(workload, seed, 1)) for seed in range(1, 6)}
            self.assertEqual(len(plans), 5, workload)
        self.assertEqual(plan("deletions", 1, 1), plan("deletions", 2, 5))

    def test_certify_inputs_match_their_claims(self) -> None:
        for seed in (1, 2):
            certify = plan("certify", seed, 1)
            for command in certify.commands:
                expect = command.expect
                if isinstance(expect, Verdict):
                    doc = parse_document(certify.files[expect.document])
                    self.assertEqual(not good_problems(doc, expect.s, expect.t), expect.good)

    def test_ramsey_deletions_are_disjoint(self) -> None:
        for seed in range(1, 20):
            argv = plan("ramsey", seed, 1).commands[-1].argv
            first, second = argv[argv.index("--delete") + 1], argv[-3]
            self.assertFalse(set(first.split("-")) & set(second.split("-")), argv)


class BenchmarkJsonTest(unittest.TestCase):
    def test_declares_what_the_runner_reports(self) -> None:
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {**LAYER_METRICS, **run.TRACE_METRICS},
        )


if __name__ == "__main__":
    unittest.main()
