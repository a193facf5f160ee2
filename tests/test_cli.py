"""Command-line behaviour that a corpus digest cannot check.

A CLI output is pinned by a line of `cli_corpus.txt`, whose digest covers
the exit code, stdout, stderr and written files of one run on the corpus
seeds.  This file holds only what such a digest cannot check: injected
failures (monkeypatched functions, KeyboardInterrupt, a decode that breaks
the theorem), writes that fail, size guards that must refuse before they
build or walk anything, argparse wording on every Python version (the
corpus checks only the exit code of argparse's output outside the version
its digests were made with), and properties that span commands.
"""

from __future__ import annotations

from itertools import combinations

import pytest

import ramsat.cli
import ramsat.search
from ramsat import (
    BudgetExceededError,
    ColoringDocument,
    SolveStatus,
    TheoremViolationError,
)
from ramsat.cli import main
from .conftest import make_coloring


def write_blue_k30(tmp_path):
    path = tmp_path / "k30.json"
    doc = ColoringDocument.from_coloring(make_coloring(30, set()))
    path.write_text(doc.to_json_text(), encoding="utf-8")
    return path


class TestNumber:
    def test_witness_file_for_r1_holds_k0(self, tmp_path, capsys):
        witness = tmp_path / "witness.json"
        assert main(["number", "-s", "1", "-t", "3", "--witness", str(witness)]) == 0
        assert capsys.readouterr().out == "r(1,3) = 1\n"
        doc = ColoringDocument.from_json_text(witness.read_text(encoding="utf-8"))
        assert doc.coloring.graph.p == 0
        assert main(["verify", str(witness), "-s", "1", "-t", "3"]) == 0
        assert capsys.readouterr().out == "GOOD\n"

    def test_max_n_refused(self, capsys):
        # the walk ends at r(s,t) or when the budget runs out: no ceiling
        with pytest.raises(SystemExit) as excinfo:
            main(["number", "-s", "3", "-t", "3", "--max-n", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --max-n 5" in capsys.readouterr().err

    def test_r36_with_no_flags(self, capsys):
        assert main(["number", "-s", "3", "-t", "6"]) == 0
        assert capsys.readouterr().out == "r(3,6) = 18\n"

    def test_failed_witness_write_prints_nothing(self, tmp_path, capsys):
        witness = tmp_path / "missing" / "witness.json"
        assert main(["number", "-s", "3", "-t", "3", "--witness", str(witness)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_size_limit_ends_the_walk_with_the_proven_bound(self, capsys):
        # every K_n up to 42 is colorable at (40,40); K_43 is too big to encode
        assert main(["number", "-s", "40", "-t", "40"]) == 4
        assert capsys.readouterr().out == (
            "BUDGET EXCEEDED: K_43 at (40,40) needs up to 19,252,863 edges and edge "
            "reads, over the limit of 10,000,000; r(40,40) > 42\n"
        )

    def test_interrupt_exits_130_without_traceback(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(ramsat.cli, "ramsey_number", interrupted)
        assert main(["number", "-s", "3", "-t", "3"]) == 130
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "interrupted\n")

    def test_non_integer_gets_the_non_positive_message(self, capsys):
        for text in ["0", "x"]:
            with pytest.raises(SystemExit) as excinfo:
                main(["number", "-s", text, "-t", "3"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"expected a positive integer, got {text!r}" in err
            assert "_positive_int" not in err


class TestSolve:
    def test_failed_json_write_prints_nothing(self, tmp_path, capsys):
        json_path = tmp_path / "missing" / "x.json"
        assert main(
            ["solve", "-n", "5", "-s", "3", "-t", "3", "--json", str(json_path)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_budget_exceeded_writes_dimacs_first(self, tmp_path, capsys):
        dimacs_path = tmp_path / "k6.cnf"
        argv = ["solve", "-n", "6", "-s", "3", "-t", "3", "--dimacs", str(dimacs_path)]
        assert main(argv) == 1
        unsat_dimacs = dimacs_path.read_bytes()
        dimacs_path.unlink()
        capsys.readouterr()
        assert main([*argv, "--budget", "2"]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "BUDGET EXCEEDED: budget of 2 decisions exceeded at n = 6\n",
            "",
        )
        assert dimacs_path.read_bytes() == unsat_dimacs

    def test_budget_exceeded_decision_raises(self, monkeypatch):
        # cmd_solve reports a cut solve through BudgetExceededError, whose
        # one handler in main prints the line
        decide = ramsat.search.decide

        def cut(graph, s, t, *, budget):
            return decide(graph, s, t, budget=budget)._replace(
                status=SolveStatus.BUDGET_EXCEEDED, coloring=None
            )

        monkeypatch.setattr(ramsat.search, "decide", cut)
        args = ramsat.cli.build_parser().parse_args(
            ["solve", "-n", "5", "-s", "3", "-t", "3", "--budget", "7"]
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            ramsat.cli.cmd_solve(args)
        assert str(excinfo.value) == "budget of 7 decisions exceeded at n = 5"

    def test_long_vertex_is_not_a_loop(self, capsys):
        # past int()'s digit limit the edge is malformed; on a Python
        # without that limit the vertex lies outside K_6
        argv = ["solve", "-n", "6", "-s", "3", "-t", "3", "--delete", "1" * 5000 + "-3"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "loop edge" not in err
        assert "expected an edge like 0-5, got '111" in err or "outside K_6" in err

    def test_json_never_written_unverified(self, tmp_path, monkeypatch):
        all_red = make_coloring(5, set(combinations(range(5), 2)))
        monkeypatch.setattr(ramsat.search, "decode", lambda model, graph: all_red)
        coloring_path = tmp_path / "coloring.json"
        with pytest.raises(TheoremViolationError):
            main(["solve", "-n", "5", "-s", "3", "-t", "3", "--json", str(coloring_path)])
        assert not coloring_path.exists()


class TestVerify:
    def test_blue_witness(self, tmp_path, capsys):
        path = tmp_path / "blue.json"
        doc = ColoringDocument.from_coloring(make_coloring(3, set()))
        path.write_text(doc.to_json_text(), encoding="utf-8")
        assert main(["verify", str(path), "-s", "3", "-t", "3"]) == 1
        assert capsys.readouterr().out == "BAD: blue K_3 on {0,1,2}\n"

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "overlap.json"
        path.write_text(
            '{"n": 3, "deleted_edges": [], "red": [[0, 1], [0, 2], [1, 2]], '
            '"blue": [[0, 1]]}',
            encoding="utf-8",
        )
        assert main(["verify", str(path), "-s", "3", "-t", "3"]) == 2
        err = capsys.readouterr().err
        assert "more than one list" in err

    def test_repeated_key_refused(self, tmp_path, capsys):
        # json keeps the last "n", which would make this a good K_3
        path = tmp_path / "dupkey.json"
        path.write_text(
            '{"n": 9, "deleted_edges": [], "red": [[0, 1], [0, 2], [1, 2]], '
            '"blue": [], "n": 3}',
            encoding="utf-8",
        )
        assert main(["verify", str(path), "-s", "4", "-t", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate key 'n'\n"

    def test_deeply_nested_document(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["verify", str(path), "-s", "3", "-t", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("s, t", [("15", "15"), ("16", "3")])
    def test_oversized_walk_refused(self, tmp_path, nothing_walked, capsys, s, t):
        # K_30 all blue: the red walk alone would visit C(30,15) subsets
        path = write_blue_k30(tmp_path)
        assert main(["verify", str(path), "-s", s, "-t", t]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over the limit of 1,000,000" in captured.err


class TestExtend:
    def test_oversized_walk_refused(self, tmp_path, nothing_walked, capsys):
        path = write_blue_k30(tmp_path)
        out_path = tmp_path / "k31.json"
        code = main(
            ["extend", str(path), "--vertex", "0", "-s", "15", "-t", "15",
             "--out", str(out_path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "K_31 at (15,15)" in captured.err
        assert not out_path.exists()


class TestMinDeletions:
    def test_failed_json_write_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "missing" / "coloring.json"
        assert main(
            ["min-deletions", "-s", "3", "-t", "3", "-p", "6", "--json", str(out)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_oversized_instance_refused(self, nothing_built, capsys):
        assert main(["min-deletions", "-s", "3", "-t", "3", "-p", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over the limit of 1,000,000" in captured.err

    def test_invalid_max_k(self, capsys):
        assert main(["min-deletions", "-s", "3", "-t", "3", "-p", "4", "--max-k", "9"]) == 2
        assert main(["min-deletions", "-s", "3", "-t", "3", "-p", "1", "--max-k", "1"]) == 2
        assert "k_max must be between 0 and 0" in capsys.readouterr().err

    def test_one_vertex(self, capsys):
        assert main(["min-deletions", "-s", "3", "-t", "3", "-p", "1"]) == 0
        assert capsys.readouterr().out == "e = 0\ndeleted: none\n"
        assert main(["min-deletions", "-s", "1", "-t", "3", "-p", "1"]) == 3
        assert capsys.readouterr().out == "e > 0\n"


class TestPipeline:
    def test_solve_then_verify_round_trip(self, tmp_path, capsys):
        coloring_path = tmp_path / "k9.json"
        assert main(
            ["solve", "-n", "9", "-s", "3", "-t", "4", "--delete", "0-1",
             "--json", str(coloring_path)]
        ) == 0
        assert main(["verify", str(coloring_path), "-s", "3", "-t", "4"]) == 0
        out = capsys.readouterr().out
        assert out == "SAT\nGOOD\n"
