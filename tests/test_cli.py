"""Command-line surface: outputs, artifacts, and the exit-code contract."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import ramsat.cli
import ramsat.search
from ramsat import (
    BudgetExceededError,
    ColoringDocument,
    SolveStatus,
    TheoremViolationError,
    is_good,
)
from ramsat.cli import main
from .conftest import C5_RED, make_coloring


def write_c5(tmp_path, name="c5.json"):
    path = tmp_path / name
    doc = ColoringDocument.from_coloring(make_coloring(5, C5_RED))
    path.write_text(doc.to_json_text(), encoding="utf-8")
    return path


def write_red_k3(tmp_path):
    path = tmp_path / "k3.json"
    doc = ColoringDocument.from_coloring(make_coloring(3, {(0, 1), (0, 2), (1, 2)}))
    path.write_text(doc.to_json_text(), encoding="utf-8")
    return path


def write_blue_k30(tmp_path):
    path = tmp_path / "k30.json"
    doc = ColoringDocument.from_coloring(make_coloring(30, set()))
    path.write_text(doc.to_json_text(), encoding="utf-8")
    return path


def test_python_dash_m_ramsat_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ramsat", "number", "-s", "3", "-t", "3"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "r(3,3) = 6\n")


class TestNumber:
    def test_r33(self, capsys):
        assert main(["number", "-s", "3", "-t", "3"]) == 0
        assert capsys.readouterr().out == "r(3,3) = 6\n"

    def test_r25(self, capsys):
        assert main(["number", "-s", "2", "-t", "5"]) == 0
        assert capsys.readouterr().out == "r(2,5) = 5\n"

    def test_r35_within_the_default_budget(self, capsys):
        assert main(["number", "-s", "3", "-t", "5"]) == 0
        assert capsys.readouterr().out == "r(3,5) = 14\n"

    def test_witness_written_and_good(self, tmp_path, capsys):
        witness = tmp_path / "witness.json"
        assert main(["number", "-s", "3", "-t", "3", "--witness", str(witness)]) == 0
        doc = ColoringDocument.from_json_text(witness.read_text(encoding="utf-8"))
        assert doc.coloring.graph.p == 5
        assert is_good(doc.to_coloring(), 3, 3).good

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

    def test_budget_exceeded(self, capsys):
        # K_0 costs the one decision, so the walk stops at K_1
        assert main(["number", "-s", "3", "-t", "3", "--budget", "1"]) == 4
        assert capsys.readouterr().out == (
            "BUDGET EXCEEDED: budget of 1 decisions exceeded at n = 1; r(3,3) > 0\n"
        )

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

    def test_rejects_zero_s(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["number", "-s", "0", "-t", "3"])
        assert excinfo.value.code == 2

    def test_non_integer_gets_the_non_positive_message(self, capsys):
        for text in ["0", "x"]:
            with pytest.raises(SystemExit) as excinfo:
                main(["number", "-s", text, "-t", "3"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"expected a positive integer, got {text!r}" in err
            assert "_positive_int" not in err


class TestSolve:
    def test_k6_unsat(self, capsys):
        assert main(["solve", "-n", "6", "-s", "3", "-t", "3"]) == 1
        assert capsys.readouterr().out == "UNSAT\n"

    def test_k5_sat(self, capsys):
        assert main(["solve", "-n", "5", "-s", "3", "-t", "3"]) == 0
        assert capsys.readouterr().out == "SAT\n"

    def test_deleted_edge_sat_with_artifacts(self, tmp_path, capsys):
        coloring_path = tmp_path / "coloring.json"
        dimacs_path = tmp_path / "formula.cnf"
        code = main(
            [
                "solve", "-n", "6", "-s", "3", "-t", "3",
                "--delete", "0-5",
                "--json", str(coloring_path),
                "--dimacs", str(dimacs_path),
            ]
        )
        assert code == 0
        doc = ColoringDocument.from_json_text(coloring_path.read_text(encoding="utf-8"))
        assert doc.coloring.graph.deleted == ((0, 5),)
        assert is_good(doc.to_coloring(), 3, 3).good
        lines = dimacs_path.read_text(encoding="utf-8").splitlines()
        assert "p cnf 14 32" in lines

    def test_oversized_instance_refused(self, tmp_path, capsys):
        # about 2.7 billion clauses: refused before any is built
        dimacs_path = tmp_path / "huge.cnf"
        assert main(
            ["solve", "-n", "2000", "-s", "3", "-t", "3", "--dimacs", str(dimacs_path)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over the limit" in captured.err
        assert not dimacs_path.exists()

    def test_failed_json_write_prints_nothing(self, tmp_path, capsys):
        json_path = tmp_path / "missing" / "x.json"
        assert main(
            ["solve", "-n", "5", "-s", "3", "-t", "3", "--json", str(json_path)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_delete_accepts_reversed_endpoints(self, capsys):
        assert main(["solve", "-n", "6", "-s", "3", "-t", "3", "--delete", "5-0"]) == 0

    def test_dimacs_written_even_when_unsat(self, tmp_path, capsys):
        dimacs_path = tmp_path / "k6.cnf"
        assert main(
            ["solve", "-n", "6", "-s", "3", "-t", "3", "--dimacs", str(dimacs_path)]
        ) == 1
        assert "p cnf 15 40" in dimacs_path.read_text(encoding="utf-8")

    def test_budget_exceeded(self, capsys):
        assert main(["solve", "-n", "6", "-s", "3", "-t", "3", "--budget", "2"]) == 4
        assert capsys.readouterr().out == (
            "BUDGET EXCEEDED: budget of 2 decisions exceeded at n = 6\n"
        )

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

    def test_malformed_edge(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "-n", "6", "-s", "3", "-t", "3", "--delete", "0:5"])
        assert excinfo.value.code == 2

    def test_loop_edge(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "-n", "6", "-s", "3", "-t", "3", "--delete", "3-3"])
        assert excinfo.value.code == 2

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

    def test_edge_outside_graph(self, capsys):
        assert main(["solve", "-n", "6", "-s", "3", "-t", "3", "--delete", "0-9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_never_written_unverified(self, tmp_path, monkeypatch):
        all_red = make_coloring(5, set(combinations(range(5), 2)))
        monkeypatch.setattr(ramsat.search, "decode", lambda model, graph: all_red)
        coloring_path = tmp_path / "coloring.json"
        with pytest.raises(TheoremViolationError):
            main(["solve", "-n", "5", "-s", "3", "-t", "3", "--json", str(coloring_path)])
        assert not coloring_path.exists()


class TestVerify:
    def test_good(self, tmp_path, capsys):
        path = write_c5(tmp_path)
        assert main(["verify", str(path), "-s", "3", "-t", "3"]) == 0
        assert capsys.readouterr().out == "GOOD\n"

    def test_bad_with_witness_line(self, tmp_path, capsys):
        path = write_red_k3(tmp_path)
        assert main(["verify", str(path), "-s", "3", "-t", "3"]) == 1
        assert capsys.readouterr().out == "BAD: red K_3 on {0,1,2}\n"

    def test_blue_witness(self, tmp_path, capsys):
        path = tmp_path / "blue.json"
        doc = ColoringDocument.from_coloring(make_coloring(3, set()))
        path.write_text(doc.to_json_text(), encoding="utf-8")
        assert main(["verify", str(path), "-s", "3", "-t", "3"]) == 1
        assert capsys.readouterr().out == "BAD: blue K_3 on {0,1,2}\n"

    def test_size_one_is_a_bad_witness(self, tmp_path, capsys):
        # a single vertex is a monochromatic K_1, as `solve` finds too
        path = write_c5(tmp_path)
        assert main(["verify", str(path), "-s", "1", "-t", "3"]) == 1
        assert main(["verify", str(path), "-s", "3", "-t", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "BAD: red K_1 on {0}\nBAD: blue K_1 on {0}\n"
        assert captured.err == ""

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

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.json"), "-s", "3", "-t", "3"]) == 2

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
    def test_extends_c5(self, tmp_path, capsys):
        path = write_c5(tmp_path)
        out_path = tmp_path / "extended.json"
        code = main(
            ["extend", str(path), "--vertex", "0", "-s", "3", "-t", "3",
             "--out", str(out_path)]
        )
        assert code == 0
        assert capsys.readouterr().out == "deleted edge 0-5\n"
        doc = ColoringDocument.from_json_text(out_path.read_text(encoding="utf-8"))
        assert doc.coloring.graph.p == 6
        assert doc.coloring.graph.deleted == ((0, 5),)
        assert main(["verify", str(out_path), "-s", "3", "-t", "3"]) == 0

    def test_bad_input_coloring(self, tmp_path, capsys):
        path = write_red_k3(tmp_path)
        out_path = tmp_path / "x.json"
        code = main(
            ["extend", str(path), "--vertex", "0", "-s", "3", "-t", "3",
             "--out", str(out_path)]
        )
        assert code == 1
        assert capsys.readouterr().out == "BAD: red K_3 on {0,1,2}\n"
        assert not out_path.exists()

    def test_size_one_is_a_bad_witness(self, tmp_path, capsys):
        path = write_c5(tmp_path)
        out_path = tmp_path / "x.json"
        code = main(
            ["extend", str(path), "--vertex", "0", "-s", "1", "-t", "3",
             "--out", str(out_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("BAD: red K_1 on {0}\n", "")
        assert not out_path.exists()

    def test_rejects_deleted_edge_input(self, tmp_path, capsys):
        coloring = make_coloring(6, {(1, 2)}, deleted=((0, 5),))
        path = tmp_path / "holed.json"
        path.write_text(
            ColoringDocument.from_coloring(coloring).to_json_text(), encoding="utf-8"
        )
        code = main(
            ["extend", str(path), "--vertex", "0", "-s", "3", "-t", "3",
             "--out", str(tmp_path / "y.json")]
        )
        assert code == 2

    def test_rejects_vertex_out_of_range(self, tmp_path, capsys):
        path = write_c5(tmp_path)
        code = main(
            ["extend", str(path), "--vertex", "5", "-s", "3", "-t", "3",
             "--out", str(tmp_path / "z.json")]
        )
        assert code == 2

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
    def test_k6(self, capsys):
        assert main(["min-deletions", "-s", "3", "-t", "3", "-p", "6"]) == 0
        assert capsys.readouterr().out == "e = 1\ndeleted: 0-1\n"

    def test_k5_none_needed(self, capsys):
        assert main(["min-deletions", "-s", "3", "-t", "3", "-p", "5"]) == 0
        assert capsys.readouterr().out == "e = 0\ndeleted: none\n"

    def test_k9_four_deletions(self, capsys):
        assert main(["min-deletions", "-s", "3", "-t", "3", "-p", "9"]) == 0
        assert capsys.readouterr().out == "e = 4\ndeleted: 0-1 2-3 4-5 6-7\n"

    def test_k10_two_deletions(self, capsys):
        assert main(["min-deletions", "-s", "3", "-t", "4", "-p", "10"]) == 0
        assert capsys.readouterr().out == "e = 2\ndeleted: 0-1 2-3\n"

    def test_writes_coloring(self, tmp_path, capsys):
        out = tmp_path / "coloring.json"
        assert main(
            ["min-deletions", "-s", "3", "-t", "3", "-p", "6", "--json", str(out)]
        ) == 0
        doc = ColoringDocument.from_json_text(out.read_text(encoding="utf-8"))
        assert doc.coloring.graph.deleted == ((0, 1),)
        assert is_good(doc.to_coloring(), 3, 3).good

    def test_failed_json_write_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "missing" / "coloring.json"
        assert main(
            ["min-deletions", "-s", "3", "-t", "3", "-p", "6", "--json", str(out)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_exhausted(self, capsys):
        assert main(["min-deletions", "-s", "3", "-t", "3", "-p", "7", "--max-k", "0"]) == 3
        assert capsys.readouterr().out == "e > 0\n"

    def test_budget_exceeded(self, capsys):
        assert main(
            ["min-deletions", "-s", "3", "-t", "3", "-p", "6", "--budget", "2"]
        ) == 4
        assert capsys.readouterr().out == (
            "BUDGET EXCEEDED: budget of 2 decisions exceeded at n = 6\n"
        )

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


class TestExportDot:
    def test_writes_dot(self, tmp_path, capsys):
        path = write_c5(tmp_path)
        out = tmp_path / "c5.dot"
        assert main(["export-dot", str(path), "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("graph coloring {\n")
        assert text.count("[color=red]") == 5
        assert text.count("[color=blue]") == 5

    def test_deleted_edges_omitted(self, tmp_path):
        coloring = make_coloring(6, {(1, 2)}, deleted=((0, 5),))
        path = tmp_path / "holed.json"
        path.write_text(
            ColoringDocument.from_coloring(coloring).to_json_text(), encoding="utf-8"
        )
        out = tmp_path / "holed.dot"
        assert main(["export-dot", str(path), "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count(" -- ") == 14

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["export-dot", str(path), "-o", str(tmp_path / "bad.dot")]) == 2


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

    def test_number_solve_consistency(self, capsys):
        # r(3,3) = 6 means K_5 is SAT and K_6 is UNSAT
        assert main(["solve", "-n", "5", "-s", "3", "-t", "3"]) == 0
        assert main(["solve", "-n", "6", "-s", "3", "-t", "3"]) == 1
