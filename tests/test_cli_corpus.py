"""Byte identity: every CLI run in `cli_corpus.txt` matches its digest.

Help text and usage errors come from argparse, whose wording changes
between Python versions; under a version other than the one the digests
were made with, those entries check their exit code only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from .cli_corpus import CORPUS, VERSION_TAG, check, load, matches, run

VERSION, ENTRIES = load()
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.argv or "(no arguments)" for entry in ENTRIES]
)
def test_run_is_byte_identical(entry, tmp_path):
    assert matches(entry, run(entry.argv, tmp_path), VERSION)


def test_corpus_covers_every_exit_code():
    assert {entry.exit_code for entry in ENTRIES} == {"0", "1", "2", "3", "4"}


class TestCheckMode:
    """`cli_corpus.py --check PREFIX` replays the corpus as subprocesses."""

    ARGVS = ("number -s 3 -t 3", "verify witness5.json -s 3 -t 2", "number -s x -t 3")

    def corpus(self, tmp_path, altered=""):
        lines = [VERSION_TAG + VERSION]
        for entry in ENTRIES:
            if entry.argv in self.ARGVS:
                digest = "0" * 64 if entry.argv == altered else entry.digest
                lines.append(f"{digest} {entry.exit_code} {entry.argv}")
        assert len(lines) == 1 + len(self.ARGVS)
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.fixture
    def python_m_ramsat(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", str(SRC))
        return [sys.executable, "-m", "ramsat"]

    def test_matching_corpus_passes(self, tmp_path, python_m_ramsat, capsys):
        assert check(python_m_ramsat, self.corpus(tmp_path)) == 0
        assert "mismatch" not in capsys.readouterr().out

    def test_altered_digest_fails_and_names_its_argv(
        self, tmp_path, python_m_ramsat, capsys
    ):
        corpus = self.corpus(tmp_path, altered="number -s 3 -t 3")
        assert check(python_m_ramsat, corpus) == 1
        out = capsys.readouterr().out
        assert out.startswith("mismatch: number -s 3 -t 3\n")
        assert out.count("mismatch") == 1

    def test_prefix_that_cannot_start_is_reported_once(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-ramsat")
        assert check([missing], CORPUS) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("cannot start") == 1
