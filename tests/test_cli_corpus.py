"""Byte identity: every CLI run in `cli_corpus.txt` matches its digest.

Help text and usage errors come from argparse, whose wording changes
between Python versions; under a version other than the one the digests
were made with, those entries check their exit code only.
"""

from __future__ import annotations

import pytest

from .cli_corpus import load, python_version, run

VERSION, ENTRIES = load()


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.argv or "(no arguments)" for entry in ENTRIES]
)
def test_run_is_byte_identical(entry, tmp_path):
    outcome = run(entry.argv, tmp_path)
    assert str(outcome.exit_code) == entry.exit_code
    if not outcome.from_argparse or VERSION == python_version():
        assert outcome.digest == entry.digest


def test_corpus_covers_every_exit_code():
    assert {entry.exit_code for entry in ENTRIES} == {"0", "1", "2", "3", "4"}
