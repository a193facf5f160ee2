"""Byte-identity corpus of CLI runs: argv lines and the digest of each run.

`cli_corpus.txt` holds one command a line as `<sha256> <exit code> <argv>`.
The digest covers the exit code, stdout, stderr and every file left in the
working directory: the seed files below plus whatever the command wrote.
Each command runs in-process through `ramsat.cli.main`, in a fresh
directory holding only the seeds, with help text formatted 80 columns wide.

Regenerate the digests after a deliberate change of output (and only then):

    PYTHONPATH=src python3 tests/cli_corpus.py

To add a command, add a line with `- -` in place of digest and exit code,
then regenerate.  Help text and usage errors are formatted by argparse,
whose wording differs between Python versions; the header records the
version the digests were made with.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from ramsat.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.txt")
VERSION_TAG = "# python "


def _document(n: int, red: set, deleted: tuple = ()) -> str:
    """A coloring document in canonical form, built without ramsat."""
    present = [e for e in combinations(range(n), 2) if e not in deleted]
    payload = {
        "n": n,
        "deleted_edges": [list(e) for e in deleted],
        "red": [list(e) for e in present if e in red],
        "blue": [list(e) for e in present if e not in red],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The README's example document: K_6 minus 0-5, good for (3,3).
_README_RED = {(0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5)}
_C5_RED = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}

SEEDS = {
    "coloring.json": _document(6, _README_RED, deleted=((0, 5),)),
    "witness5.json": _document(5, _C5_RED),
    "red-k3.json": _document(3, {(0, 1), (0, 2), (1, 2)}),
    "holed.json": _document(6, {(1, 2)}, deleted=((0, 5),)),
    "missing-key.json": '{"n": 3, "red": [], "blue": []}\n',
    "gaps.json": '{"n": 3, "deleted_edges": [], "red": [[0, 1]], "blue": [[0, 2]]}\n',
    "truncated.json": "{",
}


class Entry(NamedTuple):
    digest: str
    exit_code: str
    argv: str


class Outcome(NamedTuple):
    digest: str
    exit_code: int
    from_argparse: bool  # argparse printed the output and exited


def _parse(line: str) -> Entry:
    digest, exit_code, argv = (line.rstrip() + " ").split(" ", 2)
    return Entry(digest, exit_code, argv.strip())


def _feed(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


def run(argv: str, workdir: Path) -> Outcome:
    """Run one argv line inside `workdir`, which must hold only the seeds."""
    for name, text in SEEDS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), \
                redirect_stderr(err):
            try:
                code, from_argparse = main(shlex.split(argv)), False
            except SystemExit as exc:
                code, from_argparse = exc.code, True
    finally:
        os.chdir(cwd)
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        _feed(h, part.encode("utf-8"))
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            _feed(h, path.relative_to(workdir).as_posix().encode("utf-8"))
            _feed(h, path.read_bytes())
    return Outcome(h.hexdigest(), code, from_argparse)


def load() -> tuple[str, list[Entry]]:
    """The Python version the digests were made with, and the entries."""
    version, entries = "", []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line.startswith(VERSION_TAG):
            version = line[len(VERSION_TAG):]
        elif line and not line.startswith("#"):
            entries.append(_parse(line))
    return version, entries


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def regenerate() -> None:
    """Rewrite every entry's digest and exit code and the version line;
    comments stay as they are."""
    lines = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line.startswith(VERSION_TAG):
            line = VERSION_TAG + python_version()
        elif line and not line.startswith("#"):
            argv = _parse(line).argv
            with tempfile.TemporaryDirectory() as workdir:
                outcome = run(argv, Path(workdir))
            line = f"{outcome.digest} {outcome.exit_code} {argv}".rstrip()
        lines.append(line + "\n")
    CORPUS.write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
