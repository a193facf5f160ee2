"""Byte-identity corpus of CLI runs: argv lines and the digest of each run.

`cli_corpus.txt` holds one command a line as `<sha256> <exit code> <argv>`.
The digest covers the exit code, stdout, stderr and every file left in the
working directory: the seed files below plus whatever the command wrote.
Each command runs in a fresh directory holding only the seeds, with help
text formatted 80 columns wide.  `run` calls `ramsat.cli.main` in-process;
`run_through` starts a command prefix as a subprocess.

Regenerate the digests after a deliberate change of output (and only then):

    PYTHONPATH=src python3 tests/cli_corpus.py

Replay the corpus through an installed entry point, such as the console
script or `python -m ramsat`; it prints each argv whose run does not match
and exits 1 on any mismatch, or 2 if the prefix cannot be started:

    python3 tests/cli_corpus.py --check ramsat
    PYTHONPATH=src python3 tests/cli_corpus.py --check "python3 -m ramsat"

To add a command, add a line with `- -` in place of digest and exit code,
then regenerate.  A CLI output is pinned by a corpus line, not by a shell
check in CI or a `test_cli.py` case that repeats the same bytes;
`test_cli.py` keeps only what a digest cannot check.  Help text and usage
errors are formatted by argparse, whose wording differs between Python
versions; the header records the version the digests were made with, and
under another version those entries check their exit code only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from typing import NamedTuple, Sequence
from unittest import mock

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


def _seed(workdir: Path) -> None:
    for name, text in SEEDS.items():
        (workdir / name).write_text(text, encoding="utf-8")


def _outcome(code: int, out: bytes, err: bytes, workdir: Path) -> Outcome:
    h = hashlib.sha256()
    for part in (str(code).encode("utf-8"), out, err):
        _feed(h, part)
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            _feed(h, path.relative_to(workdir).as_posix().encode("utf-8"))
            _feed(h, path.read_bytes())
    # argparse's help and its usage errors both begin with the usage line,
    # which ramsat itself never prints
    from_argparse = out.startswith(b"usage: ") or err.startswith(b"usage: ")
    return Outcome(h.hexdigest(), code, from_argparse)


def run(argv: str, workdir: Path) -> Outcome:
    """Run one argv line in-process inside `workdir`, which must be empty."""
    from ramsat.cli import main  # imported here so that --check needs no ramsat

    _seed(workdir)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), \
                redirect_stderr(err):
            try:
                code = main(shlex.split(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return _outcome(
        code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), workdir
    )


def run_through(prefix: Sequence[str], argv: str, workdir: Path) -> Outcome:
    """Run one argv line as `prefix + argv` inside `workdir`, which must be
    empty.  Raises OSError if the prefix cannot be started."""
    _seed(workdir)
    env = dict(os.environ, COLUMNS="80")
    if "PYTHONPATH" in env:  # the child runs in `workdir`: resolve entries here
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) for entry in env["PYTHONPATH"].split(os.pathsep)
        )
    proc = subprocess.run(
        [*prefix, *shlex.split(argv)], cwd=workdir, env=env, capture_output=True
    )
    return _outcome(proc.returncode, proc.stdout, proc.stderr, workdir)


def matches(entry: Entry, outcome: Outcome, version: str) -> bool:
    """The exit code always; the digest unless argparse wrote the output
    under a Python other than `version`, the one the digests were made with."""
    if str(outcome.exit_code) != entry.exit_code:
        return False
    loose = outcome.from_argparse and version != python_version()
    return loose or outcome.digest == entry.digest


def load(corpus: Path = CORPUS) -> tuple[str, list[Entry]]:
    """The Python version the digests were made with, and the entries."""
    version, entries = "", []
    for line in corpus.read_text(encoding="utf-8").splitlines():
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


def check(prefix: Sequence[str], corpus: Path = CORPUS) -> int:
    """Replay every entry through `prefix`; the exit status of --check."""
    version, entries = load(corpus)
    mismatches = 0
    for entry in entries:
        with tempfile.TemporaryDirectory() as workdir:
            try:
                outcome = run_through(prefix, entry.argv, Path(workdir))
            except OSError as exc:
                print(f"cannot start {shlex.join(prefix)}: {exc}", file=sys.stderr)
                return 2
        if not matches(entry, outcome, version):
            print(f"mismatch: {entry.argv}")
            mismatches += 1
    print(f"{len(entries) - mismatches} of {len(entries)} entries match "
          f"through {shlex.join(prefix)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        metavar="PREFIX",
        help="replay the corpus through this command instead of regenerating it",
    )
    args = parser.parse_args()
    if args.check is None:
        regenerate()
    else:
        sys.exit(check(shlex.split(args.check)))
