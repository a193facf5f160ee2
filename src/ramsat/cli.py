"""Command-line interface.

Exit codes form a stable contract:
  0  success (SAT / good / value computed)
  1  UNSAT or bad coloring
  2  usage error or malformed input
  3  search bound exhausted (not found within --max-k)
  4  decision budget exceeded (for number, also the size limit reached)
  130  interrupted (Ctrl-C)

Primary results go to stdout; errors and diagnostics go to stderr.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import search
from .cnf import export_dimacs
from .coloring import EdgeColoring, Verdict, is_good
from .document import ColoringDocument
from .dpll import DEFAULT_DECISION_BUDGET, SolveStatus
from .errors import BudgetExceededError, DocumentError
from .graphs import DeletedEdgeGraph, Edge, edge
from .search import budget_exceeded, extend_coloring, min_deletions, ramsey_number

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_BUDGET = 4
EXIT_INTERRUPTED = 130


def _edge_argument(text: str) -> Edge:
    """Parse an edge written as u-v."""
    malformed = argparse.ArgumentTypeError(f"expected an edge like 0-5, got {text!r}")
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if match is None:
        raise malformed
    try:
        u, v = map(int, match.groups())
    except ValueError as exc:  # a vertex past int()'s digit limit
        raise malformed from exc
    if u == v:
        raise argparse.ArgumentTypeError(f"loop edge {text!r}")
    return edge(u, v)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: refused with the same message
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _load_document(path: str) -> ColoringDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    return ColoringDocument.from_json_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsat",
        description="Ramsey numbers and clique-avoiding edge colorings via SAT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_number = sub.add_parser(
        "number", help="compute r(s,t) by solving K_n for increasing n"
    )
    p_number.add_argument("-s", type=_positive_int, required=True)
    p_number.add_argument("-t", type=_positive_int, required=True)
    p_number.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_DECISION_BUDGET,
        help="decisions for the whole walk, at least one per n",
    )
    p_number.add_argument(
        "--witness", metavar="PATH", help="write the good coloring of K_{p-1} as JSON"
    )
    p_number.set_defaults(handler=cmd_number)

    p_solve = sub.add_parser(
        "solve", help="solve one instance: K_n minus deleted edges, sizes (s,t)"
    )
    p_solve.add_argument("-n", type=_positive_int, required=True)
    p_solve.add_argument("-s", type=_positive_int, required=True)
    p_solve.add_argument("-t", type=_positive_int, required=True)
    p_solve.add_argument(
        "--delete",
        metavar="U-V",
        type=_edge_argument,
        action="append",
        default=[],
        help="delete an edge (repeatable)",
    )
    p_solve.add_argument("--budget", type=_positive_int, default=DEFAULT_DECISION_BUDGET)
    p_solve.add_argument(
        "--json", metavar="PATH", help="write the coloring as JSON when SAT"
    )
    p_solve.add_argument(
        "--dimacs", metavar="PATH", help="write the CNF encoding as DIMACS"
    )
    p_solve.set_defaults(handler=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a coloring document for (s,t)")
    p_verify.add_argument("json_path")
    p_verify.add_argument("-s", type=_positive_int, required=True)
    p_verify.add_argument("-t", type=_positive_int, required=True)
    p_verify.set_defaults(handler=cmd_verify)

    p_extend = sub.add_parser(
        "extend", help="extend a good coloring of K_{p-1} to K_p minus one edge"
    )
    p_extend.add_argument("json_path")
    p_extend.add_argument("--vertex", type=int, required=True, help="vertex to twin")
    p_extend.add_argument("-s", type=_positive_int, required=True)
    p_extend.add_argument("-t", type=_positive_int, required=True)
    p_extend.add_argument("--out", metavar="PATH", required=True)
    p_extend.set_defaults(handler=cmd_extend)

    p_min = sub.add_parser(
        "min-deletions", help="fewest deletions from K_p admitting a good coloring"
    )
    p_min.add_argument("-s", type=_positive_int, required=True)
    p_min.add_argument("-t", type=_positive_int, required=True)
    p_min.add_argument("-p", type=_positive_int, required=True)
    p_min.add_argument(
        "--max-k",
        type=int,
        default=None,
        help="largest deletion count to try (default: p-1)",
    )
    p_min.add_argument("--budget", type=_positive_int, default=DEFAULT_DECISION_BUDGET)
    p_min.add_argument(
        "--json", metavar="PATH", help="write the coloring found as JSON"
    )
    p_min.set_defaults(handler=cmd_min_deletions)

    p_dot = sub.add_parser("export-dot", help="render a coloring document as DOT")
    p_dot.add_argument("json_path")
    p_dot.add_argument("-o", "--out", metavar="PATH", required=True, dest="out")
    p_dot.set_defaults(handler=cmd_export_dot)

    return parser


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_coloring(path: str, coloring: EdgeColoring) -> None:
    _write(path, ColoringDocument.from_coloring(coloring).to_json_text())


def _format_edge(e: Edge) -> str:
    return f"{e[0]}-{e[1]}"


def _bad_line(verdict: Verdict) -> str:
    color, clique = verdict.witness
    vertices = ",".join(str(v) for v in clique)
    return f"BAD: {color.value} K_{len(clique)} on {{{vertices}}}"


def cmd_number(args: argparse.Namespace) -> int:
    result = ramsey_number(args.s, args.t, budget=args.budget)
    if args.witness:
        _write_coloring(args.witness, result.witness)
    print(f"r({args.s},{args.t}) = {result.p}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    graph = DeletedEdgeGraph(args.n, tuple(args.delete))
    decision = search.decide(graph, args.s, args.t, budget=args.budget)
    if args.dimacs:
        _write(args.dimacs, export_dimacs(decision.formula, graph))
    if decision.status is SolveStatus.BUDGET_EXCEEDED:
        raise budget_exceeded(args.budget, args.n)
    if decision.status is SolveStatus.UNSAT:
        print("UNSAT")
        return EXIT_NEGATIVE
    if args.json:
        _write_coloring(args.json, decision.coloring)
    print("SAT")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    document = _load_document(args.json_path)
    verdict = is_good(document.to_coloring(), args.s, args.t)
    if verdict.good:
        print("GOOD")
        return EXIT_OK
    print(_bad_line(verdict))
    return EXIT_NEGATIVE


def cmd_extend(args: argparse.Namespace) -> int:
    coloring = _load_document(args.json_path).to_coloring()
    extended = extend_coloring(coloring, args.vertex)
    # one walk of the extension decides the input too (see extend_coloring)
    verdict = is_good(extended, args.s, args.t)
    if not verdict.good:
        print(_bad_line(verdict))
        return EXIT_NEGATIVE
    _write_coloring(args.out, extended)
    print(f"deleted edge {_format_edge(extended.graph.deleted[0])}")
    return EXIT_OK


def cmd_min_deletions(args: argparse.Namespace) -> int:
    k_max = args.p - 1 if args.max_k is None else args.max_k
    coloring = min_deletions(args.s, args.t, args.p, k_max, budget=args.budget)
    if coloring is None:
        print(f"e > {k_max}")
        return EXIT_EXHAUSTED
    if args.json:
        _write_coloring(args.json, coloring)
    deleted = coloring.graph.deleted
    print(f"e = {len(deleted)}")
    print(f"deleted: {' '.join(map(_format_edge, deleted)) or 'none'}")
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    _write(args.out, _load_document(args.json_path).to_dot())
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"BUDGET EXCEEDED: {exc}")
        return EXIT_BUDGET
    except (DocumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def run() -> None:
    sys.exit(main())
