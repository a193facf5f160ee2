"""A small, complete, deterministic DPLL solver.

Plain chronological DPLL over two watched literals per clause: no clause
learning, no restarts, no randomness, no heuristics beyond the fixed rule
"branch on the lowest-index unassigned variable, try true first".  The
point is reproducibility, not raw speed: identical formulas always produce
identical results, models included.

Internally a literal is coded as 2*var for the positive and 2*var+1 for
the negative phase, so `code ^ 1` negates and `code >> 1` recovers the
variable.  Clauses are loaded through a table indexed by literal:
code_of[v] = 2v and code_of[-v] = 2v+1, a negative index counting from
the end of the list.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .cnf import CnfFormula

DEFAULT_DECISION_BUDGET = 10_000_000


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET_EXCEEDED = "budget exceeded"


class SolveResult(NamedTuple):
    """Solver outcome; `model` is a total assignment only for SAT."""

    status: SolveStatus
    model: Optional[dict[int, bool]]
    decisions: int


def solve(formula: CnfFormula, budget: int = DEFAULT_DECISION_BUDGET) -> SolveResult:
    """Decide the formula, counting every branch assignment as a decision.

    Both phases of a branch variable count (the flip after a conflict is a
    decision too).  The search stops before a decision past `budget`, with
    BUDGET_EXCEEDED, which is an "I don't know", never an UNSAT.
    """
    n = formula.num_vars
    # truth value per literal code: 0 unassigned, 1 true, 2 false
    val = [0] * (2 * n + 2)
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 2)]
    trail: list[int] = []
    qhead = 0
    decisions = 0

    def assign(code: int) -> None:
        val[code] = 1
        val[code ^ 1] = 2
        trail.append(code)

    code_of = [v << 1 for v in range(n + 1)] + [v << 1 | 1 for v in range(n, 0, -1)]
    for clause in formula.clauses:
        codes = list(map(code_of.__getitem__, clause))
        if len(codes) >= 2:
            # positions 0 and 1 are the watched literals
            watches[codes[0]].append(codes)
            watches[codes[1]].append(codes)
        elif not codes or val[codes[0]] == 2:
            return SolveResult(SolveStatus.UNSAT, None, 0)
        elif val[codes[0]] == 0:
            assign(codes[0])

    # the state is passed in because a local read is cheaper than a closure's
    def propagate(val: list[int], watches: list, trail: list[int]) -> bool:
        """Run unit propagation to fixpoint; False means conflict."""
        nonlocal qhead
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            watchlist = watches[falsified]
            kept: list[list[int]] = []
            for ci, cl in enumerate(watchlist):
                if cl[0] == falsified:
                    cl[0] = cl[1]
                    cl[1] = falsified
                other = cl[0]
                if val[other] == 1:
                    kept.append(cl)
                    continue
                for k in range(2, len(cl)):
                    if val[cl[k]] != 2:
                        cl[1] = cl[k]
                        cl[k] = falsified
                        watches[cl[1]].append(cl)
                        break
                else:
                    kept.append(cl)
                    if val[other] == 2:
                        kept.extend(watchlist[ci + 1 :])
                        watches[falsified] = kept
                        return False
                    val[other] = 1
                    val[other ^ 1] = 2
                    trail.append(other)
            watches[falsified] = kept
        return True

    # decision stack entries: (trail length at decision, literal code, flipped?)
    stack: list[tuple[int, int, bool]] = []
    search_from = 1

    while True:
        if propagate(val, watches, trail):
            if len(trail) == n:
                model = {v: val[v << 1] == 1 for v in range(1, n + 1)}
                return SolveResult(SolveStatus.SAT, model, decisions)
            var = search_from
            while val[var << 1]:
                var += 1
            height, code, flipped = len(trail), var << 1, False
        else:
            while stack and stack[-1][2]:
                stack.pop()
            if not stack:
                return SolveResult(SolveStatus.UNSAT, None, decisions)
            height, code, _ = stack.pop()
            while len(trail) > height:
                undone = trail.pop()
                val[undone] = 0
                val[undone ^ 1] = 0
            qhead = height
            code, flipped = code ^ 1, True
        if decisions >= budget:
            return SolveResult(SolveStatus.BUDGET_EXCEEDED, None, decisions)
        decisions += 1
        stack.append((height, code, flipped))
        assign(code)
        # variables below the decision variable are all still assigned
        search_from = (code >> 1) + 1
