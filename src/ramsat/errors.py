"""Exception types shared across the package."""


class RamsatError(Exception):
    """Base class for all ramsat-specific errors."""


class BudgetExceededError(RamsatError):
    """A search gave up because it hit its decision budget.

    Deliberately distinct from an UNSAT/not-found outcome: the question
    was not answered.
    """


class TheoremViolationError(RamsatError):
    """A constructed coloring failed its re-verification.

    The vertex-duplication construction is provably good, so this can only
    mean an implementation bug; it is raised loudly instead of returning a
    silently wrong coloring.
    """


class DocumentError(RamsatError):
    """A coloring document violates its schema or partition invariants."""
