"""Exception types shared across the package."""


class RamsatError(Exception):
    """Base class for all ramsat-specific errors."""


class BudgetExceededError(RamsatError):
    """A search gave up at its decision budget or at the size limit.

    Deliberately distinct from an UNSAT/not-found outcome: the question
    was not answered.
    """


class TheoremViolationError(RamsatError):
    """A solver model decoded to a coloring that fails re-verification.

    Every model of the encoding is a good coloring, so this can only mean
    an implementation bug; it is raised loudly instead of returning a
    silently wrong coloring.
    """


class DocumentError(RamsatError):
    """A coloring document violates its schema or partition invariants."""
