"""Exception types shared across the package."""


class InputError(ValueError):
    """Parameters outside the supported domain (bad ranges, excluded tuples)."""


class FormatError(ValueError):
    """Malformed plan/factorization file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PlanInfeasible(RuntimeError):
    """No per-color assignment exists: the exact e-solve over the master range found none."""


class SearchExhausted(RuntimeError):
    """Backtracking search gave up: node budget hit, or space exhausted with no solution.

    ``complete`` is True when the whole space was searched (a genuine
    non-existence certificate at this scale), False when the node budget ran
    out first (inconclusive).  ``nodes`` is how many search nodes were
    visited.
    """

    def __init__(self, message: str, complete: bool = False,
                 nodes: int | None = None):
        self.complete = complete
        self.nodes = nodes
        super().__init__(message)
