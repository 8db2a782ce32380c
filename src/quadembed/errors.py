"""Exception types shared across the package."""


class InputError(ValueError):
    """Parameters outside the supported domain (non-integers, bad ranges, excluded tuples)."""


class ConditionsFailed(InputError):
    """A tuple fails one of the necessary conditions N1-N8, so no embedding exists."""


class FormatError(ValueError):
    """Malformed factorization file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PlanInfeasible(RuntimeError):
    """No per-color assignment exists: the exact e-solve over the master range found none."""


class SearchExhausted(RuntimeError):
    """Raised by nothing: the construction is a sequence of flow steps that
    cannot be exhausted.  Kept only because the benchmark harness imports
    it, until the benchmark is updated for the flow construction."""
