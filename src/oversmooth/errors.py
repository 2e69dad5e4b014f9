"""Exception types shared across the package."""


class OversmoothError(Exception):
    """Base class for all package errors."""


class ParseError(OversmoothError):
    """Malformed input file (edge list, feature CSV, config)."""


class DomainError(OversmoothError):
    """Input is well-formed but outside the valid domain of an operation."""


class PreconditionError(DomainError):
    """A check's inputs miss a precondition of the claim it tests (a rank
    condition on x0, say), so the claim cannot be tested on them."""


class ContractError(OversmoothError):
    """An internal precondition/postcondition was violated."""


class DegenerateColumnError(OversmoothError):
    """A normalization layer hit a zero (or constant) column."""

    def __init__(self, column: int, reason: str):
        self.column = column
        self.reason = reason
        super().__init__(f"degenerate column {column}: {reason}")
