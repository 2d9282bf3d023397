"""Shared exception bases.

Three failure families matter to callers (and to the command line tool, which
maps them to distinct exit codes): input that could not be parsed, input
that parsed fine but violates a documented precondition of an operation, and
independent routes to one result that give different values.
"""


class InputSyntaxError(ValueError):
    """Raised when a polynomial, permutation, or data file cannot be parsed."""


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


class DOutOfRangeError(PreconditionError):
    """Raised when a fatness index or a degree-vector coordinate is out of range."""


class RouteDisagreementError(RuntimeError):
    """Raised when independent routes to the same result give different values."""
