"""Shared exception bases and the line reader behind every input file.

Three failure families matter to callers (and to the command line tool, which
maps them to distinct exit codes): input that could not be parsed, input
that parsed fine but violates a documented precondition of an operation, and
independent routes to one result that give different values.

Every input file is read through ``data_lines`` and ``read_field``, so all
formats share one rule for comments, blank lines and line-numbered errors.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator


class InputSyntaxError(ValueError):
    """Raised when a polynomial, permutation, or data file cannot be parsed."""


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


class DOutOfRangeError(PreconditionError):
    """Raised when a fatness index or a degree-vector coordinate is out of range."""


class RouteDisagreementError(RuntimeError):
    """Raised when independent routes to the same result give different values."""


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, content) for each line not blank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_field(convert: Callable, token: Any, error: type[InputSyntaxError], message: str) -> Any:
    """Return ``convert(token)``.  A ``ValueError`` or ``ZeroDivisionError`` becomes ``error``
    with ``message`` and the cause; a ``PreconditionError`` passes through unchanged."""
    try:
        return convert(token)
    except PreconditionError:
        raise
    except (ValueError, ZeroDivisionError) as e:
        raise error(f"{message}: {e}") from None
