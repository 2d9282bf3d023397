"""Shared exception bases and the line reader behind every input file.

Three failure families matter to callers (and to the command line tool, which
maps them to distinct exit codes): input that could not be parsed, input
that parsed fine but violates a documented precondition of an operation, and
independent routes to one result that give different values.  One input
error is shared by two modules: ``GSpaceFormatError``, raised by the G-space
reader of :mod:`kzero.quotients` and the file readers of :mod:`kzero.discrete`.

The verbs open every input file with ``read_file``, and every format is read
through ``data_lines`` and ``read_field``, so all formats share one rule for
comments, blank lines and line-numbered errors.
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


class GSpaceFormatError(InputSyntaxError):
    """A stratified G-space, descriptor, or isometry file is malformed."""


def read_file(path: str) -> str:
    """The text of the UTF-8 file at ``path``; a file that cannot be read is an
    ``InputSyntaxError`` naming the path and the reason."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputSyntaxError(f"cannot read {path}: {e.strerror or e}") from None


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
