"""Shared exception bases and the line reader behind every input file.

Three failure families matter to callers (and to the command line tool, which
exits with each family's ``exit_code``): input that could not be parsed, input
that parsed fine but violates a documented precondition of an operation, and
independent routes to one result that give different values.  One input
error is shared by two modules: ``GSpaceFormatError``, raised by the G-space
reader of :mod:`kzero.quotients` and the file readers of :mod:`kzero.discrete`.

The verbs open every input file with ``read_file``, which reads UTF-8 text of at
most ``MAX_FILE_BYTES`` bytes, and every format is read through ``data_lines``
and ``read_field``, so all formats share one rule for comments, blank lines and
line-numbered errors.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator


class InputSyntaxError(ValueError):
    """Raised when a polynomial, permutation, or data file cannot be parsed."""

    exit_code = 2


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""

    exit_code = 3


class DOutOfRangeError(PreconditionError):
    """Raised when a fatness index or a degree-vector coordinate is out of range."""


class RouteDisagreementError(RuntimeError):
    """Raised when independent routes to the same result give different values."""

    exit_code = 4


class GSpaceFormatError(InputSyntaxError):
    """A stratified G-space, descriptor, or isometry file is malformed."""


MAX_FILE_BYTES = 10**7
"""The most bytes an input file may hold; a longer one, such as ``/dev/zero``, is refused
after ``MAX_FILE_BYTES + 1`` bytes are read."""


def read_file(path: str) -> str:
    """The text of the UTF-8 file at ``path``.  A file that cannot be read or is not UTF-8
    is an ``InputSyntaxError``, and one of more than ``MAX_FILE_BYTES`` bytes a
    ``PreconditionError``, each naming the path and the reason."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as e:
        raise InputSyntaxError(f"cannot read {path}: {e.strerror or e}") from None
    if len(data) > MAX_FILE_BYTES:
        raise PreconditionError(f"{path} is longer than the limit of {MAX_FILE_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputSyntaxError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None


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
