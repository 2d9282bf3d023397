"""Command line interface: the verb table, the argv reader and the exit codes.

One verb per calculator operation; every verb prints its result on the last
line of stdout in the canonical text form, so outputs are byte-stable and
re-parseable.  Exit codes: 0 on success, 1 when stdout could not be written
(with an ``error:`` line, or with nothing on stderr when its reader closed
it), 2 when an input (file or argument) cannot be parsed, 3 when a documented
precondition is violated or the result outgrows the memory the process may
take (a ``MemoryError``, reported as ``error: out of memory``), 4 when the
independent routes of ``quotient`` disagree.  Help goes through the same write
path as a verb's output, and a code does not depend on stderr taking its
``error:`` line.

A verb's handler, ``cmd_<verb>``, lives in the module whose formula it calls,
its home in ``VERBS``; ``main`` imports that module alone, so a job compiles
only its own handler and formulas.  The home of ``eval`` is
:mod:`kzero.polyvalues`, the ring's exchange with Python values, which no other
verb runs.  No handler module imports this one: under
``python -m kzero.cli`` it runs as ``__main__``, and such an import would
compile it a second time.

``main()`` with no argv is the process, as ``python -m kzero.cli`` and the
``kzero`` console script call it: once the verb is done it flushes stdout and
stderr and ends with ``os._exit``, so neither the interpreter's exit-time
collection nor its module teardown runs, and neither do ``atexit`` hooks.
Under a tracer or profiler, under ``python -i`` and after a traceback it
returns instead, and the interpreter exits as usual.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import InputSyntaxError, PreconditionError, RouteDisagreementError

if TYPE_CHECKING:
    import argparse


_PATH = {"required": True, "metavar": "PATH"}
_INT = {"required": True, "type": int}
_COMPLEX = ("--complex", _PATH)
_X = ("--X", {"required": True})
_M = ("--m", _INT)
_N = ("--n", _INT)
_ORDER = ("--order", _INT)
_SHOW_POSET = ("--show-poset", {"action": "store_true", "help": "print the intersection poset"})
_LATEX = ("--latex", {"action": "store_true", "help": "render output for LaTeX"})

VERBS: dict[str, tuple[str, str, tuple[tuple[str, dict], ...]]] = {
    # name: (help, home module, arguments as (flag, add_argument keywords), in usage order)
    "polyprod": ("class of a polyhedral product (X, A)^K", "polyhedral", (
        _COMPLEX,
        ("--X", {"required": True, "help": "class of X (polynomial or integer)"}),
        ("--A", {"required": True, "help": "class of A"}),
        _LATEX,
    )),
    "complement": ("class of X^n minus a polyhedral product", "polyhedral",
                   (_COMPLEX, _X, ("--A", {"required": True}), _SHOW_POSET, _LATEX)),
    "fatwedge": ("class of tuples with at most d coordinates off basepoint", "arrangements",
                 (_N, ("--d", _INT), _X, _LATEX)),
    "config": ("class of the diagonal arrangement Delta_K(X)", "polyhedral", (_COMPLEX, _X, _LATEX)),
    "config-complement": ("class of X^n minus Delta_K(X)", "polyhedral",
                          (_COMPLEX, _X, _SHOW_POSET, _LATEX)),
    "permprod": ("class of X^n / G for a subgroup G of S_n", "products",
                 (("--group", _PATH), _X, _LATEX)),
    "cycprod": ("class of the cyclic product X^n / (Z/n)", "products", (_N, _X, _LATEX)),
    "symprod-series": ("symmetric product series (1 - t)^(-x)", "classseries", (_X, _ORDER, _LATEX)),
    "zerocycles": ("0-cycle series, or the full table with --table", "zerocycles", (
        _M, _N, _X, _ORDER,
        ("--table", {"action": "store_true", "help": "dump degree vector -> class lines"}),
        _LATEX,
    )),
    "ratio": ("0-cycle series divided by the symmetric product series", "zerocycles",
              (_M, _N, _X, _ORDER, _LATEX)),
    "quotient": ("class of X/G from a stratified G-space file", "quotients", (("--space", _PATH), _LATEX)),
    "quotient-descriptor": ("class of X/Gamma from an action descriptor", "discrete",
                            (("--descriptor", _PATH), _LATEX)),
    "orbifold-euler": ("orbifold Euler characteristic from cell data", "discrete",
                       (("--cells", _PATH),)),
    "crystal": ("Euler characteristic of R^n / Gamma from isometry classes", "discrete",
                (("--descriptor", _PATH),)),
    "fixed-point": ("does an affine map have a unique fixed point", "discrete", (("--map", _PATH),)),
    "eval": ("parse a polynomial; evaluate it with --at assignments", "polyvalues", (
        ("expr", {"help": "polynomial text"}),
        ("--at", {"action": "append", "default": [], "metavar": "NAME=INT"}),
        _LATEX,
    )),
}
"""Every verb: its help line, the module that defines its ``cmd_<verb>`` handler and its
arguments."""


def build_parser() -> argparse.ArgumentParser:
    """The ``kzero`` parser, with a subparser for each verb."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="kzero",
        description="exact Grothendieck class calculator for stratified spaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, _, arguments) in VERBS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of an argv of the plain shape ``verb (--flag value | --switch)*
    [positional]``, read straight off the verb's ``VERBS`` row: the values
    ``build_parser().parse_args(argv)`` would give, with no parser built.  Any other
    argv gives ``None``, so argparse reports it: help, a missing or unknown verb, an
    unknown, abbreviated or ``--flag=value`` flag, a value that starts with ``-``, a
    repeated option other than an ``append`` one, a missing or stray argument, and a
    value that the flag's ``type`` refuses."""
    if not argv or argv[0] not in VERBS:
        return None
    arguments = VERBS[argv[0]][2]
    keywords_of = dict(arguments)
    positionals = [flag for flag, _ in arguments if not flag.startswith("-")]
    found: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            flag, value = positionals.pop(0), token
        elif token not in keywords_of:
            return None
        elif keywords_of[token].get("action") == "store_true":
            flag, value = token, True
        else:
            flag, value = token, next(tokens, "-")  # a missing value reads as one that starts with "-"
            if value.startswith("-"):
                return None
        keywords = keywords_of[flag]
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if keywords.get("action") == "append":
            found[flag] = [*found.get(flag, ()), value]
        elif flag in found:
            return None
        else:
            found[flag] = value
    values = {"verb": argv[0]}
    for flag, keywords in arguments:
        if flag not in found and (keywords.get("required") or not flag.startswith("-")):
            return None
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        values[flag.lstrip("-").replace("-", "_")] = found.get(flag, default)
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run the verb of ``argv`` and return its exit code.

    With no argv, ``main`` is the process: it reads ``sys.argv`` and, once the verb has
    returned its code or argparse has exited with one, flushes stdout and stderr and ends
    the process with ``os._exit``.  So the exit-time collection, module teardown and
    ``atexit`` hooks do not run.  Under a tracer or profiler (``sys.gettrace()`` or
    ``sys.getprofile()`` set, as by coverage, ``pdb`` or ``cProfile``) or ``python -i`` it
    returns the code instead, and a traceback propagates, so the interpreter exits as
    usual.  With an argv, ``main`` always returns."""
    if argv is None:
        return _process(sys.argv[1:])
    args = read_argv(argv)
    try:
        if args is None:  # help and usage errors come from argparse, which ignores a failed write
            # of its own: what it prints on stdout, such as help, is written here, where one raises
            try:
                with redirect_stdout(io.StringIO()) as text:
                    args = build_parser().parse_args(argv, SimpleNamespace())
            finally:
                if text.tell():  # a write of nothing fails on a full device too
                    sys.stdout.write(text.getvalue())
        from importlib import import_module

        getattr(import_module(f".{VERBS[args.verb][1]}", __package__),
                "cmd_" + args.verb.replace("-", "_"))(args)
        sys.stdout.flush()
    except (InputSyntaxError, PreconditionError, RouteDisagreementError) as e:
        _stderr(f"error: {e}")
        return e.exit_code
    except MemoryError:  # a result past the address space: a precondition no verb can check up front
        _stderr("error: out of memory")
        return 3
    except OSError as e:  # a write to stdout: read_file turns every other OSError into an input error
        return _write_failed(e)
    return 0


def _write_failed(e: OSError) -> int:
    """Exit code 1 for the write to stdout that raised ``e``, with an ``error:`` line unless
    the reader closed stdout.  Fd 1 then points at the null device, so no later flush can
    raise again (the idiom of the Python docs' note on SIGPIPE)."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if not isinstance(e, BrokenPipeError):
        _stderr(f"error: cannot write the output: {e.strerror or e}")
    return 1


def _stderr(line: str = "") -> None:
    """Write ``line`` and a newline on stderr, or nothing for no line, and flush it.  When stderr
    refuses, fd 2 points at the null device after, as fd 1 does after a failed write: the exit
    code stays the contract's."""
    try:
        sys.stderr.write(line and line + "\n")
        sys.stderr.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _process(argv: list[str]) -> int:
    """The process of ``main()``: run ``argv``, then flush stdio and end at ``os._exit``
    unless a tracer, a profiler or ``python -i`` waits for the interpreter's own exit."""
    try:
        code = main(argv)
    except SystemExit as e:  # help and usage errors, from argparse
        if not isinstance(e.code, int):
            raise
        code = e.code
    if sys.gettrace() is not None or sys.getprofile() is not None or sys.flags.inspect:
        return code
    try:
        sys.stdout.flush()  # what argparse wrote, such as help
    except OSError as e:
        code = _write_failed(e)
    _stderr()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
