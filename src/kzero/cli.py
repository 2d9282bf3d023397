"""Command line interface.

One verb per calculator operation; every verb prints its result on the last
line of stdout in the canonical text form, so outputs are byte-stable and
re-parseable.  Exit codes: 0 on success, 1 when the reader of stdout closed it
before the output was written, 2 when an input (file or argument) cannot be
parsed, 3 when a documented precondition is violated, 4 when the independent
routes of ``quotient`` disagree.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import InputSyntaxError, PreconditionError, RouteDisagreementError, read_field

if TYPE_CHECKING:
    import argparse

    from .classpoly import ClassPoly
    from .classseries import ClassSeries
    from .simplicial import SimplicialComplex


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputSyntaxError(f"cannot read {path}: {e.strerror or e}") from None


def _render(value: ClassPoly | ClassSeries, latex: bool) -> str:
    return value.latex() if latex else str(value)


def _print_complement(K: SimplicialComplex, result: ClassPoly, args: SimpleNamespace) -> None:
    """Print a complement class of K, below K's intersection poset when ``--show-poset``
    asked for one; the class is computed first, so a refused input prints nothing."""
    if args.show_poset:
        from .posets import intersection_poset

        for line in intersection_poset(K).render().splitlines():
            print(f"# {line}")
    print(_render(result, args.latex))


def cmd_polyprod(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import PolyPair, polyhedral_product_class
    from .simplicial import SimplicialComplex

    K = SimplicialComplex.from_text(_read_file(args.complex))
    pair = PolyPair(parse_poly(args.X), parse_poly(args.A))
    print(_render(polyhedral_product_class(K, pair), args.latex))


def cmd_complement(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import PolyPair, polyhedral_product_complement_class
    from .simplicial import SimplicialComplex

    K = SimplicialComplex.from_text(_read_file(args.complex))
    pair = PolyPair(parse_poly(args.X), parse_poly(args.A))
    _print_complement(K, polyhedral_product_complement_class(K, pair), args)


def cmd_fatwedge(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import fat_wedge_class

    print(_render(fat_wedge_class(args.n, args.d, parse_poly(args.X)), args.latex))


def cmd_config(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import delta_config_class
    from .simplicial import SimplicialComplex

    K = SimplicialComplex.from_text(_read_file(args.complex))
    print(_render(delta_config_class(K, parse_poly(args.X)), args.latex))


def cmd_config_complement(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import m_complement_class
    from .simplicial import SimplicialComplex

    K = SimplicialComplex.from_text(_read_file(args.complex))
    _print_complement(K, m_complement_class(K, parse_poly(args.X)), args)


def cmd_permprod(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .permgroups import PermGroup, check_degree, parse_group_generators, permutation_product_class

    degree, gens = parse_group_generators(_read_file(args.group))
    check_degree(degree)
    G = PermGroup.generate(degree, gens)
    print(_render(permutation_product_class(G, parse_poly(args.X)), args.latex))


def cmd_cycprod(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .permgroups import cyclic_product_class

    print(_render(cyclic_product_class(args.n, parse_poly(args.X)), args.latex))


def cmd_symprod_series(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .classseries import macdonald_series

    print(_render(macdonald_series(parse_poly(args.X), args.order), args.latex))


def cmd_zerocycles(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .zerocycles import ZeroCycleTable, closed_series

    if args.table:
        table = ZeroCycleTable(args.m, args.n, parse_poly(args.X), args.order)
        texts: dict[int, str] = {}  # permuted degree vectors share one class object
        for d, value in table.entries():
            if id(value) not in texts:
                texts[id(value)] = _render(value, args.latex)
            print(f"{','.join(map(str, d))}: {texts[id(value)]}")
        return
    print(_render(closed_series(args.m, args.n, parse_poly(args.X), args.order), args.latex))


def cmd_ratio(args: SimpleNamespace) -> None:
    from .classpoly import parse_poly
    from .zerocycles import ratio_series

    print(_render(ratio_series(args.m, args.n, parse_poly(args.X), args.order), args.latex))


def cmd_quotient(args: SimpleNamespace) -> None:
    from .quotients import burnside_class, centralizer_sum_class, orbit_sum_class, parse_gspace_text

    space = parse_gspace_text(_read_file(args.space))
    result = centralizer_sum_class(space)
    check = burnside_class(space)
    orbit = orbit_sum_class(space)
    if result != check or result != orbit:
        raise RouteDisagreementError(
            f"quotient routes disagree: centralizer sum {result}, "
            f"Burnside {check}, orbit sum {orbit}"
        )
    print(_render(result, args.latex))


def cmd_quotient_descriptor(args: SimpleNamespace) -> None:
    from .quotients import descriptor_class, parse_descriptor_text

    descriptor = parse_descriptor_text(_read_file(args.descriptor))
    print(_render(descriptor_class(descriptor), args.latex))


def cmd_orbifold_euler(args: SimpleNamespace) -> None:
    from .classpoly import check_digits
    from .quotients import orbifold_euler, parse_cells_text

    cells = parse_cells_text(_read_file(args.cells))
    print(check_digits(orbifold_euler(cells)))


def cmd_crystal(args: SimpleNamespace) -> None:
    import warnings

    from .classpoly import check_digits
    from .quotients import crystal_chi, parse_isometry_classes_text

    classes = parse_isometry_classes_text(_read_file(args.descriptor))
    # A non-integral sum is still the answer to print; the library's warning
    # about it would be an extra stderr line outside the exit-code contract.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        chi = crystal_chi(classes)
    print(check_digits(chi))


def cmd_fixed_point(args: SimpleNamespace) -> None:
    from .quotients import has_unique_fixed_point, parse_affine_map_text

    affine = parse_affine_map_text(_read_file(args.map))
    print("yes" if has_unique_fixed_point(affine) else "no")


def cmd_eval(args: SimpleNamespace) -> None:
    from .classpoly import ClassPoly, check_digits, parse_poly

    poly = parse_poly(args.expr)
    if not args.at:
        print(_render(poly, args.latex))
        return
    assignment: dict[str, int] = {}
    for item in args.at:
        name, _, value = item.partition("=")
        message = f"bad --at {item!r}"
        name = name.strip()
        read_field(ClassPoly.var, name, InputSyntaxError, message)  # checks the name
        if name in assignment:
            raise InputSyntaxError(f"{message}: {name} is assigned twice")
        assignment[name] = read_field(int, value, InputSyntaxError, message)
    print(check_digits(poly.evaluate(assignment)))


_PATH = {"required": True, "metavar": "PATH"}
_INT = {"required": True, "type": int}
_COMPLEX = ("--complex", _PATH)
_X = ("--X", {"required": True})
_M = ("--m", _INT)
_N = ("--n", _INT)
_ORDER = ("--order", _INT)
_SHOW_POSET = ("--show-poset", {"action": "store_true", "help": "print the intersection poset"})
_LATEX = ("--latex", {"action": "store_true", "help": "render output for LaTeX"})

VERBS: dict[str, tuple[str, Callable[[SimpleNamespace], None], tuple[tuple[str, dict], ...]]] = {
    # name: (help, handler, arguments as (flag, add_argument keywords), in usage order)
    "polyprod": ("class of a polyhedral product (X, A)^K", cmd_polyprod, (
        _COMPLEX,
        ("--X", {"required": True, "help": "class of X (polynomial or integer)"}),
        ("--A", {"required": True, "help": "class of A"}),
        _LATEX,
    )),
    "complement": ("class of X^n minus a polyhedral product", cmd_complement,
                   (_COMPLEX, _X, ("--A", {"required": True}), _SHOW_POSET, _LATEX)),
    "fatwedge": ("class of tuples with at most d coordinates off basepoint", cmd_fatwedge,
                 (_N, ("--d", _INT), _X, _LATEX)),
    "config": ("class of the diagonal arrangement Delta_K(X)", cmd_config, (_COMPLEX, _X, _LATEX)),
    "config-complement": ("class of X^n minus Delta_K(X)", cmd_config_complement,
                          (_COMPLEX, _X, _SHOW_POSET, _LATEX)),
    "permprod": ("class of X^n / G for a subgroup G of S_n", cmd_permprod,
                 (("--group", _PATH), _X, _LATEX)),
    "cycprod": ("class of the cyclic product X^n / (Z/n)", cmd_cycprod, (_N, _X, _LATEX)),
    "symprod-series": ("symmetric product series (1 - t)^(-x)", cmd_symprod_series, (_X, _ORDER, _LATEX)),
    "zerocycles": ("0-cycle series, or the full table with --table", cmd_zerocycles, (
        _M, _N, _X, _ORDER,
        ("--table", {"action": "store_true", "help": "dump degree vector -> class lines"}),
        _LATEX,
    )),
    "ratio": ("0-cycle series divided by the symmetric product series", cmd_ratio,
              (_M, _N, _X, _ORDER, _LATEX)),
    "quotient": ("class of X/G from a stratified G-space file", cmd_quotient, (("--space", _PATH), _LATEX)),
    "quotient-descriptor": ("class of X/Gamma from an action descriptor", cmd_quotient_descriptor,
                            (("--descriptor", _PATH), _LATEX)),
    "orbifold-euler": ("orbifold Euler characteristic from cell data", cmd_orbifold_euler,
                       (("--cells", _PATH),)),
    "crystal": ("Euler characteristic of R^n / Gamma from isometry classes", cmd_crystal,
                (("--descriptor", _PATH),)),
    "fixed-point": ("does an affine map have a unique fixed point", cmd_fixed_point, (("--map", _PATH),)),
    "eval": ("parse a polynomial; evaluate it with --at assignments", cmd_eval, (
        ("expr", {"help": "polynomial text"}),
        ("--at", {"action": "append", "default": [], "metavar": "NAME=INT"}),
        _LATEX,
    )),
}
"""Every verb: its help line, its handler and its arguments."""


def build_parser(verbs: Iterable[str] = VERBS) -> argparse.ArgumentParser:
    """The ``kzero`` parser with a subparser for each of ``verbs`` (by default all of them).
    A parser for fewer verbs still names all of them in its usage line, so an error it
    reports after the verb reads as the full parser's would."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="kzero",
        description="exact Grothendieck class calculator for stratified spaces",
    )
    names = list(verbs)
    every = None if len(names) == len(VERBS) else "{" + ",".join(VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=every)
    for name in names:
        help_text, run, arguments = VERBS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(run=run)
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
    _, run, arguments = VERBS[argv[0]]
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
    values = {"verb": argv[0], "run": run}
    for flag, keywords in arguments:
        if flag not in found and (keywords.get("required") or not flag.startswith("-")):
            return None
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        values[flag.lstrip("-").replace("-", "_")] = found.get(flag, default)
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        # Help and usage errors come from argparse.  A verb's run needs only its own
        # subparser; help and bad verbs need them all.
        verbs = argv[:1] if argv and argv[0] in VERBS else VERBS
        args = build_parser(verbs).parse_args(argv, SimpleNamespace())
    exit_codes = {InputSyntaxError: 2, PreconditionError: 3, RouteDisagreementError: 4}
    try:
        args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at the null device, so the flush at exit
        # cannot raise again (the idiom of the Python docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except tuple(exit_codes) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in exit_codes.items() if isinstance(e, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
