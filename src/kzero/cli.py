"""Command line interface.

One verb per calculator operation; every verb prints its result on the last
line of stdout in the canonical text form, so outputs are byte-stable and
re-parseable.  Exit codes: 0 on success, 2 when an input (file or argument)
cannot be parsed, 3 when a documented precondition is violated, 4 when the
independent routes of ``quotient`` disagree.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .errors import InputSyntaxError, PreconditionError, RouteDisagreementError, read_field

if TYPE_CHECKING:
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


def _print_complement(K: SimplicialComplex, result: ClassPoly, args: argparse.Namespace) -> None:
    """Print a complement class of K, below K's intersection poset when ``--show-poset``
    asked for one; the class is computed first, so a refused input prints nothing."""
    if args.show_poset:
        from .posets import intersection_poset

        for line in intersection_poset(K).render().splitlines():
            print(f"# {line}")
    print(_render(result, args.latex))


def cmd_polyprod(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import PolyPair, polyhedral_product_class
    from .simplicial import SimplicialComplex

    K = SimplicialComplex.from_text(_read_file(args.complex))
    pair = PolyPair(parse_poly(args.X), parse_poly(args.A))
    print(_render(polyhedral_product_class(K, pair), args.latex))


def cmd_complement(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import PolyPair, polyhedral_product_complement_class
    from .simplicial import SimplicialComplex

    K = SimplicialComplex.from_text(_read_file(args.complex))
    pair = PolyPair(parse_poly(args.X), parse_poly(args.A))
    _print_complement(K, polyhedral_product_complement_class(K, pair), args)


def cmd_fatwedge(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import fat_wedge_class

    print(_render(fat_wedge_class(args.n, args.d, parse_poly(args.X)), args.latex))


def cmd_config(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import delta_config_class
    from .simplicial import SimplicialComplex

    K = SimplicialComplex.from_text(_read_file(args.complex))
    print(_render(delta_config_class(K, parse_poly(args.X)), args.latex))


def cmd_config_complement(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .polyhedral import m_complement_class
    from .simplicial import SimplicialComplex

    K = SimplicialComplex.from_text(_read_file(args.complex))
    _print_complement(K, m_complement_class(K, parse_poly(args.X)), args)


def cmd_permprod(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .permgroups import PermGroup, check_degree, parse_group_generators, permutation_product_class

    degree, gens = parse_group_generators(_read_file(args.group))
    check_degree(degree)
    G = PermGroup.generate(degree, gens)
    print(_render(permutation_product_class(G, parse_poly(args.X)), args.latex))


def cmd_cycprod(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .permgroups import cyclic_product_class

    print(_render(cyclic_product_class(args.n, parse_poly(args.X)), args.latex))


def cmd_symprod_series(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .classseries import macdonald_series

    print(_render(macdonald_series(parse_poly(args.X), args.order), args.latex))


def cmd_zerocycles(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .zerocycles import ZeroCycleTable, closed_series

    if args.table:
        table = ZeroCycleTable(args.m, args.n, parse_poly(args.X), args.order)
        for d, value in table.entries():
            print(f"{','.join(map(str, d))}: {_render(value, args.latex)}")
        return
    print(_render(closed_series(args.m, args.n, parse_poly(args.X), args.order), args.latex))


def cmd_ratio(args: argparse.Namespace) -> None:
    from .classpoly import parse_poly
    from .zerocycles import ratio_series

    print(_render(ratio_series(args.m, args.n, parse_poly(args.X), args.order), args.latex))


def cmd_quotient(args: argparse.Namespace) -> None:
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


def cmd_quotient_descriptor(args: argparse.Namespace) -> None:
    from .quotients import descriptor_class, parse_descriptor_text

    descriptor = parse_descriptor_text(_read_file(args.descriptor))
    print(_render(descriptor_class(descriptor), args.latex))


def cmd_orbifold_euler(args: argparse.Namespace) -> None:
    from .classpoly import check_digits
    from .quotients import orbifold_euler, parse_cells_text

    cells = parse_cells_text(_read_file(args.cells))
    print(check_digits(orbifold_euler(cells)))


def cmd_crystal(args: argparse.Namespace) -> None:
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


def cmd_fixed_point(args: argparse.Namespace) -> None:
    from .quotients import has_unique_fixed_point, parse_affine_map_text

    affine = parse_affine_map_text(_read_file(args.map))
    print("yes" if has_unique_fixed_point(affine) else "no")


def cmd_eval(args: argparse.Namespace) -> None:
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


def _add_latex(p: argparse.ArgumentParser) -> None:
    p.add_argument("--latex", action="store_true", help="render output for LaTeX")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kzero",
        description="exact Grothendieck class calculator for stratified spaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("polyprod", help="class of a polyhedral product (X, A)^K")
    p.add_argument("--complex", required=True, metavar="PATH")
    p.add_argument("--X", required=True, help="class of X (polynomial or integer)")
    p.add_argument("--A", required=True, help="class of A")
    _add_latex(p)
    p.set_defaults(run=cmd_polyprod)

    p = sub.add_parser("complement", help="class of X^n minus a polyhedral product")
    p.add_argument("--complex", required=True, metavar="PATH")
    p.add_argument("--X", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--show-poset", action="store_true", help="print the intersection poset")
    _add_latex(p)
    p.set_defaults(run=cmd_complement)

    p = sub.add_parser("fatwedge", help="class of tuples with at most d coordinates off basepoint")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--X", required=True)
    _add_latex(p)
    p.set_defaults(run=cmd_fatwedge)

    p = sub.add_parser("config", help="class of the diagonal arrangement Delta_K(X)")
    p.add_argument("--complex", required=True, metavar="PATH")
    p.add_argument("--X", required=True)
    _add_latex(p)
    p.set_defaults(run=cmd_config)

    p = sub.add_parser("config-complement", help="class of X^n minus Delta_K(X)")
    p.add_argument("--complex", required=True, metavar="PATH")
    p.add_argument("--X", required=True)
    p.add_argument("--show-poset", action="store_true", help="print the intersection poset")
    _add_latex(p)
    p.set_defaults(run=cmd_config_complement)

    p = sub.add_parser("permprod", help="class of X^n / G for a subgroup G of S_n")
    p.add_argument("--group", required=True, metavar="PATH")
    p.add_argument("--X", required=True)
    _add_latex(p)
    p.set_defaults(run=cmd_permprod)

    p = sub.add_parser("cycprod", help="class of the cyclic product X^n / (Z/n)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--X", required=True)
    _add_latex(p)
    p.set_defaults(run=cmd_cycprod)

    p = sub.add_parser("symprod-series", help="symmetric product series (1 - t)^(-x)")
    p.add_argument("--X", required=True)
    p.add_argument("--order", required=True, type=int)
    _add_latex(p)
    p.set_defaults(run=cmd_symprod_series)

    p = sub.add_parser("zerocycles", help="0-cycle series, or the full table with --table")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--X", required=True)
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--table", action="store_true", help="dump degree vector -> class lines")
    _add_latex(p)
    p.set_defaults(run=cmd_zerocycles)

    p = sub.add_parser("ratio", help="0-cycle series divided by the symmetric product series")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--X", required=True)
    p.add_argument("--order", required=True, type=int)
    _add_latex(p)
    p.set_defaults(run=cmd_ratio)

    p = sub.add_parser("quotient", help="class of X/G from a stratified G-space file")
    p.add_argument("--space", required=True, metavar="PATH")
    _add_latex(p)
    p.set_defaults(run=cmd_quotient)

    p = sub.add_parser("quotient-descriptor", help="class of X/Gamma from an action descriptor")
    p.add_argument("--descriptor", required=True, metavar="PATH")
    _add_latex(p)
    p.set_defaults(run=cmd_quotient_descriptor)

    p = sub.add_parser("orbifold-euler", help="orbifold Euler characteristic from cell data")
    p.add_argument("--cells", required=True, metavar="PATH")
    p.set_defaults(run=cmd_orbifold_euler)

    p = sub.add_parser("crystal", help="Euler characteristic of R^n / Gamma from isometry classes")
    p.add_argument("--descriptor", required=True, metavar="PATH")
    p.set_defaults(run=cmd_crystal)

    p = sub.add_parser("fixed-point", help="does an affine map have a unique fixed point")
    p.add_argument("--map", required=True, metavar="PATH")
    p.set_defaults(run=cmd_fixed_point)

    p = sub.add_parser("eval", help="parse a polynomial; evaluate it with --at assignments")
    p.add_argument("expr", help="polynomial text")
    p.add_argument("--at", action="append", default=[], metavar="NAME=INT")
    _add_latex(p)
    p.set_defaults(run=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    exit_codes = {InputSyntaxError: 2, PreconditionError: 3, RouteDisagreementError: 4}
    try:
        args.run(args)
    except tuple(exit_codes) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in exit_codes.items() if isinstance(e, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
