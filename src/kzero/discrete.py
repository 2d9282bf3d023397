"""Quotients by infinite discrete groups: action descriptors, orbifold Euler
characteristics, crystallographic quotients and affine fixed points.

The centralizer sum of :mod:`kzero.quotients` is the form that extends to
infinite discrete groups: an action descriptor is a list of (label, class,
order) rows, one per stratum orbit fixed by a finite-order conjugacy
representative, giving the representative's label, the stratum class and
the order of the stabilizer intersection; its class is the same double sum
taken over the rows.

Independently, the orbifold Euler characteristic of a cocompact action on a
cell complex is e(Gamma, X) = sum over cell orbit representatives of
(-1)^dim / |stabilizer|; summing e over centralizers of finite-order
conjugacy representatives gives the Euler characteristic of the quotient.
For a crystallographic group acting on R^n this collapses to
chi(R^n/Gamma) = sum of 1/|C(gamma)| over conjugacy classes of central
isometries, the isometries gamma whose linear part phi has
det(phi - id) != 0 — exactly the condition that the affine map has a unique
fixed point.

No finite group is built here, so this module loads neither
:mod:`kzero.quotients` nor :mod:`kzero.permgroups`.  It also holds the
handlers of the four verbs that read these files.
"""

from __future__ import annotations

import warnings
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .classpoly import ClassPoly, as_class, check_digits, parse_poly, render
from .errors import GSpaceFormatError, PreconditionError, data_lines, read_field, read_file

if TYPE_CHECKING:
    from fractions import Fraction
    from types import SimpleNamespace

    from .classpoly import PolyLike

    Cell = tuple[int, int]  # a cell orbit's dimension and stabilizer order
    Vector = tuple[Fraction, ...]


class DimensionMismatchError(PreconditionError):
    """An affine map's matrix and translation sizes disagree."""


# -- descriptors for infinite discrete groups --------------------------------


def descriptor_class(rows: Iterable[tuple[str, PolyLike, int]]) -> ClassPoly:
    """Sum of stratum class / stabilizer order over the (label, class, order) rows."""
    total = ClassPoly.zero()
    for label, cls, order in rows:
        if order < 1:
            raise PreconditionError(f"stabilizer order must be >= 1, got {order} in entry {label!r}")
        total = total + as_class(cls) / order
    return total


# -- orbifold Euler characteristics ------------------------------------------


def orbifold_euler(cells: Iterable[Cell]) -> Fraction:
    """e(Gamma, X) = sum over cell orbit representatives of (-1)^dim / |stabilizer|."""
    from fractions import Fraction

    total = Fraction(0)
    for dim, stabilizer_order in cells:
        if dim < 0:
            raise PreconditionError(f"cell dimension must be >= 0, got {dim}")
        if stabilizer_order < 1:
            raise PreconditionError(f"stabilizer order must be >= 1, got {stabilizer_order}")
        total += Fraction((-1) ** dim, stabilizer_order)
    return total


def quotient_euler_from_fixed_data(
    fixed_sets: Iterable[Iterable[Cell]]
) -> Fraction:
    """chi of the quotient as the sum of e(C(gamma), X^gamma) over finite-order
    conjugacy representatives gamma, each given by its cell orbit data."""
    from fractions import Fraction

    return sum((orbifold_euler(cells) for cells in fixed_sets), Fraction(0))


# -- crystallographic groups --------------------------------------------------


class CentralIsometryClass(tuple):
    """A conjugacy class of central isometries and its centralizer order."""

    __slots__ = ()

    def __new__(cls, label: str, centralizer_order: int) -> CentralIsometryClass:
        return tuple.__new__(cls, (label, centralizer_order))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    label = property(itemgetter(0))
    centralizer_order = property(itemgetter(1))


def crystal_chi(classes: Sequence[CentralIsometryClass]) -> Fraction:
    """chi(R^n / Gamma) = sum of 1 / |C(gamma)|; 0 with no central isometries.

    Warns when the sum is not an integer, since the quotient of R^n by a
    crystallographic group has integral Euler characteristic.
    """
    from fractions import Fraction

    total = Fraction(0)
    for label, order in classes:
        if order < 1:
            raise PreconditionError(f"centralizer order must be >= 1, got {order} for {label!r}")
        total += Fraction(1, order)
    if total.denominator != 1:
        warnings.warn(f"crystallographic Euler characteristic {total} is not an integer")
    return total


def crystal_quotient_class(classes: Sequence[CentralIsometryClass]) -> ClassPoly:
    """[R^n / Gamma] = chi * [point]."""
    return ClassPoly.const(crystal_chi(classes))


# -- affine maps ---------------------------------------------------------------


class AffineMap(tuple):
    """x -> linear @ x + translation with exact rational entries."""

    __slots__ = ()

    def __new__(cls, linear: tuple[Vector, ...], translation: Vector) -> AffineMap:
        n = len(translation)
        if len(linear) != n or any(len(row) != n for row in linear):
            raise DimensionMismatchError(
                f"linear part must be {n}x{n} to match a translation of length {n}"
            )
        return tuple.__new__(cls, (linear, translation))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    linear = property(itemgetter(0))  # a tuple of rows
    translation = property(itemgetter(1))

    @property
    def dimension(self) -> int:
        return len(self.translation)


def has_unique_fixed_point(f: AffineMap) -> bool:
    """True iff det(linear - id) != 0, i.e. x = Ax + v has exactly one solution: eliminating over
    ``Fraction``s finds a nonzero pivot in every column of linear - id."""
    from fractions import Fraction

    rows = [[Fraction(x) - (i == j) for j, x in enumerate(row)] for i, row in enumerate(f.linear)]
    for col in range(f.dimension):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            return False
        rows = [[x - row[col] / pivot[col] * p for x, p in zip(row, pivot)]
                for row in rows if row is not pivot]
    return True


# -- file formats ---------------------------------------------------------------


def parse_descriptor_text(text: str) -> list[tuple[str, ClassPoly, int]]:
    """Read an action descriptor: one ``<label> c=<int> class=<poly>`` line per row.

    Returns the (label, class, order) rows in file order.
    """
    rows: list[tuple[str, ClassPoly, int]] = []
    for lineno, line in data_lines(text):
        parts = line.split(None, 2)
        if len(parts) != 3 or not parts[1].startswith("c=") or not parts[2].startswith("class="):
            raise GSpaceFormatError(f"line {lineno}: expected '<label> c=<int> class=<poly>'")
        c = read_field(int, parts[1][2:], GSpaceFormatError, f"line {lineno}: bad stabilizer order")
        cls = read_field(parse_poly, parts[2][6:], GSpaceFormatError, f"line {lineno}: bad class")
        rows.append((parts[0], cls, c))
    return rows


def parse_isometry_classes_text(text: str) -> list[CentralIsometryClass]:
    """Read central isometry classes: one ``<label> c=<int>`` line per class."""
    out: list[CentralIsometryClass] = []
    for lineno, line in data_lines(text):
        parts = line.split()
        if len(parts) != 2 or not parts[1].startswith("c="):
            raise GSpaceFormatError(f"line {lineno}: expected '<label> c=<int>', got {line!r}")
        c = read_field(int, parts[1][2:], GSpaceFormatError, f"line {lineno}: bad order")
        out.append(CentralIsometryClass(parts[0], c))
    return out


def parse_cells_text(text: str) -> list[Cell]:
    """Read orbifold cell data: one ``<dim> <stabilizer order>`` line per cell orbit."""
    out: list[Cell] = []
    for lineno, line in data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GSpaceFormatError(f"line {lineno}: expected '<dim> <stab order>', got {line!r}")
        message = f"line {lineno}: bad integer"
        out.append(tuple(read_field(int, p, GSpaceFormatError, message) for p in parts))
    return out


def parse_affine_map_text(text: str) -> AffineMap:
    """Read an affine map: ``dim=<n>``, n ``row <q> ...`` lines, one ``t <q> ...`` line."""
    dim: int | None = None
    by_kind: dict[str, list[Vector]] = {"row": [], "t": []}
    for lineno, line in data_lines(text):
        if dim is None:
            if not line.startswith("dim="):
                raise GSpaceFormatError(f"line {lineno}: expected 'dim=<int>' first")
            dim = read_field(int, line[4:], GSpaceFormatError, f"line {lineno}: bad dimension")
            if dim < 1:
                raise GSpaceFormatError(f"line {lineno}: dimension must be >= 1")
            continue
        kind, *entries = line.split()
        if kind not in by_kind:
            raise GSpaceFormatError(f"line {lineno}: expected 'row' or 't', got {line!r}")
        message = f"line {lineno}: bad rational entry"
        values = [read_field(parse_poly, p, GSpaceFormatError, message) for p in entries]
        if not all(v.is_constant() for v in values):
            raise GSpaceFormatError(f"{message}: an entry is an integer or p/q")
        if len(values) != dim:
            raise GSpaceFormatError(f"line {lineno}: expected {dim} entries, got {len(values)}")
        by_kind[kind].append(tuple(v.constant_term() for v in values))
    if dim is None or len(by_kind["row"]) != dim or len(by_kind["t"]) != 1:
        raise GSpaceFormatError("affine map needs dim=<n>, n row lines, and one t line")
    return AffineMap(tuple(by_kind["row"]), by_kind["t"][0])


# -- command line ----------------------------------------------------------------


def cmd_quotient_descriptor(args: SimpleNamespace) -> None:
    descriptor = parse_descriptor_text(read_file(args.descriptor))
    print(render(descriptor_class(descriptor), args.latex))


def cmd_orbifold_euler(args: SimpleNamespace) -> None:
    print(check_digits(orbifold_euler(parse_cells_text(read_file(args.cells)))))


def cmd_crystal(args: SimpleNamespace) -> None:
    classes = parse_isometry_classes_text(read_file(args.descriptor))
    # A non-integral sum is still the answer to print; the library's warning
    # about it would be an extra stderr line outside the exit-code contract.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        chi = crystal_chi(classes)
    print(check_digits(chi))


def cmd_fixed_point(args: SimpleNamespace) -> None:
    affine = parse_affine_map_text(read_file(args.map))
    print("yes" if has_unique_fixed_point(affine) else "no")
