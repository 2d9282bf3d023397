"""Quotients of stratified group actions, orbifold Euler characteristics,
crystallographic quotients, and affine fixed-point tests.

A stratified G-space is a space cut into finitely many strata, each with a
known class, on which a finite group G acts by permuting the strata; an
element fixing any point of a stratum fixes that stratum pointwise.  Under
that hypothesis the class of the quotient can be computed three ways, and
they must agree:

* orbit sum: one summand per G-orbit of strata, the class of a
  representative (setwise stabilizers act trivially, so each orbit
  contributes a single copy);

* Burnside average: (1/|G|) sum over g of the class of the fixed set of g,
  which is the sum of the classes of the strata g fixes;

* centralizer sum: sum over conjugacy class representatives g, and over
  orbits of the centralizer C(g) on the strata fixed by g, of
  [S] / |{h in C(g) : h S = S}|.

The centralizer sum is the form that extends to infinite discrete groups:
an action descriptor is a list of (label, class, order) rows, one per
stratum orbit fixed by a finite-order conjugacy representative, giving the
representative's label, the stratum class and the order of the stabilizer
intersection; its class is the same double sum taken over the rows.

Independently, the orbifold Euler characteristic of a cocompact action on a
cell complex is e(Gamma, X) = sum over cell orbit representatives of
(-1)^dim / |stabilizer|; summing e over centralizers of finite-order
conjugacy representatives gives the Euler characteristic of the quotient.
For a crystallographic group acting on R^n this collapses to
chi(R^n/Gamma) = sum of 1/|C(gamma)| over conjugacy classes of central
isometries, the isometries gamma whose linear part phi has
det(phi - id) != 0 — exactly the condition that the affine map has a unique
fixed point.
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .classpoly import ClassPoly, PolyLike, as_class, parse_poly
from .errors import InputSyntaxError, PreconditionError, data_lines, read_field

if TYPE_CHECKING:
    from fractions import Fraction

    from .permgroups import PermGroup, Permutation


class DimensionMismatchError(PreconditionError):
    """An affine map's matrix and translation sizes disagree."""


class GSpaceFormatError(InputSyntaxError):
    """A stratified G-space, descriptor, or isometry file is malformed."""


class StratifiedGSpace:
    """Finitely many labeled strata with classes, and a stratum-permuting G-action.

    The action is given on the group's generators as permutations of the
    strata (by index, 1-based).  Construction closes the pair (identity,
    identity) under the (generator, action) pairs; these generate a subgroup of
    G x S_m, so the action extends to a homomorphism on G exactly when no
    element is reached with two images, and |G| + 1 pairs are enough to find
    one.  It also checks that strata in one orbit carry equal classes; the model
    reads "g maps stratum S isomorphically onto stratum gS", so unequal classes
    in an orbit are inconsistent input.
    """

    def __init__(
        self,
        strata: Sequence[tuple[str, PolyLike]],
        group: PermGroup,
        generator_action: Sequence[Permutation],
    ):
        from .permgroups import closures

        self._labels = tuple(label for label, _ in strata)
        self._classes = tuple(as_class(cls) for _, cls in strata)
        if len(set(self._labels)) != len(self._labels):
            raise ValueError("stratum labels must be distinct")
        if not strata:
            raise ValueError("need at least one stratum")
        self._group = group
        gens = group.generators
        if len(generator_action) != len(gens):
            raise ValueError("one strata permutation per group generator required")
        m = len(strata)
        for perm in generator_action:
            if perm.degree != m:
                raise ValueError(
                    f"strata permutation degree {perm.degree} does not match {m} strata"
                )
        self._action = self._extend(gens, generator_action, m)
        moves = [lambda i, a=a: a[i] - 1 for a in generator_action]
        self._orbits = tuple(closures(range(m), moves, m))
        for orbit in self._orbits:
            first = self._classes[orbit[0]]
            for i in orbit[1:]:
                if self._classes[i] != first:
                    raise ValueError(
                        f"strata {self._labels[orbit[0]]!r} and {self._labels[i]!r} share an "
                        "orbit but have different classes"
                    )

    def _extend(
        self, gens: tuple[Permutation, ...], gen_action: Sequence[Permutation], m: int
    ) -> dict[Permutation, Permutation]:
        from .permgroups import Permutation, closure

        start = (Permutation.identity(self._group.degree), Permutation.identity(m))
        moves = [lambda pair, s=s, a=a: (s * pair[0], a * pair[1]) for s, a in zip(gens, gen_action)]
        action: dict[Permutation, Permutation] = {}
        for g, img in closure([start], moves, self._group.order):
            if action.setdefault(g, img) != img:
                raise ValueError(
                    f"generator actions do not extend to a homomorphism (conflict at {g})"
                )
        return action

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def classes(self) -> tuple[ClassPoly, ...]:
        return self._classes

    @property
    def group(self) -> PermGroup:
        return self._group

    def action_of(self, g: Permutation) -> Permutation:
        """The strata permutation induced by the group element g."""
        return self._action[g]

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """G-orbits on stratum indices (0-based), each sorted, ordered by least element."""
        return self._orbits

    def fixed_strata(self, g: Permutation) -> list[int]:
        return [i for i, j in enumerate(self._action[g]) if j == i + 1]


def orbit_sum_class(space: StratifiedGSpace) -> ClassPoly:
    """[X/G] as one summand per stratum orbit."""
    total = ClassPoly.zero()
    for orbit in space.orbits():
        total = total + space.classes[orbit[0]]
    return total


def burnside_class(space: StratifiedGSpace) -> ClassPoly:
    """[X/G] = (1/|G|) sum over g of [X^g], with [X^g] the sum over strata fixed by g;
    each stratum's class is added once, times the number of elements fixing it."""
    fixing = Counter(i for g in space.group for i in space.fixed_strata(g))
    total = sum((count * space.classes[i] for i, count in fixing.items()), ClassPoly.zero())
    return total / space.group.order


def centralizer_sum_class(space: StratifiedGSpace) -> ClassPoly:
    """[X/G] summed over conjugacy representatives and centralizer orbits.

    For each conjugacy class representative g, the centralizer C(g) permutes
    the strata fixed by g; each C(g)-orbit contributes the class of a
    representative stratum S divided by the order of
    {h in C(g) : h S = S}.
    """
    total = ClassPoly.zero()
    for g, _members in space.group.conjugacy_classes():
        fixed = space.fixed_strata(g)
        if not fixed:
            continue
        centralizer = space.group.centralizer(g)
        seen: set[int] = set()
        for i in fixed:
            if i in seen:
                continue
            images = [space.action_of(h)[i] - 1 for h in centralizer]
            seen.update(images)
            stabilizer_order = images.count(i)
            total = total + space.classes[i] / stabilizer_order
    return total


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


def orbifold_euler(cells: Iterable[tuple[int, int]]) -> Fraction:
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
    fixed_sets: Iterable[Iterable[tuple[int, int]]]
) -> Fraction:
    """chi of the quotient as the sum of e(C(gamma), X^gamma) over finite-order
    conjugacy representatives gamma, each given by its cell orbit data."""
    from fractions import Fraction

    return sum((orbifold_euler(cells) for cells in fixed_sets), Fraction(0))


# -- crystallographic groups --------------------------------------------------


class CentralIsometryClass(NamedTuple):
    """A conjugacy class of central isometries and its centralizer order."""

    label: str
    centralizer_order: int


def crystal_chi(classes: Sequence[CentralIsometryClass]) -> Fraction:
    """chi(R^n / Gamma) = sum of 1 / |C(gamma)|; 0 with no central isometries.

    Warns when the sum is not an integer, since the quotient of R^n by a
    crystallographic group has integral Euler characteristic.
    """
    from fractions import Fraction

    total = Fraction(0)
    for c in classes:
        if c.centralizer_order < 1:
            raise PreconditionError(
                f"centralizer order must be >= 1, got {c.centralizer_order} for {c.label!r}"
            )
        total += Fraction(1, c.centralizer_order)
    if total.denominator != 1:
        warnings.warn(f"crystallographic Euler characteristic {total} is not an integer")
    return total


def crystal_quotient_class(classes: Sequence[CentralIsometryClass]) -> ClassPoly:
    """[R^n / Gamma] = chi * [point]."""
    return ClassPoly.const(crystal_chi(classes))


# -- affine maps ---------------------------------------------------------------


class _Affine(NamedTuple):
    linear: tuple[tuple[Fraction, ...], ...]
    translation: tuple[Fraction, ...]


class AffineMap(_Affine):
    """x -> linear @ x + translation with exact rational entries."""

    __slots__ = ()

    def __new__(
        cls, linear: tuple[tuple[Fraction, ...], ...], translation: tuple[Fraction, ...]
    ) -> AffineMap:
        n = len(translation)
        if len(linear) != n or any(len(row) != n for row in linear):
            raise DimensionMismatchError(
                f"linear part must be {n}x{n} to match a translation of length {n}"
            )
        return super().__new__(cls, linear, translation)

    @classmethod
    def _make(cls, fields: Iterable[tuple]) -> AffineMap:
        """Build through ``__new__``, so ``_replace`` checks its fields too."""
        return cls(*fields)

    @property
    def dimension(self) -> int:
        return len(self.translation)


def has_unique_fixed_point(f: AffineMap) -> bool:
    """True iff det(linear - id) != 0, i.e. x = Ax + v has exactly one solution."""
    n = f.dimension
    rows = [
        [f.linear[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    return _det(rows) != 0


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-enough Gaussian elimination."""
    from fractions import Fraction

    n = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det


# -- file formats ---------------------------------------------------------------


def parse_gspace_text(text: str) -> StratifiedGSpace:
    """Read a stratified G-space file.

    Sections, in order: ``stratum <label> class=<poly>`` lines; a
    ``group degree=<int>`` line followed by ``gen <cycles>`` lines, read as in
    a group file; one ``action <k> [<label>-><label> ...]`` line per generator
    (k is the 1-based generator number; unmentioned labels stay fixed).
    """
    from .permgroups import PermGroup, Permutation, read_group_line

    strata: list[tuple[str, ClassPoly]] = []
    degree: int | None = None
    gens: list[Permutation] = []
    action_lines: dict[int, dict[str, str]] = {}
    for lineno, line in data_lines(text):
        if line.startswith("stratum "):
            parts = line.split(None, 2)
            if len(parts) != 3 or not parts[2].startswith("class="):
                raise GSpaceFormatError(f"line {lineno}: expected 'stratum <label> class=<poly>'")
            message = f"line {lineno}: bad class"
            cls = read_field(parse_poly, parts[2][6:], GSpaceFormatError, message)
            strata.append((parts[1], cls))
        elif line.startswith("group "):
            degree = read_group_line(lineno, line[6:].strip(), degree, gens, GSpaceFormatError)
        elif line.startswith("gen "):
            degree = read_group_line(lineno, line, degree, gens, GSpaceFormatError)
        elif line.startswith("action "):
            parts = line.split()
            k = read_field(int, parts[1], GSpaceFormatError, f"line {lineno}: bad gen number")
            if k in action_lines:
                raise GSpaceFormatError(f"line {lineno}: a second action line for generator {k}")
            pairs = [piece.split("->", 1) for piece in parts[2:]]
            message = f"line {lineno}: bad mapping"
            action_lines[k] = read_field(dict, pairs, GSpaceFormatError, message)
            if len(action_lines[k]) != len(pairs):
                raise GSpaceFormatError(f"line {lineno}: a label is mapped twice")
        else:
            raise GSpaceFormatError(f"line {lineno}: unrecognized line {line!r}")
    if degree is None:
        raise GSpaceFormatError("missing 'group degree=<int>' line")
    index = {label: i + 1 for i, (label, _) in enumerate(strata)}
    gen_action: list[Permutation] = []
    for k in range(1, len(gens) + 1):
        images = list(range(1, len(strata) + 1))
        for src, dst in action_lines.pop(k, {}).items():
            if src not in index or dst not in index:
                raise GSpaceFormatError(f"action {k}: unknown stratum label in {src}->{dst}")
            images[index[src] - 1] = index[dst]
        message = f"action {k}: mapping is not a permutation of the strata"
        gen_action.append(read_field(Permutation, images, GSpaceFormatError, message))
    if action_lines:
        raise GSpaceFormatError(f"action lines for nonexistent generators: {sorted(action_lines)}")
    group = PermGroup.generate(degree, gens)
    try:
        return StratifiedGSpace(strata, group, gen_action)
    except ValueError as e:
        raise GSpaceFormatError(str(e)) from None


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


def parse_cells_text(text: str) -> list[tuple[int, int]]:
    """Read orbifold cell data: one ``<dim> <stabilizer order>`` line per cell orbit."""
    out: list[tuple[int, int]] = []
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
    by_kind: dict[str, list[tuple[Fraction, ...]]] = {"row": [], "t": []}
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
