"""Quotients of stratified finite-group actions: stratified G-spaces and their
three quotient routes.

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

The ``quotient`` verb computes all three and refuses to print when they
disagree.  The centralizer sum is the form that extends to infinite discrete
groups; action descriptors, orbifold and crystallographic Euler
characteristics and affine fixed points live in :mod:`kzero.discrete`, so a
G-space job compiles none of them.  Their names are still readable from this
module: each is imported from :mod:`kzero.discrete` on first use (PEP 562).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

from .classpoly import ClassPoly, PolyLike, as_class, parse_poly, render
from .errors import GSpaceFormatError, RouteDisagreementError, data_lines, read_field, read_file

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .permgroups import PermGroup, Permutation

_FORWARDED = (
    "AffineMap", "CentralIsometryClass", "DimensionMismatchError", "crystal_chi",
    "crystal_quotient_class", "descriptor_class", "has_unique_fixed_point", "orbifold_euler",
    "parse_affine_map_text", "parse_cells_text", "parse_descriptor_text",
    "parse_isometry_classes_text", "quotient_euler_from_fixed_data",
)
"""The names that moved to :mod:`kzero.discrete`, read from there on first use."""


def __getattr__(name: str):
    """Import a name that moved to :mod:`kzero.discrete` on first use and keep it here."""
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import discrete

    value = globals()[name] = getattr(discrete, name)
    return value


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


# -- command line ----------------------------------------------------------------


def cmd_quotient(args: SimpleNamespace) -> None:
    space = parse_gspace_text(read_file(args.space))
    result = centralizer_sum_class(space)
    check = burnside_class(space)
    orbit = orbit_sum_class(space)
    if result != check or result != orbit:
        raise RouteDisagreementError(
            f"quotient routes disagree: centralizer sum {result}, "
            f"Burnside {check}, orbit sum {orbit}"
        )
    print(render(result, args.latex))
