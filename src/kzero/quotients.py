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

* Burnside average: (1/|G|) sum over g of the class of the fixed set of g, the
  strata g fixes, counted in one pass over the action table's pairs (g, a(g));

* centralizer sum: sum over conjugacy class representatives g, and over
  orbits of the centralizer C(g), closed under its Schreier generators, on
  the strata fixed by g, of [S] / |{h in C(g) : h S = S}|.

Each route is one ring accumulation, ``sum_of_products`` over (stratum class,
integer weight) pairs, and the Burnside and centralizer sums divide it once
by |G|.

The ``quotient`` verb computes all three and refuses to print when they
disagree.  The centralizer sum is the form that extends to infinite discrete
groups; action descriptors, orbifold and crystallographic Euler
characteristics and affine fixed points live in :mod:`kzero.discrete`, and
the quotients of a power X^n by a permutation group in :mod:`kzero.products`,
so a G-space job compiles none of them.  Six of the discrete-group names are
still readable from this module: each is imported from :mod:`kzero.discrete`
on first use (PEP 562).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from .classpoly import ClassPoly, as_class, parse_poly, render, sum_of_products
from .errors import GSpaceFormatError, PreconditionError, RouteDisagreementError, data_lines, read_field
from .errors import read_file
from .permgroups import MAX_IMAGES, OrderCapExceededError, PermGroup, Permutation, closures, read_group_line

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .classpoly import PolyLike

_FORWARDED = (
    "CentralIsometryClass", "crystal_chi", "descriptor_class", "orbifold_euler", "parse_descriptor_text",
    "quotient_euler_from_fixed_data",
)
"""The names that moved to :mod:`kzero.discrete` and are still read from here on first use."""


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
    strata (by index, 1-based).  Each generator of G on n points, joined with
    its strata permutation shifted onto n+1..n+m, is one permutation; these
    generate H <= G x S_m, which maps onto G.  The action extends to a
    homomorphism exactly when |H| = |G| (else the identity has two images),
    read off H's chain once |G| * (n + m), the images H lists, is held to
    ``MAX_IMAGES``.  H's elements, sorted by their G part, are the action
    table.  Strata in one orbit must carry equal classes: the model reads
    "g maps stratum S isomorphically onto stratum gS".
    """

    def __init__(
        self,
        strata: Sequence[tuple[str, PolyLike]],
        group: PermGroup,
        generator_action: Sequence[Permutation],
    ):
        self._labels = tuple(label for label, _ in strata)
        self._classes = tuple(as_class(cls) for _, cls in strata)
        if len(set(self._labels)) != len(self._labels):
            raise ValueError("stratum labels must be distinct")
        if not strata:
            raise ValueError("need at least one stratum")
        self._group = group
        if len(generator_action) != len(group.generators):
            raise ValueError("one strata permutation per group generator required")
        m, n = len(strata), group.degree
        for a in generator_action:
            if a.degree != m:
                raise ValueError(f"strata permutation degree {a.degree} does not match {m} strata")
        if group.order * (n + m) > MAX_IMAGES:
            raise OrderCapExceededError(f"G-space group order {group.order} times (degree {n} + stratum "
                                        f"count {m}) passes the cap of {MAX_IMAGES} images")
        joint = [Permutation([*s, *(j + n for j in a)]) for s, a in zip(group.generators, generator_action)]
        try:
            self._joint = PermGroup(n + m, joint)
        except OrderCapExceededError:  # a cap that a copy of G fits under: |H| > |G|
            self._joint = None
        if self._joint is None or self._joint.order != group.order:
            raise ValueError("generator actions do not extend to a homomorphism (conflict at ())")
        moves = [lambda i, a=a: a[i] - 1 for a in generator_action]
        self._orbits = tuple(closures(range(m), moves))
        for orbit in self._orbits:
            for i in orbit[1:]:
                if self._classes[i] != self._classes[orbit[0]]:
                    raise ValueError(f"strata {self._labels[orbit[0]]!r} and {self._labels[i]!r} share an "
                                     "orbit but have different classes")

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def classes(self) -> tuple[ClassPoly, ...]:
        return self._classes

    @property
    def group(self) -> PermGroup:
        return self._group

    def _pair(self, g: Permutation) -> Permutation:
        """The joint element (g, a(g)) of H, found by bisecting H's list on its G part."""
        elements = self._joint.elements
        h = elements[min(bisect_left(elements, g), len(elements) - 1)]
        if h[:self._group.degree] != g:
            raise KeyError(g)
        return h

    def _images(self, h: Permutation) -> tuple[int, ...]:
        """a(g) as 0-based stratum indices, read off the joint element h = (g, a(g))."""
        n = self._group.degree
        return tuple(j - n - 1 for j in h[n:])

    def _fixed(self, h: Permutation) -> list[int]:
        """The strata (0-based) that a(g) fixes, read off h = (g, a(g)) with no shift of the rest."""
        n = self._group.degree
        return [i - n - 1 for i, j in enumerate(h[n:], n + 1) if i == j]

    def action_of(self, g: Permutation) -> Permutation:
        """The strata permutation induced by the group element g."""
        return Permutation(i + 1 for i in self._images(self._pair(g)))

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """G-orbits on stratum indices (0-based), each sorted, ordered by least element."""
        return self._orbits

    def fixed_strata(self, g: Permutation) -> list[int]:
        return self._fixed(self._pair(g))


def orbit_sum_class(space: StratifiedGSpace) -> ClassPoly:
    """[X/G] as one summand per stratum orbit, summed in one ring accumulation."""
    one = ClassPoly.one()
    return sum_of_products((space.classes[orbit[0]], one) for orbit in space.orbits())


def burnside_class(space: StratifiedGSpace) -> ClassPoly:
    """[X/G] = (1/|G|) sum over g of [X^g]: each stratum's class times the number of elements
    fixing it, counted in one pass over H's list, whose elements are the pairs (g, a(g)),
    summed in one ring accumulation and divided once."""
    fixing = Counter(i for h in space._joint.elements for i in space._fixed(h))
    pairs = [(space.classes[i], ClassPoly.const(count)) for i, count in fixing.items()]
    return sum_of_products(pairs) / space.group.order


def centralizer_sum_class(space: StratifiedGSpace) -> ClassPoly:
    """[X/G] summed over conjugacy representatives and centralizer orbits.

    For each conjugacy class representative g, the centralizer C(g) permutes
    the strata fixed by g; each C(g)-orbit O, closed under the distinct strata actions
    of the generators that ``PermGroup.class_walk`` gives, contributes the class of a
    stratum S in it divided by |{h in C(g) : h S = S}| = |C(g)| / |O| = |G| / (|class| |O|).
    So each term is [S] weighted by |class| |O|, and their sum, one ring accumulation,
    is divided once by |G|.
    """
    weighted = []
    for members, centralizing in space.group.class_walk():
        fixed = space.fixed_strata(members[0])
        if not fixed:
            continue
        moves = [lambda i, a=a: a[i] for a in {space._images(space._pair(h)) for h in centralizing}]
        weighted += [(space.classes[orbit[0]], ClassPoly.const(len(members) * len(orbit)))
                     for orbit in closures(fixed, moves)]
    return sum_of_products(weighted) / space.group.order


# -- file formats ---------------------------------------------------------------


def parse_gspace_text(text: str) -> StratifiedGSpace:
    """Read a stratified G-space file.

    Sections, in order: ``stratum <label> class=<poly>`` lines; a
    ``group degree=<int>`` line followed by ``gen <cycles>`` lines, read as in
    a group file; one ``action <k> [<label>-><label> ...]`` line per generator
    (k is the 1-based generator number; unmentioned labels stay fixed).
    """
    strata: list[tuple[str, ClassPoly]] = []
    classes: dict[str, ClassPoly] = {}  # by text: the strata of an orbit repeat their class
    degree: int | None = None
    gens: list[Permutation] = []
    action_lines: dict[int, dict[str, str]] = {}
    for lineno, line in data_lines(text):
        if line.startswith("stratum "):
            parts = line.split(None, 2)
            if len(parts) != 3 or not parts[2].startswith("class="):
                raise GSpaceFormatError(f"line {lineno}: expected 'stratum <label> class=<poly>'")
            if (cls := classes.get(parts[2])) is None:
                message = f"line {lineno}: bad class"
                cls = classes[parts[2]] = read_field(parse_poly, parts[2][6:], GSpaceFormatError, message)
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
            if bad := next((piece for piece in parts[2:] if "->" not in piece), None):
                raise GSpaceFormatError(f"line {lineno}: bad mapping {bad!r}, expected '<label>-><label>'")
            action_lines[k] = dict(piece.split("->", 1) for piece in parts[2:])
            if len(action_lines[k]) != len(parts) - 2:
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
    try:
        return StratifiedGSpace(strata, PermGroup.generate(degree, gens), gen_action)
    except PreconditionError:  # a cap: exit 3, not a format error
        raise
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
