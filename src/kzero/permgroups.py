"""Permutations of 1..n, finite permutation groups, and the group-file reader.

A ``Permutation`` is its tuple of images, p = (p(1), ..., p(n)), so equality,
hashing and order are the tuple's, and every set, dict and sort of the group
layer runs on them in C.  Composition is (p * q)(i) = p(q(i)).  Cycle notation
reads and prints as "(1 2)(3 4)" with fixed points omitted and "()" for the
identity.

A group is its stabilizer chain, built from the generators by Knuth's sifting
Schreier-Sims: the order is the product of the chain's orbit lengths, known
before any element is listed, and the elements are listed on demand as the
products of one transversal element per level, which then replace the chain: a
listed group holds one sorted table, and ``in`` bisects it.  Every other set the
group layer builds is closed breadth first under the generators: ``class_walk``
closes each conjugacy class under conjugation, reading off generators of its
representative's centralizer, and ``quotients`` closes strata with ``closures``.

The class formulas averaged over a group, quotients of a power X^n by a subgroup
of S_n beside cyclic and symmetric products, and the ``permprod`` and ``cycprod``
verbs live in :mod:`kzero.products`, so a ``quotient`` job compiles none of them.
The four formulas are still readable from this module: each is imported from
:mod:`kzero.products` on first use (PEP 562).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import filterfalse
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

from .errors import InputSyntaxError, PreconditionError, data_lines, read_field

MAX_DEGREE = 8
"""Largest degree accepted by the ``permprod`` verb, which checks it before generating
the group."""

MAX_ORDER = factorial(MAX_DEGREE)
"""Most elements a ``PermGroup`` has: 40320 = |S_8|, so any degree up to 8 fits.
Also the largest ``degree=`` a group or G-space file may give: a group of at most this
order acts faithfully on at most this many points (Cayley)."""

MAX_IMAGES = 4 * 10**6
"""Most images a listed ``PermGroup`` stores: its order times its degree.  The element
list holds that many point references (about 32 MB at this cap), so a group past it is
refused before any element is listed, such as the cyclic group of a 40320-cycle.  The
cap leaves room for any group of order at most ``MAX_ORDER`` on at most 99 points and
for the cyclic group of a 2000-cycle.  A G-space of G on n points with m strata lists a
group on n + m points, so ``quotients`` holds |G| * (n + m) to this cap."""

_FORWARDED = (
    "burnside_quotient_class", "cyclic_product_class", "permutation_product_class",
    "symmetric_product_class",
)
"""The formulas that moved to :mod:`kzero.products`, read from there on first use."""


def __getattr__(name: str):
    """Import a formula that moved to :mod:`kzero.products` on first use and keep it here."""
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import products

    value = globals()[name] = getattr(products, name)
    return value


class DegreeTooLargeError(PreconditionError):
    """A degree is above ``MAX_DEGREE``, or a file's group degree is above ``MAX_ORDER``."""


class OrderCapExceededError(PreconditionError):
    """A group has more than ``MAX_ORDER`` elements, or its order times its degree passes
    ``MAX_IMAGES``, read off its stabilizer chain before any element is listed."""


class PermParseError(InputSyntaxError):
    """Text is not valid cycle notation."""


T = TypeVar("T")


def closures(items: Iterable[T], moves: Sequence[Callable[[T], T]]) -> list[tuple[T, ...]]:
    """The distinct closures of ``items`` under ``moves``, found breadth first, each
    sorted, in the order of their first item."""
    seen: set[T] = set()
    out: list[tuple[T, ...]] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            found = [item]
            for x in found:  # the list grows as the walk finds more
                for move in moves:
                    if (y := move(x)) not in seen:
                        seen.add(y)
                        found.append(y)
            out.append(tuple(sorted(found)))
    return out


def _cycle_bodies(text: str) -> tuple[list[str], str]:
    """The bodies of the ``(...)`` groups with no parenthesis inside, in order, and
    the text left once they are cut out."""
    pieces = text.split(")")
    bodies, left = [], []
    for piece in pieces[:-1]:
        head, opened, body = piece.rpartition("(")
        if opened:
            bodies.append(body)
            left.append(head)
        else:
            left.append(piece + ")")
    return bodies, "".join(left) + pieces[-1]


class Permutation(tuple):
    """A permutation of 1..n as its tuple of images: ``p[i - 1]`` is ``p(i)``.  The
    constructor checks its input; the trusted ``_make``, products and inverses do not."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> Permutation:
        imgs = tuple(images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {imgs!r}")
        return tuple.__new__(cls, imgs)

    @classmethod
    def _make(cls, images: Iterable[int]) -> Permutation:
        """Wrap images known to be a permutation of 1..n, unchecked."""
        return tuple.__new__(cls, images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> Permutation:
        """Parse cycle notation like "(1 2)(3 4)"; "()" is the identity."""
        stripped = text.strip()
        if not stripped:
            raise PermParseError("empty permutation text")
        bodies, stray = _cycle_bodies(stripped)
        if stray.strip():
            raise PermParseError(f"stray text {stray.strip()!r} in permutation {text!r}")
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for body in bodies:
            parts = body.replace(",", " ").split()
            if not parts:
                continue
            message = f"bad entry in cycle {f'({body})'!r}"
            entries = [read_field(int, p, PermParseError, message) for p in parts]
            for v in entries:
                if not 1 <= v <= degree:
                    raise PermParseError(f"entry {v} outside 1..{degree} in {text!r}")
                if v in seen:
                    raise PermParseError(f"entry {v} repeated in {text!r}")
                seen.add(v)
            for i, v in enumerate(entries):
                images[v - 1] = entries[(i + 1) % len(entries)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self):
            raise ValueError(f"point {i} outside 1..{len(self)}")
        return self[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError("cannot compose permutations of different degrees")
        # ``_make`` inlined: products are the inner loop of every closure
        return tuple.__new__(Permutation, [self[j - 1] for j in other])

    def _no_tuple_arithmetic(self, other: object) -> NoReturn:
        raise TypeError("a permutation is not joined or repeated as a tuple; p * q composes")

    # so ``p + q``, ``(1,) + p`` and ``2 * p`` are errors, not tuple concatenation or repetition
    __add__ = __radd__ = __rmul__ = _no_tuple_arithmetic

    def inverse(self) -> Permutation:
        inv = [0] * len(self)
        for i, j in enumerate(self, start=1):
            inv[j - 1] = i
        return Permutation._make(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least element, sorted by that element."""
        seen = set()
        out: list[tuple[int, ...]] = []
        for start in range(1, self.degree + 1):
            cyc, j = [], start
            while j not in seen:  # empty where an earlier cycle holds start
                seen.add(j)
                cyc.append(j)
                j = self[j - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        """Number of cycles, fixed points included; one walk over the images."""
        seen = [False] * len(self)
        count = 0
        for start in range(len(self)):
            if not seen[start]:
                count += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = self[j] - 1
        return count

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths as a partition of n, in decreasing order, 1-cycles included."""
        lengths = [len(c) for c in self.cycles()]
        lengths.extend([1] * (self.degree - sum(lengths)))
        return tuple(sorted(lengths, reverse=True))

    def __str__(self) -> str:
        return "".join(f"({' '.join(map(str, c))})" for c in self.cycles()) or "()"

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}]{self}"


class PermGroup:
    """A finite group of permutations of 1..n: its stabilizer chain, then its sorted list.

    ``PermGroup(degree, generators)`` builds the chain of the group the generators
    generate (``_stabilizer_chain``), keeps ``order``, the product of its orbit lengths,
    and refuses a group past ``MAX_ORDER`` elements, or ``MAX_IMAGES`` images (order times
    degree), before any element is listed.  ``elements``, iteration, ``in`` and
    ``class_walk`` list the elements on first use, as the sorted products of one transversal
    element per level, and the list replaces the chain; ``in`` bisects it.  So every group
    is bounded by its order, and no element list can be handed in beside the generators.
    """

    __slots__ = ("_degree", "_generators", "_order", "_transversals", "_elements")

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} does not match {degree}")
        self._degree = degree
        self._generators = gens
        self._transversals = _stabilizer_chain(degree, gens)
        self._order = prod(map(len, self._transversals))
        self._elements: tuple[Permutation, ...] | None = None

    @classmethod
    def generate(cls, degree: int, generators: Iterable[Permutation]) -> PermGroup:
        """The group the generators generate: the same as ``PermGroup(degree, generators)``."""
        return cls(degree, generators)

    @classmethod
    def trivial(cls, degree: int) -> PermGroup:
        return cls(degree, ())

    @classmethod
    def cyclic(cls, n: int) -> PermGroup:
        """The cyclic group generated by the n-cycle (1 2 ... n)."""
        if n < 1:
            raise ValueError("cyclic group needs n >= 1")
        if n == 1:
            return cls.trivial(1)
        rot = Permutation([i % n + 1 for i in range(1, n + 1)])
        return cls.generate(n, [rot])

    @classmethod
    def symmetric(cls, n: int) -> PermGroup:
        """The symmetric group S_n, generated by (1 2) and (1 2 ... n)."""
        if n < 1:
            raise ValueError("symmetric group needs n >= 1")
        gens: list[Permutation] = []
        if n >= 2:
            gens.append(Permutation([2, 1] + list(range(3, n + 1))))
        if n >= 3:
            gens.append(Permutation([i % n + 1 for i in range(1, n + 1)]))
        return cls.generate(n, gens)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._generators

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, sorted: each product u_1 u_2 ... u_m of one transversal element
        per level of the chain, listed once and kept in place of the chain."""
        if self._elements is None:
            *rest, elements = self._transversals or [[Permutation.identity(self._degree)]]
            for level in reversed(rest):
                # u * e is u read at e's images; the list before the last is |G| / |first level|
                getters = (itemgetter(*[j - 1 for j in e]) for e in elements)
                elements = [Permutation._make(get(u)) for get in getters for u in level]
            self._elements = tuple(sorted(elements))
            self._transversals = None
        return self._elements

    @property
    def order(self) -> int:
        """|G|, the product of the chain's orbit lengths; lists no element."""
        return self._order

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, g: Permutation) -> bool:
        i = bisect_left(self.elements, g)
        return i < self._order and self._elements[i] == g

    def class_walk(self) -> Iterator[tuple[list[Permutation], set[Permutation]]]:
        """Per conjugacy class, by its least member g: the members, g first, and generators
        of g's centralizer C(g).  A breadth-first walk from g conjugates each member c by
        each generator s and records t_c with t_c g t_c^-1 = c: t_g = 1, and a new member
        d = s c s^-1 gets t_d = s t_c.  C(g) is g's stabilizer under conjugation, so the
        t_d^-1 s t_c generate it (Schreier's lemma; Seress 2003, section 4.2).  Each t_d is
        kept with its inverse t_c^-1 s^-1, so no conjugator is inverted."""
        identity = Permutation.identity(self._degree)
        pairs = [(s, s.inverse()) for s in self._generators]
        seen: set[Permutation] = set()
        for g in filterfalse(seen.__contains__, self.elements):
            conjugator = {g: (identity, identity)}
            members = [g]
            centralizing: set[Permutation] = set()
            for c in members:  # the list grows as the walk finds more
                t, t_inv = conjugator[c]
                for s, s_inv in pairs:
                    d = Permutation._make([s[c[j - 1] - 1] for j in s_inv])
                    if d in conjugator:
                        centralizing.add(conjugator[d][1] * s * t)
                    else:
                        conjugator[d] = s * t, t_inv * s_inv
                        members.append(d)
            seen.update(members)
            yield members, centralizing

    def conjugacy_classes(self) -> list[tuple[Permutation, tuple[Permutation, ...]]]:
        """(representative, members) per class, by least member, which represents it; each
        class is a member closed under conjugation by the generators (``class_walk``)."""
        return [(members[0], tuple(sorted(members))) for members, _ in self.class_walk()]

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, order={self.order})"


def _stabilizer_chain(degree: int, generators: Sequence[Permutation]) -> list[list[Permutation]]:
    """The transversals of a stabilizer chain of the group the generators generate, by
    Knuth's sifting Schreier-Sims (Knuth 1991; Seress 2003, section 4.2); |G| is the
    product of their lengths.

    Level k has a base point b, generators S_k and a transversal: for each point j of
    b's orbit, some u_j in the level's group with u_j(b) = j.  The base points are points
    the generators move, one taken from each element that founds a level.  A new
    generator x of level k joins S_k unless levels k, k+1, ... already hold it (it sifts
    to the identity), and then every product x u_j is placed.  Placing an element y of
    level k either adds y(b) to the orbit, and then every s y for s in S_k is placed, or
    leaves the residue u_j^-1 y (j = y(b)), which fixes b, as a new generator of level
    k+1.  Every product s u_j is thus placed once, so S_k generates level k's group,
    and by Schreier's lemma the level-(k+1) generators generate b's stabilizer in it.

    The work is a stack, not recursion.  Each step pushes items of its own level or the
    next, so an item is popped only when every deeper level is complete, and the sift of
    a new generator is exact.  Each u_j is inverted at its first division and the
    inverse kept beside it, keyed by b and j, until the chain is built, so no u_j is
    inverted twice.  The product of the transversal lengths never exceeds
    |G|, so a group past ``MAX_ORDER``, or whose order times ``degree`` passes
    ``MAX_IMAGES``, is refused as soon as it passes.
    """
    identity = Permutation.identity(degree)
    levels = []  # (b, S_k, {j: u_j})
    inverses = {}  # (b, j): u_j^-1 of the level of base point b, kept from its first use

    def divided(y, b, j, transversal):
        """u_j^-1 y, or y where j = b."""
        if j == b:
            return y
        if (b, j) not in inverses:
            inverses[b, j] = transversal[j].inverse()
        return inverses[b, j] * y

    for g in generators:
        todo = [(0, g, True)]
        while todo:
            k, x, new = todo.pop()
            if new:
                # sift: divide by one u_j per level (none where j = b), down to the identity
                y = x
                for b, _, transversal in levels[k:]:
                    if y == identity or (j := y[b - 1]) not in transversal:
                        break
                    y = divided(y, b, j, transversal)
                if y == identity:
                    continue
                if k == len(levels):
                    b = next(i for i, j in enumerate(x, 1) if i != j)
                    levels.append((b, [], {b: identity}))
                b, gens, transversal = levels[k]
                gens.append(x)
                todo += [(k, x * u, False) for u in transversal.values()]
                continue
            b, gens, transversal = levels[k]
            j = x[b - 1]
            if j not in transversal:
                transversal[j] = x
                order = prod(len(t) for _, _, t in levels)
                if order > MAX_ORDER:
                    raise OrderCapExceededError(f"group order passes the cap of {MAX_ORDER}")
                if order * degree > MAX_IMAGES:
                    raise OrderCapExceededError(
                        f"group order times degree {degree} passes the cap of {MAX_IMAGES} images"
                    )
                todo += [(k, s * x, False) for s in gens]
            else:  # the residue u_j^-1 x fixes b
                residue = divided(x, b, j, transversal)
                if residue != identity:
                    todo.append((k + 1, residue, True))
    return [list(transversal.values()) for _, _, transversal in levels]


# -- group file format -------------------------------------------------------


def parse_group_text(text: str) -> PermGroup:
    """Read a group file and generate the group; see ``parse_group_generators``."""
    return PermGroup.generate(*parse_group_generators(text))


def parse_group_generators(text: str) -> tuple[int, list[Permutation]]:
    """Read a group file: a line ``degree=<int>`` then one ``gen <cycles>`` line per generator."""
    degree: int | None = None
    gens: list[Permutation] = []
    for lineno, line in data_lines(text):
        degree = read_group_line(lineno, line, degree, gens, InputSyntaxError)
    if degree is None:
        raise InputSyntaxError("missing 'degree=<int>' line")
    return degree, gens


def read_group_line(
    lineno: int, line: str, degree: int | None, gens: list[Permutation],
    error: type[InputSyntaxError],
) -> int:
    """Read one line of the group section of a group or G-space file and return the degree:
    first ``degree=<int>`` (at least 1, at most ``MAX_ORDER``), then ``gen <cycles>`` lines,
    appended to ``gens``."""
    if degree is None:
        if not line.startswith("degree="):
            raise error(f"line {lineno}: expected 'degree=<int>' first, got {line!r}")
        degree = read_field(int, line[7:], error, f"line {lineno}: bad degree")
        if degree < 1:
            raise error(f"line {lineno}: degree must be >= 1, got {degree}")
        if degree > MAX_ORDER:
            message = f"line {lineno}: group degree is capped at {MAX_ORDER}, got {degree}"
            raise DegreeTooLargeError(message)
    elif line.startswith("gen "):
        message = f"line {lineno}: bad gen"
        gens.append(read_field(lambda t: Permutation.from_cycles(t, degree), line[4:], error, message))
    else:
        raise error(f"line {lineno}: expected 'gen <cycles>', got {line!r}")
    return degree
