"""Permutations of 1..n, finite permutation groups, and product-space classes.

The class formulas here are all averages over a group:

* quotient of the n-th power by a subgroup G of S_n (Burnside form):
      [X^n / G] = (1/|G|) sum over g in G of x^(number of cycles of g),
  because the fixed set of g acting on X^n is a copy of X^(cycles of g).
  The paper writes the same class summed by cycle type,
      [X^n / G] = (1/n!) sum over cycle types lambda of
                  h_lambda * chi^G(sigma_lambda) * x^(parts of lambda),
  where h_lambda counts permutations of type lambda and chi^G(sigma) counts
  left cosets tG with t^-1 sigma t in G.  That count is read off G alone:
  chi^G(sigma_lambda) = z_lambda * |G meet C_lambda| / |G|, with C_lambda the
  S_n-class of type lambda and z_lambda = n! / h_lambda its centralizer order.
  So each term h_lambda * chi^G / n! is |G meet C_lambda| / |G|, and the two
  sums agree term by term: ``permutation_product_class`` is
  ``burnside_quotient_class`` under the paper's name, and the cycle-type sum
  over brute-force coset counts is a test oracle;

* cyclic products: [X^n / (Z/n)] = (1/n) sum over d | n of phi(d) x^(n/d),
  with the divisors and phi read from n's prime factorization;

* symmetric products: [SP^d(X)] = C(x + d - 1, d) symbolically.

A ``Permutation`` is its tuple of images, p = (p(1), ..., p(n)), so equality,
hashing and order are the tuple's, and every set, dict and sort of the group
layer runs on them in C.  Composition is (p * q)(i) = p(q(i)).  Cycle notation
reads and prints as "(1 2)(3 4)" with fixed points omitted and "()" for the
identity.

Every set the group layer builds is a breadth-first ``closure``: a group is the
identity closed under left multiplication by its generators, a conjugacy class
a member closed under conjugation by them, and ``quotients`` closes stratum
indices and (element, action) pairs the same way.
"""

from __future__ import annotations

import re
from collections import Counter
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .classpoly import ClassPoly, PolyLike, as_class, binomial
from .errors import InputSyntaxError, PreconditionError, data_lines, read_field


MAX_DEGREE = 8
"""Largest degree accepted by the ``permprod`` verb, which checks it before generating
the group."""

MAX_ORDER = factorial(MAX_DEGREE)
"""Most elements a ``PermGroup`` has: 40320 = |S_8|, so any degree up to 8 fits.
Also the largest ``degree=`` a group or G-space file may give: a group of at most this
order acts faithfully on at most this many points (Cayley)."""

MAX_CYCLIC_ORDER = 10**12
"""Largest n accepted by ``cyclic_product_class``, which factors n by trial division
up to its square root: at most 10**6 steps."""


class DegreeTooLargeError(PreconditionError):
    """A degree is above ``MAX_DEGREE``, or a file's group degree is above ``MAX_ORDER``."""


class OrderCapExceededError(PreconditionError):
    """Generating a group passed ``MAX_ORDER`` elements."""


class PermParseError(InputSyntaxError):
    """Text is not valid cycle notation."""


T = TypeVar("T")


def closure(start: Iterable[T], moves: Sequence[Callable[[T], T]], limit: int) -> set[T]:
    """Everything reached from ``start`` by applying ``moves`` again and again, found
    breadth first.  Stops as soon as more than ``limit`` items are found and returns
    those, so a result longer than ``limit`` means the closure overflowed."""
    found = set(start)
    frontier = list(found)
    while frontier:
        fresh: list[T] = []
        for item in frontier:
            for move in moves:
                image = move(item)
                if image not in found:
                    found.add(image)
                    if len(found) > limit:
                        return found
                    fresh.append(image)
        frontier = fresh
    return found


def closures(items: Iterable[T], moves: Sequence[Callable[[T], T]], limit: int) -> list[tuple[T, ...]]:
    """The distinct closures of ``items``, each sorted, in the order of their first item."""
    seen: set[T] = set()
    out: list[tuple[T, ...]] = []
    for item in items:
        if item not in seen:
            found = closure([item], moves, limit)
            seen |= found
            out.append(tuple(sorted(found)))
    return out


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
        return _parse_cycles(text, degree)

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
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self[start - 1]
            while j != start:
                cyc.append(j)
                seen.add(j)
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

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self, start=1))

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}]{self}"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text: str, degree: int) -> Permutation:
    stripped = text.strip()
    if not stripped:
        raise PermParseError("empty permutation text")
    body = _CYCLE_RE.sub("", stripped)
    if body.strip():
        raise PermParseError(f"stray text {body.strip()!r} in permutation {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        parts = [p for p in re.split(r"[,\s]+", m.group(1).strip()) if p]
        if not parts:
            continue
        message = f"bad entry in cycle {m.group(0)!r}"
        entries = [read_field(int, p, PermParseError, message) for p in parts]
        for v in entries:
            if not 1 <= v <= degree:
                raise PermParseError(f"entry {v} outside 1..{degree} in {text!r}")
            if v in seen:
                raise PermParseError(f"entry {v} repeated in {text!r}")
            seen.add(v)
        for i, v in enumerate(entries):
            images[v - 1] = entries[(i + 1) % len(entries)]
    return Permutation(images)


class PermGroup:
    """A finite group of permutations of 1..n, with its full element list.

    A group is the closure of its generators by construction: ``PermGroup(degree,
    generators)`` closes the identity under left multiplication by the generators and
    refuses a group past ``MAX_ORDER`` elements, so every group is bounded by its order
    and no element list can be handed in beside the generators.
    """

    __slots__ = ("_degree", "_generators", "_elements", "_element_set")

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} does not match {degree}")
        elements = closure([Permutation.identity(degree)], [s.__mul__ for s in gens], MAX_ORDER)
        if len(elements) > MAX_ORDER:
            raise OrderCapExceededError(f"group order passes the cap of {MAX_ORDER}")
        self._degree = degree
        self._generators = gens
        self._elements = tuple(sorted(elements))
        self._element_set = frozenset(elements)

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
        return self._elements

    @property
    def order(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self._elements)

    def __contains__(self, g: Permutation) -> bool:
        return g in self._element_set

    def __len__(self) -> int:
        return len(self._elements)

    def conjugacy_classes(self) -> list[tuple[Permutation, tuple[Permutation, ...]]]:
        """(representative, members) per class, by least member; each class is a member
        closed under conjugation by the generators, and its least member represents it."""
        conjugations = [lambda g, s=s, t=s.inverse(): Permutation._make([s[g[j - 1] - 1] for j in t])
                        for s in self._generators]
        return [(c[0], c) for c in closures(self._elements, conjugations, self.order)]

    def centralizer(self, g: Permutation) -> tuple[Permutation, ...]:
        """The elements that commute with g, sorted."""
        # h(g(1)) == g(h(1)) rejects most h before the two products
        return tuple(h for h in self._elements if h[g[0] - 1] == g[h[0] - 1] and h * g == g * h)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, order={self.order})"


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
        gens.append(read_field(lambda t: _parse_cycles(t, degree), line[4:], error, message))
    else:
        raise error(f"line {lineno}: expected 'gen <cycles>', got {line!r}")
    return degree


# -- class formulas ----------------------------------------------------------


def check_degree(n: int) -> None:
    """Refuse a degree above ``MAX_DEGREE`` with ``DegreeTooLargeError``."""
    if n > MAX_DEGREE:
        raise DegreeTooLargeError(f"permutation products are capped at degree {MAX_DEGREE}, got {n}")


def _centralizer_order(lam: Sequence[int]) -> int:
    """z_lambda = product over part sizes k of k^m_k * m_k!, m_k the multiplicity of k."""
    z = 1
    for k, m in Counter(lam).items():
        z *= k ** m * factorial(m)
    return z


def coset_chi(G: PermGroup, sigma: Permutation) -> int:
    """Number of left cosets tG of G in S_n with t^-1 sigma t in G.

    This is the number of fixed points of sigma acting on S_n / G, and is
    constant on conjugacy classes of S_n: with lambda the cycle type of
    sigma, it equals z_lambda * |G meet C_lambda| / |G|.
    """
    if sigma.degree != G.degree:
        raise ValueError("sigma must have the group's degree")
    lam = sigma.cycle_type()
    return _centralizer_order(lam) * sum(1 for g in G if g.cycle_type() == lam) // G.order


def burnside_quotient_class(G: PermGroup, x_class: PolyLike) -> ClassPoly:
    """[X^n / G] = (1/|G|) sum over g of x^(cycles of g); also exported as
    ``permutation_product_class``."""
    p = as_class(x_class)
    total = ClassPoly.zero()
    for k, count in Counter(g.cycle_count() for g in G).items():
        total = total + count * p ** k
    return total / G.order


permutation_product_class = burnside_quotient_class


def cyclic_product_class(n: int, x_class: PolyLike) -> ClassPoly:
    """[X^n / (Z/n)] = (1/n) sum over d | n of phi(d) x^(n/d)."""
    if n < 1:
        raise PreconditionError(f"cyclic product needs n >= 1, got {n}")
    if n > MAX_CYCLIC_ORDER:
        raise PreconditionError(f"cyclic product is capped at n = {MAX_CYCLIC_ORDER}, got {n}")
    p = as_class(x_class)
    return sum((phi * p ** (n // d) for d, phi in _divisors_with_phi(n)), ClassPoly.zero()) / n


def symmetric_product_class(x_class: PolyLike, d: int) -> ClassPoly:
    """[SP^d(X)] = C(x + d - 1, d)."""
    if d < 0:
        raise PreconditionError(f"symmetric product needs d >= 0, got {d}")
    return binomial(as_class(x_class) + d - 1, d)


def _divisors_with_phi(n: int) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d of n, built prime by prime while n is factored by
    trial division up to its square root; phi(q^i) = q^i - q^(i-1) for a prime q."""
    pairs = [(1, 1)]
    q = 2
    while n > 1:
        if q * q > n:
            q = n  # what is left is prime
        qi, powers = 1, []
        while n % q == 0:
            n //= q
            qi *= q
            powers += [(d * qi, phi * (qi - qi // q)) for d, phi in pairs]
        pairs += powers
        q += 1
    return pairs
