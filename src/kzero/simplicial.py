"""Finite abstract simplicial complexes on vertices 1..n.

A complex is the pair (n, facets) of its vertex count and its facets
(inclusion-maximal faces), a ``NamedTuple`` whose constructor, ``_make`` and
``_replace`` all filter the facets and check the vertices, so equality and
hashing are the pair's.  The empty complex (no faces at all) and the complex
whose only face is the empty simplex are distinct values; the latter arises
as the (-1)-skeleton.

Simplices are plain sorted tuples of vertices.  Vertex numbering is global to the
complex: two complexes on the same n share vertices.

The facet filter works by size: the distinct candidate faces are taken in
decreasing size, and each is kept unless its vertex set lies inside that of a
kept face of strictly larger size.  Two distinct faces of equal size are never
nested, so a pure complex such as a skeleton needs no subset test at all.

The h-numbers (``h_numbers``) are the one face count the complex formulas
read: h_j is the coefficient of t^j in the sum over faces sigma of
(t - 1)^|sigma|.  A skeleton of the full simplex (all C(n, s) faces of one
size s as facets) has h_j = (-1)^(s - j) C(n, j) C(n - j - 1, s - j) for
s < n; the full simplex has h_n = 1 and no other.  Otherwise two routes are
exact.  Listing the faces writes the sum over facets F of |F| 2^(|F| - 1)
vertices into face tuples, and h_j is the sum over sizes k of
(-1)^(k - j) C(k, j) f_k, f_k the faces of size k.  The poset route sums mu
over the meets of the facets: -h_j is the sum of mu over the meets of size j
in their intersection poset (Rota 1964).  The poset route runs first, with as
many steps to spend as listing writes vertices.  Each meet the closure takes
is a step; once it is closed, the Möbius values are charged up front, one step
per set and two per vertex of each set (a vertex bitset read, then written).
Once the steps would outnumber the vertices, the poset route stops and the
faces are listed, so the meets given up never outnumber them.  One facet on
5000 vertices is one meet, not 2^5000 faces, and five facets of 24 vertices
on a shared core of 23 are 15 meets, not 5 * 2^24 faces.

``meet_mobius`` gives that poset's meets and Möbius values, with no module of
its own to import.  It reads each facet as an int bitmask over the facets'
vertices, bit k for the k-th smallest of them, so a meet is ``a & b`` and a mask
has no more bits than the facets have vertices, however large their labels;
``to_mask`` and ``from_mask`` take time linear in the mask's size, and every
node is read back as labels before the nodes are sorted.  The closure first
meets each pair of facets once, then each newly found set with the facets
only: every meet F1 & ... & Fk is reached from F1 one facet at a time.  The
nodes below sigma (its strict supersets) all come earlier in size order, and
each vertex keeps a bitset of the sets listed so far that contain it, so the
strict supersets of sigma are the AND of those bitsets over sigma's vertices;
one more bitset per Möbius value gives the sum of mu over them as a sum of
value times popcount.

File format (one complex per file): a line ``n=<int>`` followed by one facet
per line as comma-separated vertices.  Blank lines and ``#`` comments are
ignored.  The complex whose only face is the empty simplex has no file
representation (an empty line reads as a blank, not a facet).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations, groupby
from math import comb, inf
from typing import Iterable, NamedTuple, NoReturn

from .errors import InputSyntaxError, PreconditionError, data_lines, read_field

Simplex = tuple[int, ...]


class VertexOutOfRangeError(PreconditionError):
    """A face mentions a vertex outside 1..n."""


class ComplexFormatError(InputSyntaxError):
    """A complex file does not follow the documented format."""


class EmptyComplexError(PreconditionError):
    """An operation needing at least one facet was given a complex without any."""


def to_mask(face: Simplex) -> int:
    """The bitmask of a tuple of vertex numbers: bit v is set for each number v, written into bytes
    read little-endian."""
    bits = bytearray(max(face, default=0) // 8 + 1)
    for v in face:
        bits[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bits, "little")


def from_mask(mask: int) -> Simplex:
    """The sorted tuple of the numbers whose bits a mask sets: from bit 0 up, each run of 0s in its
    binary numeral, plus one, steps to the next number, so a run of 0s costs no Python step."""
    runs = bin(mask).split("1")[1:]
    return tuple(accumulate((len(run) + 1 for run in reversed(runs)), initial=-1))[1:]


def meet_mobius(facets: tuple[Simplex, ...], budget: float = inf) -> list[tuple[Simplex, int]] | None:
    """(vertex set, mu) for every meet of the facets, by decreasing size, then lexicographic: the
    nodes of the intersection poset above its bottom, whose mu is 1.  None, with no mu computed, once
    the steps counted in the module docstring number more than ``budget``."""
    spent = len(facets) * (len(facets) - 1) // 2  # the pairs are met first
    vertices = sorted(set().union(*facets))  # bit k of a mask stands for vertices[k]
    number = {v: k for k, v in enumerate(vertices)}
    facet_masks = [to_mask(tuple(map(number.__getitem__, f))) for f in facets] if spent <= budget else []
    masks = set(facet_masks)
    frontier = {f & g for f, g in combinations(facet_masks, 2)} - masks
    while frontier:
        masks |= frontier
        spent += len(frontier) * len(facet_masks)
        frontier = {s & f for s in frontier for f in facet_masks} - masks if spent <= budget else set()
    spent += len(masks) + 2 * sum(map(int.bit_count, masks))  # each vertex bitset is read, then written
    if spent > budget:
        return None
    # per vertex, and per Möbius value: the sets listed so far that contain it, or have it, bit k the k-th
    containing, with_mobius, meets = {}, {}, []
    nodes = (tuple(map(vertices.__getitem__, from_mask(m))) for m in masks)
    for k, vs in enumerate(sorted(nodes, key=lambda vs: (-len(vs), vs))):
        supersets = (1 << k) - 1
        for v in vs:
            supersets &= containing.get(v, 0)
        mu = -1 - sum(value * (supersets & bits).bit_count() for value, bits in with_mobius.items())
        meets.append((vs, mu))
        bit = 1 << k
        for v in vs:
            containing[v] = containing.get(v, 0) | bit
        with_mobius[mu] = with_mobius.get(mu, 0) | bit
    return meets


def _as_simplex(face: Iterable[int], n: int) -> Simplex:
    s = tuple(sorted(set(face)))
    for v in s:
        if not (isinstance(v, int) and 1 <= v <= n):
            raise VertexOutOfRangeError(f"vertex {v!r} outside 1..{n}")
    return s


class _Complex(NamedTuple):
    n: int
    facets: tuple[Simplex, ...]


class SimplicialComplex(_Complex):
    """Immutable simplicial complex: its vertex count and its facets, sorted by
    (size, lexicographic)."""

    __slots__ = ()

    def __new__(cls, n: int, facets: Iterable[Iterable[int]] = ()) -> SimplicialComplex:
        if not (isinstance(n, int) and n >= 0):
            raise ValueError(f"vertex count must be a non-negative integer, got {n!r}")
        candidates = sorted({_as_simplex(f, n) for f in facets}, key=len, reverse=True)
        kept: list[Simplex] = []
        larger: list[frozenset[int]] = []  # vertex sets of the kept faces larger than the current size
        for _, same_size in groupby(candidates, key=len):
            fresh = [f for f in same_size if not any(map(frozenset(f).issubset, larger))]
            kept.extend(fresh)
            larger.extend(map(frozenset, fresh))
        return super().__new__(cls, n, tuple(sorted(kept, key=lambda s: (len(s), s))))

    @classmethod
    def _make(cls, fields: Iterable) -> SimplicialComplex:
        """Build through ``__new__``, so ``_replace`` checks and filters its fields too."""
        return cls(*fields)

    @property
    def dim(self) -> int:
        """Dimension: largest facet size minus one; -1 with no facet or only the empty one."""
        return max((len(f) for f in self.facets), default=0) - 1

    def is_empty(self) -> bool:
        """True for the complex with no faces at all."""
        return not self.facets

    def h_numbers(self) -> list[int]:
        """Entry j is the coefficient of t^j in the sum over faces sigma of (t - 1)^|sigma|;
        [] when there are no faces.  The route is picked as the module docstring says."""
        facets = self.facets
        if not facets:
            return []
        n, size = self.n, len(facets[-1])  # facets are sorted by size, so this is the largest
        # C(n, s) >= n for 0 < s < n, so fewer than n facets skip the (large) binomial
        if len(facets[0]) == size and (len(facets) >= n or size in (0, n)) and len(facets) == comb(n, size):
            if size == n:  # the full simplex
                return [0] * n + [1]
            return [(-1) ** (size - j) * comb(n, j) * comb(n - j - 1, size - j) for j in range(size + 1)]
        meets = meet_mobius(facets, sum(len(f) << len(f) for f in facets) // 2)
        return self._h_by_faces() if meets is None else self._h_by_mobius(meets)

    def _h_by_faces(self) -> list[int]:
        faces: set[Simplex] = set()
        for f in self.facets:
            for k in range(len(f) + 1):
                faces.update(combinations(f, k))
        counts = Counter(map(len, faces))  # f_k, the number of faces of size k
        return [sum((-1) ** (k - j) * comb(k, j) * f for k, f in counts.items() if k >= j)
                for j in range(len(counts))]

    def _h_by_mobius(self, meets: list[tuple[Simplex, int]]) -> list[int]:
        h = [0] * (self.dim + 2)
        for vertex_set, mu in meets:
            h[len(vertex_set)] -= mu
        return h

    def face_count_by_size(self) -> dict[int, int]:
        """Number of faces of each size, by increasing size: f_k = sum_j h_j C(j, k)."""
        h = self.h_numbers()
        return {k: sum(c * comb(j, k) for j, c in enumerate(h) if c) for k in range(len(h))}

    def skeleton(self, d: int) -> SimplicialComplex:
        """The subcomplex of faces of dimension at most d; d = -1 keeps only the empty face."""
        if d < -1:
            raise ValueError(f"skeleton dimension must be >= -1, got {d}")
        size = d + 1
        pieces: list[Simplex] = []
        for f in self.facets:
            if len(f) <= size:
                pieces.append(f)
            else:
                pieces.extend(combinations(f, size))
        return SimplicialComplex(self.n, pieces)

    def __contains__(self, face: Iterable[int]) -> bool:
        s = set(face)
        return any(s <= set(f) for f in self.facets)

    def _no_tuple_arithmetic(self, other: object) -> NoReturn:
        raise TypeError("a simplicial complex is not joined or repeated as a tuple")

    # so ``K + K``, ``K * 2`` and ``2 * K`` are errors, not operations on the (n, facets) pair
    __add__ = __radd__ = __mul__ = __rmul__ = _no_tuple_arithmetic

    def __repr__(self) -> str:
        inner = ", ".join("[" + ",".join(map(str, f)) + "]" for f in self.facets)
        return f"SimplicialComplex(n={self.n}, facets=({inner}))"

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        if self.facets and self.facets[0] == ():
            raise ValueError("the complex whose only face is the empty simplex has no file form")
        lines = [f"n={self.n}"]
        lines.extend(",".join(map(str, f)) for f in self.facets)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> SimplicialComplex:
        n: int | None = None
        facets: list[tuple[int, ...]] = []
        for lineno, line in data_lines(text):
            if n is None:
                if not line.startswith("n="):
                    raise ComplexFormatError(f"line {lineno}: expected 'n=<int>' first")
                n = read_field(int, line[2:], ComplexFormatError, f"line {lineno}: bad n")
                if n < 0:
                    raise ComplexFormatError(f"line {lineno}: vertex count must be >= 0")
            else:
                message = f"line {lineno}: bad facet"
                face = line.split(",")
                facets.append(tuple(read_field(int, v, ComplexFormatError, message) for v in face))
        if n is None:
            raise ComplexFormatError("missing 'n=<int>' line")
        try:
            return cls(n, facets)
        except VertexOutOfRangeError as e:
            raise ComplexFormatError(str(e)) from None


def full_simplex(n: int) -> SimplicialComplex:
    """The full simplex on vertices 1..n (a single facet)."""
    if n < 1:
        raise ValueError("full simplex needs n >= 1")
    return SimplicialComplex(n, [tuple(range(1, n + 1))])

