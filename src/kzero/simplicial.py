"""Finite abstract simplicial complexes on vertices 1..n.

A complex is the pair (n, facets) of its vertex count and its facets
(inclusion-maximal faces), a ``tuple`` whose constructor filters the facets and
checks the vertices, so equality and hashing are the pair's.  The empty complex
(no faces at all) and the complex whose only face is the empty simplex are
distinct values; the latter arises as the (-1)-skeleton.

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
s < n; the full simplex has h_n = 1 and no other.  Any other complex takes
the general routes of :mod:`kzero.meets`, its facets' meets or its faces,
which this module imports only then: a job over a skeleton compiles none of
them.

File format (one complex per file): a line ``n=<int>`` followed by one facet
per line as comma-separated vertices.  Blank lines and ``#`` comments are
ignored.  The complex whose only face is the empty simplex has no file
representation (an empty line reads as a blank, not a facet).
"""

from __future__ import annotations

from itertools import combinations, groupby
from math import comb
from operator import itemgetter
from typing import Iterable, NoReturn

from .errors import InputSyntaxError, PreconditionError, data_lines, read_field

Simplex = tuple[int, ...]


class VertexOutOfRangeError(PreconditionError):
    """A face mentions a vertex outside 1..n."""


class ComplexFormatError(InputSyntaxError):
    """A complex file does not follow the documented format."""


class EmptyComplexError(PreconditionError):
    """An operation needing at least one facet was given a complex without any."""


def _as_simplex(face: Iterable[int], n: int) -> Simplex:
    s = tuple(sorted(set(face)))
    for v in s:
        if not (isinstance(v, int) and 1 <= v <= n):
            raise VertexOutOfRangeError(f"vertex {v!r} outside 1..{n}")
    return s


class SimplicialComplex(tuple):
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
        return tuple.__new__(cls, (n, tuple(sorted(kept, key=lambda s: (len(s), s)))))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    n = property(itemgetter(0))
    facets = property(itemgetter(1))  # sorted by (size, lexicographic)

    @property
    def dim(self) -> int:
        """Dimension: largest facet size minus one; -1 with no facet or only the empty one."""
        return max((len(f) for f in self.facets), default=0) - 1

    def is_empty(self) -> bool:
        """True for the complex with no faces at all."""
        return not self.facets

    def h_numbers(self) -> list[int]:
        """Entry j is the coefficient of t^j in the sum over faces sigma of (t - 1)^|sigma|;
        [] when there are no faces.  A skeleton of the full simplex takes the closed form of
        the module docstring, any other complex :func:`kzero.meets.h_numbers`."""
        facets = self.facets
        if not facets:
            return []
        n, size = self.n, len(facets[-1])  # facets are sorted by size, so this is the largest
        # C(n, s) >= n for 0 < s < n, so fewer than n facets skip the (large) binomial
        if len(facets[0]) == size and (len(facets) >= n or size in (0, n)) and len(facets) == comb(n, size):
            if size == n:  # the full simplex
                return [0] * n + [1]
            return [(-1) ** (size - j) * comb(n, j) * comb(n - j - 1, size - j) for j in range(size + 1)]
        from .meets import h_numbers

        return h_numbers(facets)

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
                try:
                    facets.append(tuple(map(int, line.split(","))))
                except ValueError:  # reread field by field, so the error names the one that failed
                    for v in line.split(","):
                        read_field(int, v, ComplexFormatError, f"line {lineno}: bad facet")
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

