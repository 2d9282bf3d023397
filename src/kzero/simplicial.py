"""Finite abstract simplicial complexes on vertices 1..n.

A complex is the pair (n, facets) of its vertex count and its facets
(inclusion-maximal faces), a ``NamedTuple`` whose constructor, ``_make`` and
``_replace`` all filter the facets and check the vertices, so equality and
hashing are the pair's.  The empty complex (no faces at all) and the complex
whose only face is the empty simplex are distinct values; the latter arises
as the (-1)-skeleton.

Simplices are plain sorted tuples of vertices.  Vertex numbering is global
to the complex: two complexes on the same n can share vertices, and
``disjoint_union`` shifts numbering to make components disjoint.  Internally
a simplex is also read as an int bitmask (bit v for vertex v), so that a
subset test is ``a & ~b == 0`` and a meet is ``a & b``.

The facet filter works by size: the distinct candidate faces are taken in
decreasing size, and each is kept unless it lies inside a kept face of
strictly larger size.  Two distinct faces of equal size are never nested, so
a pure complex such as a skeleton needs no subset test at all.

File format (one complex per file): a line ``n=<int>`` followed by one facet
per line as comma-separated vertices.  Blank lines and ``#`` comments are
ignored.  The complex whose only face is the empty simplex has no file
representation (an empty line reads as a blank, not a facet).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, groupby
from typing import Iterable, NamedTuple, Sequence

from .errors import InputSyntaxError, PreconditionError, data_lines, read_field

Simplex = tuple[int, ...]


class VertexOutOfRangeError(PreconditionError):
    """A face mentions a vertex outside 1..n."""


class ComplexFormatError(InputSyntaxError):
    """A complex file does not follow the documented format."""


def to_mask(face: Iterable[int]) -> int:
    """The bitmask of a face: bit v is set for each vertex v."""
    mask = 0
    for v in face:
        mask |= 1 << v
    return mask


def from_mask(mask: int) -> Simplex:
    """The sorted vertex tuple of a bitmask."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


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
        larger: list[int] = []  # masks of the kept faces larger than the current size
        for _, same_size in groupby(candidates, key=len):
            masks = [(f, to_mask(f)) for f in same_size]
            fresh = [(f, m) for f, m in masks if all(m & ~g for g in larger)]
            kept.extend(f for f, _ in fresh)
            larger.extend(m for _, m in fresh)
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

    def _faces(self) -> set[Simplex]:
        faces: set[Simplex] = set()
        for f in self.facets:
            for k in range(len(f) + 1):
                faces.update(combinations(f, k))
        return faces

    def all_faces(self) -> list[Simplex]:
        """Every face, the empty simplex included, sorted by (size, lexicographic)."""
        return sorted(self._faces(), key=lambda s: (len(s), s))

    def face_count_by_size(self) -> dict[int, int]:
        """Number of faces of each size, by increasing size."""
        counts = Counter(map(len, self._faces()))
        return {k: counts[k] for k in sorted(counts)}

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


class DisjointUnion(NamedTuple):
    """A disjoint union of complexes with its component bookkeeping.

    ``spans[i]`` is the (first, last) vertex range, inclusive, occupied by
    component i after renumbering.
    """

    complex: SimplicialComplex
    spans: tuple[tuple[int, int], ...]

    def component_of(self, vertex: int) -> int:
        for i, (lo, hi) in enumerate(self.spans):
            if lo <= vertex <= hi:
                return i
        raise ValueError(f"vertex {vertex} outside every component span")


def disjoint_union(components: Sequence[SimplicialComplex]) -> DisjointUnion:
    """Shift components to disjoint vertex ranges and join their facet lists."""
    facets: list[Simplex] = []
    spans: list[tuple[int, int]] = []
    offset = 0
    for K in components:
        spans.append((offset + 1, offset + K.n))
        facets.extend(tuple(v + offset for v in f) for f in K.facets)
        offset += K.n
    return DisjointUnion(SimplicialComplex(offset, facets), tuple(spans))
