"""The general routes to the h-numbers of a complex: its facets' meets, or its faces.

``SimplicialComplex.h_numbers`` gives a skeleton of the full simplex its h-numbers
in closed form and imports this module only for any other complex, so a job
over a skeleton compiles none of it.  :mod:`kzero.posets` imports it for the
intersection poset that ``--show-poset`` prints.  This module imports neither
of them: its routes read a complex as the tuple of its facets, each a sorted
tuple of vertices.

h_j is the coefficient of t^j in the sum over faces sigma of (t - 1)^|sigma|,
and two routes give it exactly.  Listing the faces (``h_by_faces``) writes the
sum over facets F of |F| 2^(|F| - 1) vertices into face tuples, and h_j is the
sum over sizes k of (-1)^(k - j) C(k, j) f_k, f_k the faces of size k.  The
poset route (``h_by_mobius``) sums mu over the meets of the facets: -h_j is the
sum of mu over the meets of size j in their intersection poset (Rota 1964).

``h_numbers`` runs the poset route first, with as many steps to spend as
listing writes vertices.  Each meet the closure takes is a step; once it is
closed, the Möbius values are charged up front, one step per set and two per
vertex of each set (a vertex bitset read, then written).  Once the steps would
outnumber the vertices, the poset route stops and the faces are listed, so the
meets given up never outnumber them.  One facet on 5000 vertices is one meet,
not 2^5000 faces, and five facets of 24 vertices on a shared core of 23 are 15
meets, not 5 * 2^24 faces.

``meet_mobius`` gives that poset's meets and Möbius values.  It reads each
facet as an int bitmask over the facets' vertices, bit k for the k-th smallest
of them, so a meet is ``a & b`` and a mask has no more bits than the facets
have vertices, however large their labels; ``to_mask`` and ``from_mask`` take
time linear in the mask's size, and every node is read back as labels before
the nodes are sorted.  The closure first meets each pair of facets once, then
each newly found set with the facets only: every meet F1 & ... & Fk is reached
from F1 one facet at a time.  The nodes below sigma (its strict supersets) all
come earlier in size order, and each vertex keeps a bitset of the sets listed
so far that contain it, so the strict supersets of sigma are the AND of those
bitsets over sigma's vertices; one more bitset per Möbius value gives the sum
of mu over them as a sum of value times popcount.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations
from math import comb, inf
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    Simplex = tuple[int, ...]  # a face: its vertices, sorted


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


def h_numbers(facets: tuple[Simplex, ...]) -> list[int]:
    """The h-numbers of the complex with these facets, at least one: by the poset route while its
    steps stay within the vertices that listing the faces writes, else by listing them."""
    meets = meet_mobius(facets, sum(len(f) << len(f) for f in facets) // 2)
    return h_by_faces(facets) if meets is None else h_by_mobius(meets)


def h_by_faces(facets: tuple[Simplex, ...]) -> list[int]:
    """The h-numbers from the face counts f_k, every face listed once per facet holding it."""
    faces: set[Simplex] = set()
    for f in facets:
        for k in range(len(f) + 1):
            faces.update(combinations(f, k))
    counts = Counter(map(len, faces))  # f_k, the number of faces of size k
    return [sum((-1) ** (k - j) * comb(k, j) * f for k, f in counts.items() if k >= j)
            for j in range(len(counts))]


def h_by_mobius(meets: list[tuple[Simplex, int]]) -> list[int]:
    """The h-numbers from ``meet_mobius``'s nodes: -h_j is the sum of mu over the meets of size j.
    The first node is a largest facet, so it sets the length."""
    h = [0] * (len(meets[0][0]) + 1)
    for vertex_set, mu in meets:
        h[len(vertex_set)] -= mu
    return h
