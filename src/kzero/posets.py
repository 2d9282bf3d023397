"""Intersection posets of facet arrangements, with Möbius inclusion-exclusion.

Given a complex K, the arrangement of interest is the family of subspaces
indexed by the facets of K; intersecting two such subspaces corresponds to
intersecting the facets as vertex sets.  The intersection poset has

* one node per vertex set in the closure of the facet set under pairwise
  intersection (the empty set is a genuine node when it arises), and
* an artificial bottom node below everything, standing for the ambient
  space.

Order is reverse inclusion: larger vertex sets sit lower.  The Möbius
function is computed by the defining recursion mu(bottom) = 1 and
mu(x) = -sum of mu(y) over y strictly below x; inclusion-exclusion then
expresses the class of a complement as sum of mu(sigma) times the class of
the stratum at sigma.

Vertex sets are handled as int bitmasks.  The closure first meets each
pair of facets once, then each newly found set with the facets only: every
intersection of facets F1 & ... & Fk is reached from F1 by meeting with one
facet at a time, so no pair of found sets needs to be met.  The nodes below
sigma are the strict supersets of sigma, which all have larger size and so
come earlier in the node order.  The recursion finds them without a scan:
each vertex keeps a bitset of the nodes listed so far that contain it, and
the strict supersets of sigma are the AND of those bitsets over sigma's
vertices.  One more bitset per Möbius value then gives the sum of mu over
them as a sum of value times popcount.

Every stratum class the callers use depends on sigma only through its size
(x^|sigma| a^(n - |sigma|) for polyhedral products, x^(|sigma| + 1) for
diagonal arrangements).  So ``inclusion_exclusion`` first adds up mu over
the nodes of each size k and then evaluates ``class_of`` once per size whose
sum is nonzero, passing the first node of that size as the representative.
This is exact for any ``class_of`` that depends on sigma only through |sigma|,
which is the contract ``class_of`` must meet.
"""

from __future__ import annotations

from itertools import combinations, groupby
from typing import Callable, NamedTuple

from .classpoly import ClassPoly
from .errors import PreconditionError
from .simplicial import Simplex, SimplicialComplex, from_mask, to_mask


class EmptyComplexError(PreconditionError):
    """An operation needing at least one facet was given a complex without any."""


class PosetNode(NamedTuple):
    """One node: its vertex set (None for the artificial bottom) and Möbius value."""

    vertex_set: Simplex | None
    mobius: int

    def is_bottom(self) -> bool:
        return self.vertex_set is None

    def label(self) -> str:
        if self.vertex_set is None:
            return "ambient"
        return "{" + ",".join(map(str, self.vertex_set)) + "}"


class IntersectionPoset:
    """Closure of a facet family under intersection, plus an ambient bottom node.

    Nodes are listed bottom first, then by decreasing vertex-set size and
    lexicographic order, which is a linear extension of the partial order.
    """

    __slots__ = ("_nodes",)

    def __init__(self, nodes: tuple[PosetNode, ...]):
        self._nodes = nodes

    @property
    def nodes(self) -> tuple[PosetNode, ...]:
        return self._nodes

    @property
    def bottom(self) -> PosetNode:
        return self._nodes[0]

    @staticmethod
    def strictly_below(a: PosetNode, b: PosetNode) -> bool:
        """True when a < b in the poset order (reverse inclusion, bottom lowest)."""
        if a.vertex_set is None:
            return b.vertex_set is not None
        if b.vertex_set is None:
            return False
        return set(a.vertex_set) > set(b.vertex_set)

    def render(self) -> str:
        """Deterministic one-node-per-line listing for debugging output."""
        width = max(len(n.label()) for n in self._nodes)
        return "\n".join(f"{n.label():<{width}}  mu={n.mobius}" for n in self._nodes)


def intersection_poset(K: SimplicialComplex) -> IntersectionPoset:
    """Build the intersection poset of K's facets and compute its Möbius function."""
    if not K.facets:
        raise EmptyComplexError("intersection poset needs at least one facet")
    facet_masks = [to_mask(f) for f in K.facets]
    masks = set(facet_masks)
    frontier = {f & g for f, g in combinations(facet_masks, 2)} - masks
    while frontier:
        masks |= frontier
        frontier = {s & f for s in frontier for f in facet_masks} - masks
    nodes = [PosetNode(None, 1)]
    found = 0  # bit k stands for the k-th vertex set listed, the bottom not counted
    containing = [0] * (K.n + 1)  # per vertex: the sets listed so far that contain it
    with_mobius: dict[int, int] = {}  # per Möbius value: the sets listed so far that have it
    for k, vs in enumerate(sorted(map(from_mask, masks), key=lambda vs: (-len(vs), vs))):
        supersets = found
        for v in vs:
            supersets &= containing[v]
        mu = -1 - sum(value * (supersets & bits).bit_count() for value, bits in with_mobius.items())
        nodes.append(PosetNode(vs, mu))
        bit = 1 << k
        found |= bit
        for v in vs:
            containing[v] |= bit
        with_mobius[mu] = with_mobius.get(mu, 0) | bit
    return IntersectionPoset(tuple(nodes))


def inclusion_exclusion(
    poset: IntersectionPoset,
    class_of: Callable[[Simplex], ClassPoly],
    ambient: ClassPoly,
) -> ClassPoly:
    """Sum of mu(sigma) * class_of(sigma) over all nodes, the bottom counting as ambient.

    ``class_of`` must depend on sigma only through |sigma|: it is called once
    per size whose mu-sum is nonzero, with one node of that size.
    """
    total = poset.bottom.mobius * ambient
    for _, same_size in groupby(poset.nodes[1:], key=lambda node: len(node.vertex_set)):
        same_size = list(same_size)
        mu = sum(node.mobius for node in same_size)
        if mu:
            total = total + mu * class_of(same_size[0].vertex_set)
    return total
