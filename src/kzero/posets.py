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

Vertex sets are handled as int bitmasks.  The closure is built by meeting
each newly found set with the facets only: every intersection of facets
F1 & ... & Fk is reached from F1 by meeting with one facet at a time, so no
pair of found sets needs to be met.  The nodes below sigma are the strict
supersets of sigma, which all have larger size and so come earlier in the
node order; the recursion scans only those.

Every stratum class the callers use depends on sigma only through its size
(x^|sigma| a^(n - |sigma|) for polyhedral products, x^(|sigma| + 1) for
diagonal arrangements).  So ``inclusion_exclusion`` first adds up mu over
the nodes of each size k and then evaluates ``class_of`` once per size whose
sum is nonzero, passing the first node of that size as the representative.
This is exact for any ``class_of`` that depends on sigma only through |sigma|,
which is the contract ``class_of`` must meet.
"""

from __future__ import annotations

from itertools import groupby
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
    frontier = set(masks)
    while frontier:
        frontier = {s & f for s in frontier for f in facet_masks} - masks
        masks |= frontier
    ordered = sorted(((from_mask(m), m) for m in masks), key=lambda p: (-len(p[0]), p[0]))
    nodes = [PosetNode(None, 1)]
    larger: list[tuple[int, int]] = []  # (mask, mu) of the nodes larger than the current size
    for _, same_size in groupby(ordered, key=lambda p: len(p[0])):
        fresh = [
            (vs, m, -1 - sum(mu for g, mu in larger if not m & ~g)) for vs, m in same_size
        ]
        nodes.extend(PosetNode(vs, mu) for vs, _, mu in fresh)
        larger.extend((m, mu) for _, m, mu in fresh)
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
