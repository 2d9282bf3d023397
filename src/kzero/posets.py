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

The nodes above the bottom and their Möbius values are those of
:func:`kzero.meets.meet_mobius`, which owns the meet closure and the
recursion; this module adds the bottom and the node records, plain tuples
whose fields are properties.

The complex formulas do not run on the poset: they read the h-numbers of
:mod:`kzero.simplicial`, whose Möbius route in :mod:`kzero.meets` calls
``meet_mobius`` itself, so the CLI loads this module only for ``--show-poset``.
``inclusion_exclusion`` stays as the route the test suite checks the
complements against: for a ``class_of``
that depends on sigma only through |sigma| (as the stratum classes
x^|sigma| a^(n - |sigma|) of polyhedral products and x^(|sigma| + 1) of
diagonal arrangements do), it first adds up mu over the nodes of each size and
then evaluates ``class_of`` once per size whose sum is nonzero, passing the
first node of that size as the representative.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Callable

from .classpoly import ClassPoly
from .meets import meet_mobius
from .simplicial import EmptyComplexError, Simplex, SimplicialComplex


class PosetNode(tuple):
    """One node: its vertex set (None for the artificial bottom) and Möbius value."""

    __slots__ = ()

    def __new__(cls, vertex_set: Simplex | None, mobius: int) -> PosetNode:
        return tuple.__new__(cls, (vertex_set, mobius))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    vertex_set = property(itemgetter(0))
    mobius = property(itemgetter(1))

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

    def render(self) -> str:
        """Deterministic one-node-per-line listing for debugging output."""
        width = max(len(n.label()) for n in self._nodes)
        return "\n".join(f"{n.label():<{width}}  mu={n.mobius}" for n in self._nodes)


def intersection_poset(K: SimplicialComplex) -> IntersectionPoset:
    """Build the intersection poset of K's facets and compute its Möbius function."""
    if not K.facets:
        raise EmptyComplexError("intersection poset needs at least one facet")
    return IntersectionPoset((PosetNode(None, 1), *(PosetNode(vs, mu) for vs, mu in meet_mobius(K.facets))))


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
