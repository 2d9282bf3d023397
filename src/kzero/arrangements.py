"""The complex formulas of :mod:`kzero.polyhedral` that no verb runs.

Each is the paper's formula for an arrangement, offered as library API:

* ``fat_wedge_as_polyhedral_product``: the fat wedge, a union of coordinate
  subspaces, read as the polyhedral product of (X, pt) over a skeleton of the
  full simplex, a second route to ``fat_wedge_class``;
* ``w_class``: W_n(X), the complement of the diagonals x_i = x_1;
* ``delta_config_class_disjoint``: the diagonal arrangement of a disjoint union
  of complexes, from its components' classes;
* ``chi_complement_manifold``: the Euler characteristic of an arrangement
  complement M(K, X) over a closed manifold X.

No ``kzero`` job compiles this module.  :mod:`kzero.polyhedral` still offers
these four names and the two errors of the disjoint-union formula, each imported
from here on first use (PEP 562).
"""

from __future__ import annotations

from typing import Sequence

from .classpoly import ClassPoly, PolyLike, as_class
from .errors import DOutOfRangeError, PreconditionError
from .polyhedral import (
    PolyPair, SingleSimplexError, check_dimension_condition, delta_config_class, polyhedral_product_class,
    power_sum,
)
from .simplicial import SimplicialComplex, full_simplex


class TooFewComponentsError(PreconditionError):
    """The disjoint-union arrangement formula needs at least three components."""


class ComponentIsSingleSimplexError(PreconditionError):
    """A disjoint-union component has fewer than two facets."""


def fat_wedge_as_polyhedral_product(n: int, d: int, x_class: PolyLike | None = None) -> ClassPoly:
    """The same class computed as the polyhedral product of (X, pt) over a skeleton.

    fat_wedge_class(n, d) equals the polyhedral product of the pair (x, 1)
    over the (d-1)-skeleton of the full simplex on n vertices.
    """
    if n < 1:
        raise PreconditionError(f"fat wedge needs n >= 1, got {n}")
    if not 0 <= d <= n:
        raise DOutOfRangeError(f"fatness index d={d} outside 0..{n}")
    x = ClassPoly.var("x") if x_class is None else x_class
    return polyhedral_product_class(full_simplex(n).skeleton(d - 1), PolyPair(x, 1))


def w_class(n: int, x_class: PolyLike | None = None) -> ClassPoly:
    """[W_n(X)] = x (x-1)^(n-1): tuples whose last n-1 coordinates each differ from the first."""
    if n < 1:
        raise PreconditionError(f"w_class needs n >= 1, got {n}")
    x = ClassPoly.var("x") if x_class is None else as_class(x_class)
    return x * (x - 1) ** (n - 1)


def delta_config_class_disjoint(
    components: Sequence[SimplicialComplex], x_class: PolyLike | None = None
) -> ClassPoly:
    """[Delta_K(X)] when K is a disjoint union of N >= 3 components.

    Inside the big product the component arrangements meet only along the
    thin diagonal, so the classes add up with the diagonal counted once:

        sum_i [Delta_{K_i}(X)] - (N - 1) x.

    Per-component classes are computed by ``delta_config_class``, so each
    component needs its own dimension condition.  Every component must have
    at least two facets, so no face exhausts its component's vertex set.
    """
    x = ClassPoly.var("x") if x_class is None else as_class(x_class)
    if len(components) < 3:
        raise TooFewComponentsError(
            f"disjoint-union arrangement formula needs >= 3 components, got {len(components)}"
        )
    for i, K in enumerate(components):
        if len(K.facets) < 2:
            raise ComponentIsSingleSimplexError(
                f"component {i} has {len(K.facets)} facet(s); need at least two"
            )
    total = ClassPoly.zero()
    for K in components:
        total = total + delta_config_class(K, x)
    return total - (len(components) - 1) * x


def chi_complement_manifold(K: SimplicialComplex, chi: int, m_dim: int) -> int:
    """Euler characteristic of M(K, X) for X a closed manifold of dimension m_dim.

    chi^n - (-1)^(m(n+1)) * chi * sum over faces of ((-1)^m chi - 1)^|sigma|,
    where m = m_dim and chi is the Euler characteristic of X; the sum is
    sum_j h_j ((-1)^m chi)^j.  For even m this agrees with m_complement_class
    evaluated at chi; for odd m the manifold has chi = 0 and the complement
    does too.
    """
    if len(K.facets) < 2:
        raise SingleSimplexError("complement of an arrangement needs at least two facets")
    check_dimension_condition(K)
    n = K.n
    sign = (-1) ** (m_dim * (n + 1))
    inner = power_sum(enumerate(K.h_numbers()), (-1) ** m_dim * chi, 1, n)
    return chi ** n - sign * chi * inner
