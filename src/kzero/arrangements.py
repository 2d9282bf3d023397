"""The fat wedge, and the complex formulas of :mod:`kzero.polyhedral` that no verb runs.

Fat wedges.  fat_wedge_class(n, d) is the class of the subspace of X^n of
tuples with at most d coordinates away from the basepoint:

    sum_{j=0..d} C(n, j) (x - 1)^j,

so d = 0 gives the point, d = 1 the wedge of n copies (class n*x - (n-1)),
and d = n all of X^n.  Equivalently this is the polyhedral product of the
pair (X, pt) over the (d-1)-skeleton of the full simplex on n vertices.  The
sum is folded by Horner's rule in x - 1, one product by x - 1 per j, so no
power of x - 1 is expanded.  This module is the home of the ``fatwedge`` verb,
so a job of the other complex verbs compiles none of it.

The other formulas are the paper's formulas for an arrangement, offered as
library API:

* ``fat_wedge_as_polyhedral_product``: the fat wedge, a union of coordinate
  subspaces, read as the polyhedral product of (X, pt) over a skeleton of the
  full simplex, a second route to ``fat_wedge_class``;
* ``w_class``: W_n(X), the complement of the diagonals x_i = x_1;
* ``delta_config_class_disjoint``: the diagonal arrangement of a disjoint union
  of complexes, from its components' classes;
* ``chi_complement_manifold``: the Euler characteristic of an arrangement
  complement M(K, X) over a closed manifold X.

:mod:`kzero.polyhedral` still offers the fat wedge, these four names and the
two errors of the disjoint-union formula, each imported from here on first use
(PEP 562).
"""

from __future__ import annotations

from math import comb, gcd
from typing import TYPE_CHECKING, Sequence

from .classpoly import MAX_TOTAL_DEGREE, ClassPoly, PolyTooLargeError, as_class, check_digits, parse_poly, render
from .errors import DOutOfRangeError, PreconditionError
from .polyhedral import (
    PolyPair, SingleSimplexError, check_dimension_condition, delta_config_class, polyhedral_product_class,
    power_sum,
)
from .simplicial import SimplicialComplex, full_simplex

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .classpoly import PolyLike


class TooFewComponentsError(PreconditionError):
    """The disjoint-union arrangement formula needs at least three components."""


class ComponentIsSingleSimplexError(PreconditionError):
    """A disjoint-union component has fewer than two facets."""


def _check_fat_wedge(n: int, d: int) -> None:
    """Refuse a fat wedge of n < 1 factors, or with a fatness index d outside 0..n."""
    if n < 1:
        raise PreconditionError(f"fat wedge needs n >= 1, got {n}")
    if not 0 <= d <= n:
        raise DOutOfRangeError(f"fatness index d={d} outside 0..{n}")


def fat_wedge_class(n: int, d: int, x_class: PolyLike | None = None) -> ClassPoly:
    """Class of the n-tuples with at most d coordinates away from the basepoint.

    sum_{j=0..d} C(n, j) (x-1)^j: the point at d = 0, the wedge at d = 1,
    X^n at d = n.  A d past :data:`~kzero.classpoly.MAX_TOTAL_DEGREE` is refused
    with :class:`~kzero.classpoly.PolyTooLargeError` before any product.  So,
    for a non-constant x, are a (x-1)^d past the degree cap and a leading
    coefficient C(n, d) c^d past :data:`~kzero.classpoly.MAX_DIGITS`, with the
    messages that the products and the rendering would give.
    """
    _check_fat_wedge(n, d)
    if d > MAX_TOTAL_DEGREE:
        raise PolyTooLargeError(f"fatness index d={d}; the limit is {MAX_TOTAL_DEGREE}")
    step = (ClassPoly.var("x") if x_class is None else as_class(x_class)) - 1
    if not step.is_constant():
        degree = step.total_degree()
        if d * degree > MAX_TOTAL_DEGREE:
            # The loop would be refused at the first (x-1)^j past the cap; ``**`` refuses it now.
            step ** (MAX_TOTAL_DEGREE // degree + 1)
        # Only (x-1)^d reaches the d-th power of step's leading monomial, with the d-th
        # power of its coefficient a/b; that term of the result is the first one printed,
        # C(n, d) a^d / b^d, and its digits are counted in lowest terms.
        a, b = step.leading_coefficient()
        numerator, denominator = comb(n, d) * a ** d, b ** d
        check_digits(max(abs(numerator), denominator) // gcd(numerator, denominator))
    total = ClassPoly.zero()
    for j in range(d, -1, -1):  # Horner's rule in x - 1
        total = total * step + comb(n, j)
    return total


def fat_wedge_as_polyhedral_product(n: int, d: int, x_class: PolyLike | None = None) -> ClassPoly:
    """The same class computed as the polyhedral product of (X, pt) over a skeleton.

    fat_wedge_class(n, d) equals the polyhedral product of the pair (x, 1)
    over the (d-1)-skeleton of the full simplex on n vertices.
    """
    _check_fat_wedge(n, d)
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


# -- command line ----------------------------------------------------------------


def cmd_fatwedge(args: SimpleNamespace) -> None:
    print(render(fat_wedge_class(args.n, args.d, parse_poly(args.X)), args.latex))
