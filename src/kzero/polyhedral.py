"""Classes of polyhedral products, fat wedges, and diagonal arrangements.

Everything here turns a simplicial complex K on vertices 1..n into an exact
class polynomial.

Polyhedral products.  For a pair (X, A) with classes (x, a), the polyhedral
product (X, A)^K decomposes along the faces of K, giving

    [(X, A)^K] = sum over faces sigma of K of (x - a)^|sigma| * a^(n - |sigma|),

the empty face included; the complex with no faces at all yields a^n.  The
complement in X^n is computed independently by Möbius inclusion-exclusion
over the intersection poset of the facets, which must agree with
x^n - [(X, A)^K].

Fat wedges.  fat_wedge_class(n, d) is the class of the subspace of X^n of
tuples with at most d coordinates away from the basepoint:

    sum_{j=0..d} C(n, j) (x - 1)^j,

so d = 0 gives the point, d = 1 the wedge of n copies (class n*x - (n-1)),
and d = n all of X^n.  Equivalently this is the polyhedral product of the
pair (X, pt) over the (d-1)-skeleton of the full simplex on n vertices.

Diagonal arrangements.  For a face sigma, Delta_sigma(X) in X^n is the
subspace where all coordinates outside sigma agree, and Delta_K(X) is the
union over the faces of K.  When the dimension condition 2(dim K + 1) < n
holds, distinct faces contribute without overlap beyond what the poset sees,
and

    [Delta_K(X)] = x * sum over faces sigma of K of (x - 1)^|sigma|,

while the complement M(K, X) = X^n - Delta_K(X) is again an
inclusion-exclusion over the intersection poset, node sigma contributing
mu(sigma) * x^(|sigma| + 1).  The two must sum to x^n.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple, Sequence

from .classpoly import MAX_TOTAL_DEGREE, ClassPoly, PolyLike, PolyTooLargeError, as_class
from .errors import DOutOfRangeError, PreconditionError
from .simplicial import SimplicialComplex, full_simplex


class DimensionConditionError(PreconditionError):
    """A diagonal arrangement operation needs 2(dim K + 1) < n and it fails."""


class SingleSimplexError(PreconditionError):
    """A complement-of-arrangement operation needs at least two facets."""


class TooFewComponentsError(PreconditionError):
    """The disjoint-union arrangement formula needs at least three components."""


class ComponentIsSingleSimplexError(PreconditionError):
    """A disjoint-union component has fewer than two facets."""


class _Pair(NamedTuple):
    x_class: ClassPoly
    a_class: ClassPoly


class PolyPair(_Pair):
    """Classes (x, a) of a pair of spaces A inside X, each stored through ``as_class``."""

    __slots__ = ()

    def __new__(cls, x_class: PolyLike, a_class: PolyLike) -> PolyPair:
        return super().__new__(cls, as_class(x_class), as_class(a_class))

    @classmethod
    def _make(cls, fields: Iterable[PolyLike]) -> PolyPair:
        """Build through ``__new__``, so ``_replace`` checks its fields too."""
        return cls(*fields)


def polyhedral_product_class(K: SimplicialComplex, pair: PolyPair) -> ClassPoly:
    """[(X, A)^K] = sum over faces of (x-a)^|sigma| a^(n-|sigma|); a^n when K has no faces."""
    x, a = pair.x_class, pair.a_class
    if K.is_empty():
        return a ** K.n
    diff = x - a
    total = ClassPoly.zero()
    for size, count in sorted(K.face_count_by_size().items()):
        total = total + count * diff ** size * a ** (K.n - size)
    return total


def polyhedral_product_complement_class(K: SimplicialComplex, pair: PolyPair) -> ClassPoly:
    """[X^n - (X, A)^K] by Möbius inclusion-exclusion over the intersection poset.

    Node sigma carries the stratum class x^|sigma| a^(n-|sigma|); the
    artificial bottom carries the ambient x^n.
    """
    from .posets import inclusion_exclusion, intersection_poset

    x, a = pair.x_class, pair.a_class
    return inclusion_exclusion(
        intersection_poset(K), lambda vs: x ** len(vs) * a ** (K.n - len(vs)), x ** K.n
    )


def fat_wedge_class(n: int, d: int, x_class: PolyLike | None = None) -> ClassPoly:
    """Class of the n-tuples with at most d coordinates away from the basepoint.

    sum_{j=0..d} C(n, j) (x-1)^j: the point at d = 0, the wedge at d = 1,
    X^n at d = n.  A d past :data:`~kzero.classpoly.MAX_TOTAL_DEGREE` is refused
    with :class:`~kzero.classpoly.PolyTooLargeError` before any product.
    """
    if n < 1:
        raise PreconditionError(f"fat wedge needs n >= 1, got {n}")
    if not 0 <= d <= n:
        raise DOutOfRangeError(f"fatness index d={d} outside 0..{n}")
    if d > MAX_TOTAL_DEGREE:
        raise PolyTooLargeError(f"fatness index d={d}; the limit is {MAX_TOTAL_DEGREE}")
    step = (ClassPoly.var("x") if x_class is None else as_class(x_class)) - 1
    total = power = ClassPoly.one()
    for j in range(1, d + 1):
        power = power * step  # (x-1)^j
        total = total + comb(n, j) * power
    return total


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


def _check_dimension_condition(K: SimplicialComplex) -> None:
    if not 2 * (K.dim + 1) < K.n:
        raise DimensionConditionError(
            f"need 2(dim K + 1) < n, got 2*({K.dim} + 1) = {2 * (K.dim + 1)} and n = {K.n}"
        )


def delta_config_class(K: SimplicialComplex, x_class: PolyLike | None = None) -> ClassPoly:
    """[Delta_K(X)] = x * sum over faces of (x-1)^|sigma|, under 2(dim K + 1) < n."""
    x = ClassPoly.var("x") if x_class is None else as_class(x_class)
    if K.is_empty():
        return ClassPoly.zero()
    _check_dimension_condition(K)
    total = ClassPoly.zero()
    for size, count in sorted(K.face_count_by_size().items()):
        total = total + count * (x - 1) ** size
    return x * total


def delta_config_class_disjoint(
    components: Sequence[SimplicialComplex], x_class: PolyLike | None = None
) -> ClassPoly:
    """[Delta_K(X)] when K is a disjoint union of N >= 3 components.

    Inside the big product the component arrangements meet only along the
    thin diagonal, so the classes add up with the diagonal counted once:

        sum_i [Delta_{K_i}(X)] - (N - 1) x.

    Per-component classes are computed by ``delta_config_class``, so each
    component needs its own dimension condition.  Every component must have
    at least two facets, and no face may exhaust its component's vertex set.
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
        if any(len(f) >= K.n for f in K.facets):
            raise ComponentIsSingleSimplexError(
                f"component {i} has a facet exhausting its vertex set"
            )
    total = ClassPoly.zero()
    for K in components:
        total = total + delta_config_class(K, x)
    return total - (len(components) - 1) * x


def m_complement_class(K: SimplicialComplex, x_class: PolyLike | None = None) -> ClassPoly:
    """[M(K, X)] = [X^n - Delta_K(X)] via the intersection poset.

    Node sigma contributes mu(sigma) * x^(|sigma| + 1); the bottom carries
    x^n.  Needs at least two facets and the dimension condition.
    """
    x = ClassPoly.var("x") if x_class is None else as_class(x_class)
    if len(K.facets) < 2:
        raise SingleSimplexError("complement of an arrangement needs at least two facets")
    _check_dimension_condition(K)
    from .posets import inclusion_exclusion, intersection_poset

    return inclusion_exclusion(intersection_poset(K), lambda vs: x ** (len(vs) + 1), x ** K.n)


def chi_complement_manifold(K: SimplicialComplex, chi: int, m_dim: int) -> int:
    """Euler characteristic of M(K, X) for X a closed manifold of dimension m_dim.

    chi^n - (-1)^(m(n+1)) * chi * sum over faces of ((-1)^m chi - 1)^|sigma|,
    where m = m_dim and chi is the Euler characteristic of X.  For even m
    this agrees with m_complement_class evaluated at chi; for odd m the
    manifold has chi = 0 and the complement does too.
    """
    if len(K.facets) < 2:
        raise SingleSimplexError("complement of an arrangement needs at least two facets")
    _check_dimension_condition(K)
    n = K.n
    sign = (-1) ** (m_dim * (n + 1))
    inner = sum(
        count * ((-1) ** m_dim * chi - 1) ** size
        for size, count in K.face_count_by_size().items()
    )
    return chi ** n - sign * chi * inner
