"""Classes of polyhedral products, fat wedges, and diagonal arrangements.

Everything here turns a simplicial complex K on vertices 1..n into an exact
class polynomial.

Polyhedral products.  For a pair (X, A) with classes (x, a), the polyhedral
product (X, A)^K decomposes along the faces of K (after Cooper) into
sum over faces sigma of (x - a)^|sigma| a^(n - |sigma|), the empty face
included.  Read in the basis of its strata, that is the one sum

    [(X, A)^K] = sum_j h_j x^j a^(n - j),

where the h-numbers h_j are the coefficients of the sum over faces sigma of
(t - 1)^|sigma|; the complex with no faces at all yields a^n.  The
complement in X^n is x^n - [(X, A)^K].  By Rota's crosscut theorem -h_j is
the sum of the Möbius function over the nodes of size j of the intersection
poset of the facets, so the complement is the inclusion-exclusion over that
poset, term by term and power by power, and a size cap refuses the same
inputs with the same message as that inclusion-exclusion would.

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

    [Delta_K(X)] = x * sum over faces sigma of K of (x - 1)^|sigma| = x * sum_j h_j x^j,

while the complement M(K, X) = X^n - Delta_K(X) has class x^n - [Delta_K(X)].

Every complex formula reads the h-numbers of K, ``SimplicialComplex.h_numbers``,
and sums their powers through one helper, so none expands a power of x - a or
x - 1; the facets' meets are closed only by the h-numbers' Möbius route, which
runs first on a budget, and the intersection poset is built only to be printed.
"""

from __future__ import annotations

from math import comb, gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .classpoly import (
    MAX_TOTAL_DEGREE, ClassPoly, PolyLike, PolyTooLargeError, as_class, check_digits, parse_poly, render,
)
from .errors import DOutOfRangeError, PreconditionError, read_file
from .simplicial import EmptyComplexError, SimplicialComplex, full_simplex

if TYPE_CHECKING:
    from types import SimpleNamespace


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


def _power_sum(terms: Iterable[tuple[int, int]], x: PolyLike, a: PolyLike, n: int) -> PolyLike:
    """Sum of c * x^j * a^(n - j) over the (j, c) of ``terms`` with c nonzero.

    Each power is one ``**``, taken in the order of ``terms``, so a power past
    a size cap is refused before it is multiplied out.
    """
    return sum((c * x ** j * a ** (n - j) for j, c in terms if c), 0)


def polyhedral_product_class(K: SimplicialComplex, pair: PolyPair) -> ClassPoly:
    """[(X, A)^K] = sum_j h_j x^j a^(n-j), h = K.h_numbers(); a^n when K has no faces.

    -h_j is the sum of mu over the intersection poset's nodes of size j, so these
    are the powers inclusion-exclusion over the poset takes.  They are taken in
    its order, by decreasing j, so a size cap refuses with the same message.
    """
    x, a = pair.x_class, pair.a_class
    if K.is_empty():
        return a ** K.n
    return _power_sum(reversed(list(enumerate(K.h_numbers()))), x, a, K.n)


def polyhedral_product_complement_class(K: SimplicialComplex, pair: PolyPair) -> ClassPoly:
    """[X^n - (X, A)^K] = x^n - [(X, A)^K]; refused when K has no faces."""
    if K.is_empty():
        raise EmptyComplexError("intersection poset needs at least one facet")
    return pair.x_class ** K.n - polyhedral_product_class(K, pair)


def fat_wedge_class(n: int, d: int, x_class: PolyLike | None = None) -> ClassPoly:
    """Class of the n-tuples with at most d coordinates away from the basepoint.

    sum_{j=0..d} C(n, j) (x-1)^j: the point at d = 0, the wedge at d = 1,
    X^n at d = n.  A d past :data:`~kzero.classpoly.MAX_TOTAL_DEGREE` is refused
    with :class:`~kzero.classpoly.PolyTooLargeError` before any product.  So,
    for a non-constant x, are a (x-1)^d past the degree cap and a leading
    coefficient C(n, d) c^d past :data:`~kzero.classpoly.MAX_DIGITS`, with the
    messages that the products and the rendering would give.
    """
    if n < 1:
        raise PreconditionError(f"fat wedge needs n >= 1, got {n}")
    if not 0 <= d <= n:
        raise DOutOfRangeError(f"fatness index d={d} outside 0..{n}")
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
    """[Delta_K(X)] = x * sum over faces of (x-1)^|sigma| = x * sum_j h_j x^j, under 2(dim K + 1) < n."""
    x = ClassPoly.var("x") if x_class is None else as_class(x_class)
    if K.is_empty():
        return ClassPoly.zero()
    _check_dimension_condition(K)
    return x * _power_sum(enumerate(K.h_numbers()), x, 1, K.n)


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


def m_complement_class(K: SimplicialComplex, x_class: PolyLike | None = None) -> ClassPoly:
    """[M(K, X)] = x^n - [Delta_K(X)].  Needs at least two facets and the dimension condition."""
    x = ClassPoly.var("x") if x_class is None else as_class(x_class)
    if len(K.facets) < 2:
        raise SingleSimplexError("complement of an arrangement needs at least two facets")
    _check_dimension_condition(K)  # before x^n, whose size cap would refuse first otherwise
    return x ** K.n - delta_config_class(K, x)


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
    _check_dimension_condition(K)
    n = K.n
    sign = (-1) ** (m_dim * (n + 1))
    inner = _power_sum(enumerate(K.h_numbers()), (-1) ** m_dim * chi, 1, n)
    return chi ** n - sign * chi * inner


# -- command line ----------------------------------------------------------------


def _print_complement(K: SimplicialComplex, result: ClassPoly, args: SimpleNamespace) -> None:
    """Print a complement class of K, below K's intersection poset when ``--show-poset``
    asked for one; the class is computed first, so a refused input prints nothing."""
    if args.show_poset:
        from .posets import intersection_poset

        for line in intersection_poset(K).render().splitlines():
            print(f"# {line}")
    print(render(result, args.latex))


def cmd_polyprod(args: SimpleNamespace) -> None:
    K = SimplicialComplex.from_text(read_file(args.complex))
    pair = PolyPair(parse_poly(args.X), parse_poly(args.A))
    print(render(polyhedral_product_class(K, pair), args.latex))


def cmd_complement(args: SimpleNamespace) -> None:
    K = SimplicialComplex.from_text(read_file(args.complex))
    pair = PolyPair(parse_poly(args.X), parse_poly(args.A))
    _print_complement(K, polyhedral_product_complement_class(K, pair), args)


def cmd_fatwedge(args: SimpleNamespace) -> None:
    print(render(fat_wedge_class(args.n, args.d, parse_poly(args.X)), args.latex))


def cmd_config(args: SimpleNamespace) -> None:
    K = SimplicialComplex.from_text(read_file(args.complex))
    print(render(delta_config_class(K, parse_poly(args.X)), args.latex))


def cmd_config_complement(args: SimpleNamespace) -> None:
    K = SimplicialComplex.from_text(read_file(args.complex))
    _print_complement(K, m_complement_class(K, parse_poly(args.X)), args)
