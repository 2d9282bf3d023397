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
pair (X, pt) over the (d-1)-skeleton of the full simplex on n vertices.  The
sum is folded by Horner's rule in x - 1, one product by x - 1 per j, so no
power of x - 1 is expanded.

Diagonal arrangements.  For a face sigma, Delta_sigma(X) in X^n is the
subspace where all coordinates outside sigma agree, and Delta_K(X) is the
union over the faces of K.  When the dimension condition 2(dim K + 1) < n
holds, distinct faces contribute without overlap beyond what the poset sees,
and

    [Delta_K(X)] = x * sum over faces sigma of K of (x - 1)^|sigma| = x * sum_j h_j x^j,

while the complement M(K, X) = X^n - Delta_K(X) has class x^n - [Delta_K(X)].

Every complex formula reads the h-numbers of K, ``SimplicialComplex.h_numbers``,
and sums their powers through one helper, :func:`power_sum`, so none expands a
power of x - a or x - 1, and neither does the fat wedge; the facets' meets are
closed only by the h-numbers' Möbius route, which runs first on a budget, and
the intersection poset is built only to be printed.

The formulas that no verb runs, the fat wedge read as a polyhedral product,
W_n(X), the disjoint-union arrangement and the Euler characteristic of a
complement over a manifold, live in :mod:`kzero.arrangements`, so a complex
verb's job compiles none of them.  They and the two errors of the disjoint-union
formula are still readable from this module: each is imported from
:mod:`kzero.arrangements` on first use (PEP 562).
"""

from __future__ import annotations

from math import comb, gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .classpoly import (
    MAX_TOTAL_DEGREE, ClassPoly, PolyLike, PolyTooLargeError, as_class, check_digits, parse_poly, render,
)
from .errors import DOutOfRangeError, PreconditionError, read_file
from .simplicial import EmptyComplexError, SimplicialComplex

if TYPE_CHECKING:
    from types import SimpleNamespace

_FORWARDED = (
    "ComponentIsSingleSimplexError", "TooFewComponentsError", "chi_complement_manifold",
    "delta_config_class_disjoint", "fat_wedge_as_polyhedral_product", "w_class",
)
"""The formulas that no verb runs and their errors, moved to :mod:`kzero.arrangements`
and read from there on first use."""


def __getattr__(name: str):
    """Import a name that moved to :mod:`kzero.arrangements` on first use and keep it here."""
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import arrangements

    value = globals()[name] = getattr(arrangements, name)
    return value


class DimensionConditionError(PreconditionError):
    """A diagonal arrangement operation needs 2(dim K + 1) < n and it fails."""


class SingleSimplexError(PreconditionError):
    """A complement-of-arrangement operation needs at least two facets."""


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


def power_sum(terms: Iterable[tuple[int, int]], x: PolyLike, a: PolyLike, n: int) -> PolyLike:
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
    return power_sum(reversed(list(enumerate(K.h_numbers()))), x, a, K.n)


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
    total = ClassPoly.zero()
    for j in range(d, -1, -1):  # Horner's rule in x - 1
        total = total * step + comb(n, j)
    return total


def check_dimension_condition(K: SimplicialComplex) -> None:
    """Refuse K with :class:`DimensionConditionError` unless 2(dim K + 1) < n."""
    if not 2 * (K.dim + 1) < K.n:
        raise DimensionConditionError(
            f"need 2(dim K + 1) < n, got 2*({K.dim} + 1) = {2 * (K.dim + 1)} and n = {K.n}"
        )


def delta_config_class(K: SimplicialComplex, x_class: PolyLike | None = None) -> ClassPoly:
    """[Delta_K(X)] = x * sum over faces of (x-1)^|sigma| = x * sum_j h_j x^j, under 2(dim K + 1) < n."""
    x = ClassPoly.var("x") if x_class is None else as_class(x_class)
    if K.is_empty():
        return ClassPoly.zero()
    check_dimension_condition(K)
    return x * power_sum(enumerate(K.h_numbers()), x, 1, K.n)


def m_complement_class(K: SimplicialComplex, x_class: PolyLike | None = None) -> ClassPoly:
    """[M(K, X)] = x^n - [Delta_K(X)].  Needs at least two facets and the dimension condition."""
    x = ClassPoly.var("x") if x_class is None else as_class(x_class)
    if len(K.facets) < 2:
        raise SingleSimplexError("complement of an arrangement needs at least two facets")
    check_dimension_condition(K)  # before x^n, whose size cap would refuse first otherwise
    return x ** K.n - delta_config_class(K, x)


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
