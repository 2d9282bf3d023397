"""Classes of polyhedral products and diagonal arrangements.

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

Diagonal arrangements.  For a face sigma, Delta_sigma(X) in X^n is the
subspace where all coordinates outside sigma agree, and Delta_K(X) is the
union over the faces of K.  When the dimension condition 2(dim K + 1) < n
holds, distinct faces contribute without overlap beyond what the poset sees,
and

    [Delta_K(X)] = x * sum over faces sigma of K of (x - 1)^|sigma| = x * sum_j h_j x^j,

while the complement M(K, X) = X^n - Delta_K(X) has class x^n - [Delta_K(X)].

Every complex formula reads the h-numbers of K, ``SimplicialComplex.h_numbers``,
and sums their powers through one helper, :func:`power_sum`, so none expands a
power of x - a or x - 1; the facets' meets are closed only by the h-numbers'
Möbius route in :mod:`kzero.meets`, which runs first on a budget and which a
skeleton's closed form skips, and the intersection poset is built only to be
printed.

The fat wedge, the ``fatwedge`` verb, and the formulas that no verb runs (the
fat wedge read as a polyhedral product, W_n(X), the disjoint-union arrangement
and the Euler characteristic of a complement over a manifold) live in
:mod:`kzero.arrangements`, so a job of the other complex verbs compiles none of
them.  They and the two errors of the disjoint-union formula are still readable
from this module: each is imported from :mod:`kzero.arrangements` on first use
(PEP 562).  A pair (X, A) is a :class:`PolyPair`, a plain tuple whose fields are
properties.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from .classpoly import ClassPoly, as_class, parse_poly, render
from .errors import PreconditionError, read_file
from .simplicial import EmptyComplexError, SimplicialComplex

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .classpoly import PolyLike

_FORWARDED = (
    "ComponentIsSingleSimplexError", "TooFewComponentsError", "chi_complement_manifold",
    "delta_config_class_disjoint", "fat_wedge_as_polyhedral_product", "fat_wedge_class", "w_class",
)
"""The fat wedge and the formulas that no verb runs, with their errors, moved to
:mod:`kzero.arrangements` and read from there on first use."""


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


class PolyPair(tuple):
    """Classes (x, a) of a pair of spaces A inside X, each stored through ``as_class``."""

    __slots__ = ()

    def __new__(cls, x_class: PolyLike, a_class: PolyLike) -> PolyPair:
        return tuple.__new__(cls, (as_class(x_class), as_class(a_class)))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    x_class = property(itemgetter(0))
    a_class = property(itemgetter(1))


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


def cmd_config(args: SimpleNamespace) -> None:
    K = SimplicialComplex.from_text(read_file(args.complex))
    print(render(delta_config_class(K, parse_poly(args.X)), args.latex))


def cmd_config_complement(args: SimpleNamespace) -> None:
    K = SimplicialComplex.from_text(read_file(args.complex))
    _print_complement(K, m_complement_class(K, parse_poly(args.X)), args)
