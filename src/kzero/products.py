"""Classes of product spaces: quotients of a power X^n by a permutation group, cyclic
products and symmetric products, and the ``permprod`` and ``cycprod`` verbs.

The class formulas here are all averages over a group:

* quotient of the n-th power by a subgroup G of S_n (Burnside form):
      [X^n / G] = (1/|G|) sum over g in G of x^(number of cycles of g),
  because the fixed set of g acting on X^n is a copy of X^(cycles of g).
  The paper writes the same class summed by cycle type,
      [X^n / G] = (1/n!) sum over cycle types lambda of
                  h_lambda * chi^G(sigma_lambda) * x^(parts of lambda),
  where h_lambda counts permutations of type lambda and chi^G(sigma) counts
  left cosets tG with t^-1 sigma t in G.  That count is read off G alone:
  chi^G(sigma_lambda) = z_lambda * |G meet C_lambda| / |G|, with C_lambda the
  S_n-class of type lambda and z_lambda = n! / h_lambda its centralizer order.
  So each term h_lambda * chi^G / n! is |G meet C_lambda| / |G|, and the two
  sums agree term by term.  The count chi^G and the cycle-type sum over
  brute-force coset counts are test oracles;

* the same class for G = S_n and G = A_n in closed form, which
  ``permutation_product_class`` reads off |G| before any element is listed:
      sum over g in S_n of x^c(g) = x(x+1)...(x+n-1),
  so [X^n / S_n] = C(x + n - 1, n) = [SP^n(X)]; and since
  sgn(g) = (-1)^(n - c(g)),
      sum over g in S_n of sgn(g) x^c(g) = x(x-1)...(x-n+1),
  so [X^n / A_n] = (rising + falling) / n! = C(x + n - 1, n) + C(x, n) for
  n >= 2.  A_n is the only subgroup of index 2 in S_n, so 2|G| = n! names it;

* cyclic products: [X^n / (Z/n)] = (1/n) sum over d | n of phi(d) x^(n/d),
  with the divisors and phi read from n's prime factorization;

* symmetric products: [SP^d(X)] = C(x + d - 1, d) symbolically.

The Burnside and cyclic averages are each one ring accumulation
(``sum_of_products``) divided once.  The groups come from :mod:`kzero.permgroups`,
which this module imports only to read a group file or its degree cap, so a
``cycprod`` job compiles no group code.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import TYPE_CHECKING

from .classpoly import ClassPoly, as_class, binomial, parse_poly, render, sum_of_products
from .errors import PreconditionError, read_file

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .classpoly import PolyLike
    from .permgroups import PermGroup


MAX_CYCLIC_ORDER = 10**12
"""Largest n accepted by ``cyclic_product_class``, which factors n by trial division
up to its square root: at most 10**6 steps."""


def check_degree(n: int) -> None:
    """Refuse a degree above ``permgroups.MAX_DEGREE`` with ``DegreeTooLargeError``."""
    from .permgroups import MAX_DEGREE, DegreeTooLargeError

    if n > MAX_DEGREE:
        raise DegreeTooLargeError(f"permutation products are capped at degree {MAX_DEGREE}, got {n}")


def burnside_quotient_class(G: PermGroup, x_class: PolyLike) -> ClassPoly:
    """[X^n / G] = (1/|G|) sum over g of x^(cycles of g), one term per cycle count."""
    p = as_class(x_class)
    counts = Counter(g.cycle_count() for g in G)
    return sum_of_products((p ** k, ClassPoly.const(count)) for k, count in counts.items()) / G.order


def permutation_product_class(G: PermGroup, x_class: PolyLike) -> ClassPoly:
    """[X^n / G]: C(x + n - 1, n) if |G| = n! (G is S_n), C(x + n - 1, n) + C(x, n) if
    2|G| = n! with n >= 2 (G is A_n), else ``burnside_quotient_class``."""
    n = G.degree
    # n! >= 2^(n-1), so n! <= 2|G| needs n <= bit length of 2|G|; past that, skip n!
    full = factorial(n) if n <= (2 * G.order).bit_length() else 0
    if G.order == full:
        return symmetric_product_class(x_class, n)
    if n >= 2 and 2 * G.order == full:
        return symmetric_product_class(x_class, n) + binomial(x_class, n)
    return burnside_quotient_class(G, x_class)


def cyclic_product_class(n: int, x_class: PolyLike) -> ClassPoly:
    """[X^n / (Z/n)] = (1/n) sum over d | n of phi(d) x^(n/d)."""
    if n < 1:
        raise PreconditionError(f"cyclic product needs n >= 1, got {n}")
    if n > MAX_CYCLIC_ORDER:
        raise PreconditionError(f"cyclic product is capped at n = {MAX_CYCLIC_ORDER}, got {n}")
    p = as_class(x_class)
    return sum_of_products((p ** (n // d), ClassPoly.const(phi)) for d, phi in _divisors_with_phi(n)) / n


def symmetric_product_class(x_class: PolyLike, d: int) -> ClassPoly:
    """[SP^d(X)] = C(x + d - 1, d)."""
    if d < 0:
        raise PreconditionError(f"symmetric product needs d >= 0, got {d}")
    return binomial(as_class(x_class) + d - 1, d)


def _divisors_with_phi(n: int) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d of n, built prime by prime while n is factored by
    trial division up to its square root; phi(q^i) = q^i - q^(i-1) for a prime q."""
    pairs = [(1, 1)]
    q = 2
    while n > 1:
        if q * q > n:
            q = n  # what is left is prime
        qi, powers = 1, []
        while n % q == 0:
            n //= q
            qi *= q
            powers += [(d * qi, phi * (qi - qi // q)) for d, phi in pairs]
        pairs += powers
        q += 1
    return pairs


# -- command line ----------------------------------------------------------------


def cmd_permprod(args: SimpleNamespace) -> None:
    from .permgroups import PermGroup, parse_group_generators

    degree, gens = parse_group_generators(read_file(args.group))
    check_degree(degree)
    G = PermGroup.generate(degree, gens)
    print(render(permutation_product_class(G, parse_poly(args.X)), args.latex))


def cmd_cycprod(args: SimpleNamespace) -> None:
    print(render(cyclic_product_class(args.n, parse_poly(args.X)), args.latex))
