#!/usr/bin/env python3
"""Quotients of powers X^n by permutation groups.

The class of X^n / G is a polynomial in the class x of X.  Evaluating at
x = c recovers plain orbit counting on a c-point set, so necklace numbers
fall out at the integers.  Two subgroups of S_4, both of order two, give
different quotients: where the transposition sits matters, not just the
abstract group.
"""

from collections import Counter
from math import factorial

from kzero.classpoly import ClassPoly
from kzero.permgroups import (
    PermGroup,
    Permutation,
    burnside_quotient_class,
    coset_chi,
    cyclic_product_class,
    permutation_product_class,
    symmetric_product_class,
)

x = ClassPoly.var("x")

cyc4 = cyclic_product_class(4, x)
print("[X^4 / (Z/4)] =", cyc4)
for beads in (2, 3, 4):
    print(f"  necklaces of length 4 with {beads} colors:", cyc4.evaluate({"x": beads}))

swap_two = PermGroup.generate(4, [Permutation.from_cycles("(1 2)", 4)])
swap_pairs = PermGroup.generate(4, [Permutation.from_cycles("(1 2)(3 4)", 4)])
print("[X^4 / <(1 2)>]      =", burnside_quotient_class(swap_two, x))
print("[X^4 / <(1 2)(3 4)>] =", burnside_quotient_class(swap_pairs, x))

# The paper sums by cycle type instead, weighting each type lambda by the
# number h_lambda of its permutations in S_4 and the number chi^G of G-stable
# cosets; term by term this is the element average.  chi^G vanishes on the
# types G does not meet, so the sum runs over one element of G per type.
h = Counter(s.cycle_type() for s in PermGroup.symmetric(4))
for G in (swap_two, swap_pairs, PermGroup.cyclic(4)):
    by_type = ClassPoly.zero()
    for lam, sigma in {g.cycle_type(): g for g in G}.items():
        by_type += h[lam] * coset_chi(G, sigma) * x ** len(lam)
    assert by_type / factorial(4) == permutation_product_class(G, x)
print("cycle-type sum agrees with the element average on all three groups")

# Full symmetric products count multisets; their classes are binomials.
for d in range(5):
    print(f"[SP^{d}(X)] =", symmetric_product_class(x, d))
