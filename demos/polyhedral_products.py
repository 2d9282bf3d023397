#!/usr/bin/env python3
"""Polyhedral products over a small complex, and their complements.

K has five vertices and facets {1,2,3}, {3,4}, {3,5}.  The moment-angle-like
space (X, A)^K collects tuples in X^5 whose coordinates off a face lie in A;
its class is a sum over the 12 faces.  The complement inside X^5 comes out
of the intersection poset of the facets with its Möbius function, and the
two must add back to x^5.
"""

from kzero.classpoly import ClassPoly
from kzero.polyhedral import (
    PolyPair,
    fat_wedge_as_polyhedral_product,
    fat_wedge_class,
    polyhedral_product_class,
    polyhedral_product_complement_class,
)
from kzero.posets import intersection_poset
from kzero.simplicial import SimplicialComplex

x = ClassPoly.var("x")
a = ClassPoly.var("a")

K = SimplicialComplex.from_text("""
n=5
1,2,3
3,4
3,5
""")
print("faces by size:", K.face_count_by_size())

pair = PolyPair(x, a)
product = polyhedral_product_class(K, pair)
complement = polyhedral_product_complement_class(K, pair)

print("[(X, A)^K]      =", product)
print("[X^5 - (X, A)^K] =", complement)
print("sum             =", product + complement)
print("intersection poset:")
print(intersection_poset(K).render())

# Fat wedges are the polyhedral products of (X, point) over skeleta of the
# full simplex: at most d coordinates stray from the basepoint.
print()
for n in (3, 4):
    for d in range(n + 1):
        direct = fat_wedge_class(n, d)
        assert direct == fat_wedge_as_polyhedral_product(n, d)
        print(f"fat wedge n={n} d={d}:", direct)
