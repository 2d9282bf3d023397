#!/usr/bin/env python3
"""Diagonal arrangements indexed by a graph, and their complements.

For the line graph on five vertices, Delta_K(X) inside X^5 is the union of
the partial diagonals "all coordinates off a face agree".  Its class only
sees the face counts; the complement M(K, X) comes from the intersection
poset.  Evaluating at the Euler characteristic of a closed surface counts
nothing anyone could enumerate by hand, yet the algebra keeps the two
pieces summing to x^5 on the nose.
"""

from kzero.classpoly import ClassPoly
from kzero.polyhedral import (
    chi_complement_manifold,
    delta_config_class,
    delta_config_class_disjoint,
    m_complement_class,
)
from kzero.posets import intersection_poset
from kzero.simplicial import SimplicialComplex

x = ClassPoly.var("x")

K = SimplicialComplex.from_text("""
n=5
1,2
2,3
3,4
4,5
""")

delta = delta_config_class(K)
m = m_complement_class(K)
print("[Delta_K(X)] =", delta)
print("[M(K, X)]    =", m)
print("sum          =", delta + m)
print("intersection poset:")
print(intersection_poset(K).render())

# For a closed surface of Euler characteristic 2 the complement class
# evaluates to an honest Euler characteristic.
print("chi of M(K, sphere):", chi_complement_manifold(K, chi=2, m_dim=2))
print("checks against the class:", m.evaluate({"x": 2}))

# Disjoint components meet only along the thin diagonal, so their
# arrangement classes add with the diagonal counted once.
component = SimplicialComplex(5, [[1], [2], [3]])
parts = [component, component, component]
print("three isolated-vertex components:", delta_config_class_disjoint(parts))
