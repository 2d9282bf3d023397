#!/usr/bin/env python3
"""Spaces of 0-cycles with bounded multiplicities.

Points of X carry m-tuples of multiplicities with fixed column totals d,
and no point may have all m coordinates reach the bound n.  The classes
satisfy a peeling recursion against symmetric products; packed into a
series in t they collapse to the closed form

    (1 - t^(mn))^x * (1 - t)^(-mx)

and dividing out the full symmetric-product series leaves a binomial.
"""

from kzero.classpoly import ClassPoly
from kzero.classseries import macdonald_series
from kzero.zerocycles import ZeroCycleTable, closed_series, ratio_series

x = ClassPoly.var("x")

m, n = 2, 1
table = ZeroCycleTable(m, n, x, 4)
print(f"classes [Z_{n}^d(X)] for two colors, bound {n}:")
for d, value in table.entries():
    print(f"  d={d}: {value}")

print("table series: ", table.series(4))
print("closed form:  ", closed_series(m, n, x, 4))
assert table.series(4) == closed_series(m, n, x, 4)

ratio = ratio_series(m, n, x, 8)
print("ratio:        ", ratio)
# the table's series over the symmetric-product series, as a series quotient
assert ratio == ZeroCycleTable(m, n, x, 8).series(8) * (macdonald_series(x, 8) ** m).inverse()

# Over a single point the two-color series is 1 + 2t + 2t^2 + ...: one
# empty cycle, then two ways to pile multiplicities with one color short.
print("over a point: ", closed_series(m, n, 1, 6))
