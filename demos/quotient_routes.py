#!/usr/bin/env python3
"""A circle with a half-turn, three ways.

The circle, stratified as two fixed points and two open arcs, is flipped by
an order-2 rotation that swaps the arcs.  The quotient is a closed interval,
whose class is 1, and the calculator reaches it by three different routes
that must agree: one summand per stratum orbit, the averaged fixed-stratum
sum over the group, and the centralizer-orbit sum over conjugacy classes.
"""

from kzero.quotients import (
    burnside_class,
    centralizer_sum_class,
    orbit_sum_class,
    parse_gspace_text,
)

space = parse_gspace_text("""
stratum p1   class=1
stratum p2   class=1
stratum arc1 class=-1
stratum arc2 class=-1
group degree=2
gen (1 2)
action 1 arc1->arc2 arc2->arc1
""")

print("strata:", ", ".join(space.labels))
print("orbits:", space.orbits())

print("orbit sum:       ", orbit_sum_class(space))
print("averaged fixed:  ", burnside_class(space))
print("centralizer sum: ", centralizer_sum_class(space))

# The same interval, reached from the infinite dihedral group acting on the
# line: only the conjugacy classes of finite order contribute, each through
# the strata of its fixed set weighted by stabilizer orders.
from kzero.discrete import descriptor_class, parse_descriptor_text

descriptor = parse_descriptor_text("""
id c=2 class=1    # endpoint of the fundamental interval
id c=1 class=-1   # its interior
id c=2 class=1    # the other endpoint
t1 c=2 class=1    # reflection fixing the first endpoint
t2 c=2 class=1    # reflection fixing the second
""")
print("dihedral descriptor:", descriptor_class(descriptor))

# A crystallographic check: the plane modulo the p2 wallpaper group is a
# sphere with four cone points.  Four conjugacy classes of half-turns, each
# with centralizer of order 2, give Euler characteristic 4 * 1/2 = 2.
from kzero.discrete import CentralIsometryClass, crystal_chi

half_turns = [CentralIsometryClass(f"r{i}", 2) for i in range(1, 5)]
print("p2 quotient chi:", crystal_chi(half_turns))
