"""Time the two general h-number routes of ``kzero.meets`` on seeded random families.

For each family and seed (1, 2 and 3), the script builds one complex and
times, in-process, listing its faces (``h_by_faces``), summing Möbius values
over its meets (``h_by_mobius``), and ``SimplicialComplex.h_numbers`` itself,
which gives a skeleton of the full simplex its closed form and any other
complex ``kzero.meets.h_numbers``.  That runs the poset route while its steps
(its meets, then one per set and two per vertex of each set for the Möbius
values) stay within the vertices listing would write, the sum over facets of
|F| 2^(|F| - 1), and lists the faces once they do not; its time counts the
work it gives up on.  One markdown row is
printed per family, with the route ``h_numbers`` picks for each seed and times
in ms summed over the seeds; then the total of ``h_numbers`` over the
families, and the same figures for two larger inputs, seed 1 only.

Run from the repository root (takes about ten minutes)::

    PYTHONPATH=src python3 tools/h_routes.py
"""

from __future__ import annotations

import gc
import random
import time
from itertools import combinations

from kzero import meets
from kzero.simplicial import SimplicialComplex

SEEDS = (1, 2, 3)

FAMILIES = [
    # (label, n, facets, smallest facet, largest facet); a facet size of 2..2 is a graph
    ("sparse, 100 facets of 6-12 on 200", 200, 100, 6, 12),
    ("sparse, 100 facets of 6-12 on 100", 100, 100, 6, 12),
    ("sparse, 100 facets of 6-12 on 60", 60, 100, 6, 12),
    ("sparse, 200 facets of 6-12 on 100", 100, 200, 6, 12),
    ("sparse, 40 facets of 6-12 on 200", 200, 40, 6, 12),
    ("sparse, 40 facets of 6-12 on 60", 60, 40, 6, 12),
    ("sparse, 40 facets of 6-12 on 30", 30, 40, 6, 12),
    ("dense, 100 facets of 8-12 on 16", 16, 100, 8, 12),
    ("dense, 100 facets of 6-10 on 12", 12, 100, 6, 10),
    ("dense, 60 facets of 8-14 on 20", 20, 60, 8, 14),
    ("dense, 40 facets of 6-12 on 16", 16, 40, 6, 12),
    ("dense, 40 facets of 6-12 on 14", 14, 40, 6, 12),
    ("dense, 40 facets of 6-11 on 12", 12, 40, 6, 11),
    ("graph, 1500 edges on 80", 80, 1500, 2, 2),
    ("graph, 300 edges on 40", 40, 300, 2, 2),
    ("graph, 60 edges on 20", 20, 60, 2, 2),
    ("graph, 20 edges on 10", 10, 20, 2, 2),
    ("tiny, 4 facets of 1-2 on 6", 6, 4, 1, 2),
    ("small, 24 facets of 2-4 on 10", 10, 24, 2, 4),
    ("small, 36 facets of 2-4 on 12", 12, 36, 2, 4),
    ("small, 10 facets of 3-5 on 8", 8, 10, 3, 5),
    ("small, 20 facets of 5-9 on 40", 40, 20, 5, 9),
    ("large, 5 facets of 14-18 on 40", 40, 5, 14, 18),
    ("large, 10 facets of 12-16 on 60", 60, 10, 12, 16),
    ("large, 8 facets of 10-16 on 24", 24, 8, 10, 16),
    ("large, 30 facets of 10-14 on 100", 100, 30, 10, 14),
]

INPUTS = [
    ("input, 150 facets of 10-14 on 20", 20, 150, 10, 14),
    ("input, 900 facets of 10-13 on 600", 600, 900, 10, 13),
]


def build(seed: int, n: int, m: int, lo: int, hi: int) -> SimplicialComplex:
    rng = random.Random(seed)
    if lo == hi == 2:
        return SimplicialComplex(n, rng.sample(list(combinations(range(1, n + 1), 2)), m))
    return SimplicialComplex(n, [rng.sample(range(1, n + 1), rng.randint(lo, hi)) for _ in range(m)])


def seconds(call) -> float:
    """Seconds per call of ``call()``, the least of three rounds: a round is one call if it
    takes 50 ms or more, else the mean over as many calls as fill 50 ms."""
    rounds = []
    for _ in range(3):
        gc.collect()
        runs, start = 0, time.perf_counter()
        while time.perf_counter() - start < 0.05:
            call()
            runs += 1
        rounds.append((time.perf_counter() - start) / runs)
    return min(rounds)


def picked_route(K: SimplicialComplex) -> str:
    """The route ``h_numbers`` takes (``closed`` for the closed form of a skeleton), seen by
    wrapping both general routes for one call."""
    taken = []
    routes = {"faces": meets.h_by_faces, "poset": meets.h_by_mobius}
    try:
        for name, route in routes.items():
            setattr(meets, route.__name__, lambda arg, n=name, r=route: taken.append(n) or r(arg))
        K.h_numbers()
    finally:
        for route in routes.values():
            setattr(meets, route.__name__, route)
    return taken[0] if taken else "closed"


def row(label: str, complexes: list[SimplicialComplex]) -> tuple[str, float]:
    """The markdown row of a family, and the seconds ``h_numbers`` took."""
    faces = poset = by_rule = 0.0
    picks = []
    for K in complexes:
        faces += seconds(lambda K=K: meets.h_by_faces(K.facets))
        poset += seconds(lambda K=K: meets.h_by_mobius(meets.meet_mobius(K.facets)))
        picks.append(picked_route(K))
        by_rule += seconds(K.h_numbers)
    ms = [f"{1000 * t:.1f}" for t in (faces, poset, by_rule)]
    return " | ".join(["", label, *ms[:2], "/".join(picks), ms[2], ""]).strip(), by_rule


def main() -> None:
    print("| family | faces ms | poset ms | route picked | h_numbers ms |")
    print("| --- | --- | --- | --- | --- |")
    total = 0.0
    for label, *shape in FAMILIES:
        text, by_rule = row(label, [build(seed, *shape) for seed in SEEDS])
        total += by_rule
        print(text, flush=True)
    print(f"| all {len(FAMILIES)} families | | | | {1000 * total:.1f} |")
    for label, *shape in INPUTS:
        print(row(label, [build(1, *shape)])[0], flush=True)


if __name__ == "__main__":
    main()
