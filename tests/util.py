"""Shared generators and independent oracles for the test suite.

The oracles here recompute expectations by brute force over finite models
(a space of class c behaves like a c-point set for every formula under
test), deliberately avoiding the library code paths they check.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd
from typing import Iterator, Sequence

from kzero.classpoly import ClassPoly, binomial
from kzero.classseries import ClassSeries, binomial_series, macdonald_series
from kzero.permgroups import PermGroup, Permutation
from kzero.posets import IntersectionPoset, PosetNode
from kzero.quotients import StratifiedGSpace
from kzero.simplicial import SimplicialComplex


def random_poly(rng: random.Random, variables: tuple[str, ...] = ("x",), max_degree: int = 3) -> ClassPoly:
    p = ClassPoly.zero()
    for _ in range(rng.randint(1, 4)):
        coeff = rng.randint(-3, 3)
        term = ClassPoly.const(coeff)
        for v in variables:
            term = term * ClassPoly.var(v) ** rng.randint(0, max_degree)
        p = p + term
    return p


class FractionPoly:
    """The ring's first arithmetic, one ``Fraction`` per term: a reference for
    ``ClassPoly``, which stores integer numerators over one denominator.

    Terms map exponent vectors over ``variables`` to nonzero ``Fraction`` values,
    in the canonical form ``ClassPoly`` documents: no zero term, exactly the
    occurring variables, sorted by decreasing name."""

    def __init__(self, variables: Sequence[str], terms: dict[tuple[int, ...], Fraction]):
        terms = {e: Fraction(c) for e, c in terms.items() if c}
        order = sorted(range(len(variables)), key=lambda i: variables[i], reverse=True)
        used = [i for i in order if any(e[i] for e in terms)]
        self.variables = tuple(variables[i] for i in used)
        self.coeffs = {tuple(e[i] for i in used): c for e, c in terms.items()}

    @classmethod
    def of(cls, p: ClassPoly) -> FractionPoly:
        """The reference copy of ``p``, read through its public terms."""
        return cls(p.variables, {tuple(m.get(v, 0) for v in p.variables): c for m, c in p.terms()})

    def _over(self, vs: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
        return {tuple(dict(zip(self.variables, e)).get(v, 0) for v in vs): c for e, c in self.coeffs.items()}

    def _aligned(self, other: FractionPoly) -> tuple[tuple[str, ...], dict, dict]:
        vs = tuple(sorted(set(self.variables) | set(other.variables)))
        return vs, self._over(vs), other._over(vs)

    def __add__(self, other: FractionPoly) -> FractionPoly:
        vs, a, b = self._aligned(other)
        return FractionPoly(vs, {e: a.get(e, 0) + b.get(e, 0) for e in a.keys() | b.keys()})

    def __neg__(self) -> FractionPoly:
        return FractionPoly(self.variables, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: FractionPoly) -> FractionPoly:
        return self + -other

    def __mul__(self, other: FractionPoly) -> FractionPoly:
        vs, a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(i + j for i, j in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return FractionPoly(vs, out)

    def __pow__(self, k: int) -> FractionPoly:
        result = FractionPoly((), {(): Fraction(1)})
        for _ in range(k):
            result = result * self
        return result

    def __truediv__(self, q: Fraction | int) -> FractionPoly:
        return FractionPoly(self.variables, {e: c / q for e, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FractionPoly) and (self.variables, self.coeffs) == (other.variables, other.coeffs)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.coeffs.items(), key=lambda ec: (-sum(ec[0]), tuple(-k for k in ec[0])))

    def terms(self) -> list[tuple[dict[str, int], Fraction]]:
        return [({v: k for v, k in zip(self.variables, e) if k}, c) for e, c in self.sorted_terms()]

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.variables), Fraction(0))

    def evaluate(self, at: dict[str, Fraction | int]) -> Fraction:
        total = Fraction(0)
        for e, c in self.coeffs.items():
            for v, k in zip(self.variables, e):
                c *= Fraction(at[v]) ** k
            total += c
        return total

    def render(self, latex: bool) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.sorted_terms():
            a = abs(c)
            if latex:
                mono = "".join(v if k == 1 else f"{v}^{{{k}}}" for v, k in zip(self.variables, e) if k)
                coeff = str(a) if a.denominator == 1 else f"\\frac{{{a.numerator}}}{{{a.denominator}}}"
            else:
                mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(self.variables, e) if k)
                coeff = f"{a}*" if mono else str(a)
            body = coeff if not mono else (mono if a == 1 else coeff + mono)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


def reference_series_text(s: ClassSeries, latex: bool = False) -> str:
    """The series renderer by string surgery, a reference for ``ClassSeries.__str__``
    and ``latex``: each coefficient is rendered to text by ``FractionPoly`` and that
    text is re-read, a leading minus pulled out of a one-term coefficient and a bare
    ``1`` dropped before its power of x."""
    parts: list[str] = []
    for k, c in enumerate(s):
        ref = FractionPoly.of(c)
        if not ref.coeffs:
            continue
        text = ref.render(latex)
        single = len(ref.coeffs) == 1
        negate = single and text.startswith("-")
        if negate:
            text = text[1:]
        if k == 0:
            body = text if single else f"({text})"
        else:
            xk = "x" if k == 1 else (f"x^{{{k}}}" if latex else f"x^{k}")
            if not single:
                body = f"({text}){'' if latex else '*'}{xk}"
            elif text == "1":
                body = xk
            elif latex:
                body = f"{text}{xk}" if not ref.variables else f"{text}\\,{xk}"
            else:
                body = f"{text}*{xk}"
        if parts:
            parts.append(f" - {body}" if negate else f" + {body}")
        else:
            parts.append(f"-{body}" if negate else body)
    body = "".join(parts) or "0"
    return f"{body} + O(x^{{{len(s)}}})" if latex else f"{body} + O(x^{len(s)})"


def brute_force_binomial_series(exponent, power: int, sign: int, order: int) -> ClassSeries:
    """(1 - sign*x^power)^exponent with every coefficient C(exponent, k) built afresh."""
    q = exponent if isinstance(exponent, ClassPoly) else ClassPoly.const(exponent)
    coeffs = [ClassPoly.zero()] * (order + 1)
    for k in range(order // power + 1):
        c = binomial(q, k)
        coeffs[power * k] = -c if sign == 1 and k % 2 else c
    return ClassSeries(coeffs, order=order)


def power_route_closed_series(m: int, n: int, p: ClassPoly, order: int) -> ClassSeries:
    """(1 - x^(mn))^p * ((1 - x)^(-p))^m, the m-th power taken by repeated series products."""
    return binomial_series(p, m * n, 1, order=order) * macdonald_series(p, order) ** m


def random_complex(rng: random.Random, n_min: int = 1, n_max: int = 7) -> SimplicialComplex:
    n = rng.randint(n_min, n_max)
    facets = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, n)
        facets.append(rng.sample(range(1, n + 1), size))
    return SimplicialComplex(n, facets)


def random_facet_list(rng: random.Random) -> tuple[int, list[list[int]]]:
    """A vertex count and a facet list that may repeat faces, nest them or hold the empty face."""
    n = rng.randint(0, 8)
    faces = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.5:
        faces.append(list(reversed(rng.choice(faces))))
    if rng.random() < 0.5:
        f = rng.choice(faces)
        faces.append(f[: rng.randint(0, len(f))])
    rng.shuffle(faces)
    return n, faces


def facet_list_cases() -> list[tuple[int, list[list[int]]]]:
    """Fixed edge cases (a single facet, the empty simplex alone, empty meets,
    repeated and nested faces) followed by random facet lists."""
    cases = [
        (5, [[1, 2, 3]]),
        (0, [[]]),
        (3, [[]]),
        (6, [[1, 2], [3, 4], [5, 6]]),
        (4, [[1, 2], [2, 1], [1], [1, 2, 3], [3, 4]]),
    ]
    rng = random.Random(11)
    cases.extend(random_facet_list(rng) for _ in range(300 - len(cases)))
    return cases


def brute_force_facets(faces: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The inclusion-maximal faces, by testing every pair of distinct faces as sets."""
    candidates = {tuple(sorted(set(f))) for f in faces}
    kept = [f for f in candidates if not any(set(f) < set(g) for g in candidates)]
    return tuple(sorted(kept, key=lambda s: (len(s), s)))


def brute_force_poset(K: SimplicialComplex) -> IntersectionPoset:
    """The intersection poset by meeting every pair of found sets, with the
    Möbius recursion over every earlier node tested by set inclusion."""
    sets = {frozenset(f) for f in K.facets}
    frontier = list(sets)
    while frontier:
        fresh = []
        for s in frontier:
            for t in list(sets):
                if s & t not in sets:
                    sets.add(s & t)
                    fresh.append(s & t)
        frontier = fresh
    ordered = [None] + sorted((tuple(sorted(s)) for s in sets), key=lambda s: (-len(s), s))
    mobius = [1]
    for i in range(1, len(ordered)):
        below = sum(mobius[j] for j in range(1, i) if set(ordered[j]) > set(ordered[i]))
        mobius.append(-(mobius[0] + below))
    return IntersectionPoset(tuple(PosetNode(vs, mu) for vs, mu in zip(ordered, mobius)))


def strictly_below(a: PosetNode, b: PosetNode) -> bool:
    """True when a < b in the poset order (reverse inclusion, bottom lowest)."""
    if a.vertex_set is None:
        return b.vertex_set is not None
    if b.vertex_set is None:
        return False
    return set(a.vertex_set) > set(b.vertex_set)


def disjoint_union(parts: Sequence[SimplicialComplex]) -> SimplicialComplex:
    """The disjoint union: each part's vertices shifted past those of the parts before it."""
    facets: list[tuple[int, ...]] = []
    offset = 0
    for K in parts:
        facets.extend(tuple(v + offset for v in f) for f in K.facets)
        offset += K.n
    return SimplicialComplex(offset, facets)


def random_small_facet_complex(rng: random.Random, n_min: int = 5, n_max: int = 9) -> SimplicialComplex:
    """A complex with >= 2 facets satisfying 2(dim K + 1) < n."""
    while True:
        n = rng.randint(n_min, n_max)
        max_size = (n - 1) // 2
        if max_size < 1:
            continue
        facets = []
        for _ in range(rng.randint(2, 5)):
            size = rng.randint(1, max_size)
            facets.append(rng.sample(range(1, n + 1), size))
        K = SimplicialComplex(n, facets)
        if len(K.facets) >= 2:
            return K


def random_subgroup(rng: random.Random, n: int) -> PermGroup:
    gens = [
        Permutation(rng.sample(range(1, n + 1), n))
        for _ in range(rng.randint(1, 2))
    ]
    return PermGroup.generate(n, gens)


def partitions_with_weights(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All partitions of n (decreasing) with the count of permutations of that cycle type,
    h_lambda = n! / (product of parts * product of multiplicity factorials)."""
    if n < 1:
        raise ValueError("partitions need n >= 1")
    weights = []
    for lam in _partitions(n, n):
        z = 1
        for k, m in Counter(lam).items():
            z *= k ** m * factorial(m)
        weights.append((lam, factorial(n) // z))
    return weights


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def permutation_of_cycle_type(lam: Sequence[int]) -> Permutation:
    """A canonical permutation with the given cycle type: consecutive blocks."""
    images: list[int] = []
    start = 1
    for part in lam:
        block = list(range(start, start + part))
        images.extend(block[1:] + block[:1])
        start += part
    return Permutation(images)


def brute_force_conjugacy_classes(G: PermGroup) -> list[tuple[Permutation, tuple[Permutation, ...]]]:
    """(representative, members) per class, each class the set of h g h^-1 over every h
    in G; representatives are the least unvisited elements."""
    seen: set[Permutation] = set()
    out = []
    for g in G.elements:
        if g in seen:
            continue
        members = {h * g * h.inverse() for h in G.elements}
        seen.update(members)
        out.append((g, tuple(sorted(members))))
    return out


def brute_force_orbits(space: StratifiedGSpace) -> tuple[tuple[int, ...], ...]:
    """Stratum orbits (0-based, sorted, by least element), each the image of a stratum
    under the action of every element of G."""
    orbits = {
        tuple(sorted({space.action_of(g)(i + 1) - 1 for g in space.group}))
        for i in range(len(space.labels))
    }
    return tuple(sorted(orbits))


def brute_force_coset_chi(G: PermGroup, sigma: Permutation) -> int:
    """Left cosets tG of G in S_n with t^-1 sigma t in G, by enumerating all t in S_n."""
    hits = 0
    for images in permutations(range(1, G.degree + 1)):
        t = Permutation(images)
        if t.inverse() * sigma * t in G:
            hits += 1
    return hits // G.order


def cycle_type_quotient_class(G: PermGroup, p: ClassPoly) -> ClassPoly:
    """[X^n / G] = (1/n!) sum over cycle types lambda of h_lambda * chi^G(sigma_lambda) * p^(parts),
    with every chi^G counted by ``brute_force_coset_chi``."""
    n = G.degree
    total = ClassPoly.zero()
    for lam, weight in partitions_with_weights(n):
        chi = brute_force_coset_chi(G, permutation_of_cycle_type(lam))
        total = total + weight * chi * p ** len(lam)
    return total / factorial(n)


def count_coloring_orbits(G: PermGroup, c: int) -> int:
    """Orbits of G on {1..c}^n, the tuples permuted by position, closed under the generators."""
    n = G.degree
    unseen = set(product(range(c), repeat=n))
    orbits = 0
    while unseen:
        frontier = [unseen.pop()]
        orbits += 1
        while frontier:
            t = frontier.pop()
            for g in G.generators:
                image = tuple(t[g(i) - 1] for i in range(1, n + 1))
                if image in unseen:
                    unseen.remove(image)
                    frontier.append(image)
    return orbits


def gcd_count_cyclic_product_class(n: int, p: ClassPoly) -> ClassPoly:
    """(1/n) sum over d | n of phi(d) p^(n/d), every divisor tried and phi(d) counted by gcds."""
    total = ClassPoly.zero()
    for d in range(1, n + 1):
        if n % d == 0:
            phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
            total = total + phi * p ** (n // d)
    return total / n


def left_cosets(G: PermGroup, subgroup_elements: list[Permutation]) -> list[frozenset[Permutation]]:
    """Left cosets t*H, listed by their least member."""
    by_rep: dict[Permutation, frozenset[Permutation]] = {}
    for t in G:
        members = frozenset(t * h for h in subgroup_elements)
        by_rep[min(members)] = members
    return [by_rep[k] for k in sorted(by_rep)]


def random_gspace(rng: random.Random, max_strata: int = 20) -> StratifiedGSpace:
    """A stratified G-space with |G| <= 120, built from coset actions of G.

    Each block of strata is a transitive G-set G/H for a random cyclic
    subgroup H, so orbits and nontrivial stabilizers arise naturally; the
    block shares one random class, as the model requires.
    """
    n = rng.randint(2, 5)
    G = random_subgroup(rng, n)
    identity = Permutation.identity(n)
    blocks: list[list[frozenset[Permutation]]] = []
    total = 0
    for _ in range(rng.randint(1, 4)):
        g = rng.choice(G.elements)
        subgroup = [g]
        h = g
        while h != identity:
            h = h * g
            subgroup.append(h)
        cosets = left_cosets(G, subgroup)
        if total + len(cosets) > max_strata:
            continue
        blocks.append(cosets)
        total += len(cosets)
    if not blocks:
        blocks = [left_cosets(G, list(G.elements))]
        total = 1
    strata: list[tuple[str, ClassPoly]] = []
    coset_index: dict[int, dict[Permutation, int]] = {}
    for b, cosets in enumerate(blocks):
        cls = random_poly(rng)
        lookup: dict[Permutation, int] = {}
        for c, members in enumerate(cosets):
            for t in members:
                lookup[t] = len(strata) + c + 1
        coset_index[b] = lookup
        for c in range(len(cosets)):
            strata.append((f"b{b}c{c}", cls))
    gen_action = []
    for s in G.generators:
        images = [0] * len(strata)
        for b, cosets in enumerate(blocks):
            lookup = coset_index[b]
            for c, members in enumerate(cosets):
                rep = min(members)
                src = lookup[rep]
                images[src - 1] = lookup[s * rep]
        gen_action.append(Permutation(images))
    return StratifiedGSpace(strata, G, gen_action)


def count_arrangement_points(K: SimplicialComplex, c: int) -> int:
    """|Delta_K(X)| for X a c-point set: tuples where, for some facet, all
    coordinates outside the facet agree."""
    n = K.n
    count = 0
    for tup in product(range(c), repeat=n):
        for f in K.facets:
            outside = {tup[i - 1] for i in range(1, n + 1) if i not in f}
            if len(outside) <= 1:
                count += 1
                break
    return count


def count_polyhedral_product_points(K: SimplicialComplex, cx: int, ca: int) -> int:
    """|(X, A)^K| for X = {0..cx-1}, A = {0..ca-1}: tuples whose set of
    coordinates outside A spans a face of K."""
    count = 0
    if K.is_empty():
        return ca ** K.n
    faces = set(K.all_faces())
    for tup in product(range(cx), repeat=K.n):
        support = tuple(i for i in range(1, K.n + 1) if tup[i - 1] >= ca)
        if any(set(support) <= set(f) for f in faces):
            count += 1
    return count


def count_zero_cycle_points(c: int, n: int, d: tuple[int, ...]) -> int:
    """|Z_n^d(X)| for X a c-point set: multiplicity assignments with column
    sums d where no point has every color multiplicity >= n."""
    m = len(d)
    if c == 0:
        return 1 if all(di == 0 for di in d) else 0
    per_color = [
        [comp for comp in product(range(di + 1), repeat=c) if sum(comp) == di]
        for di in d
    ]
    count = 0
    for rows in product(*per_color):
        if all(any(rows[i][p] < n for i in range(m)) for p in range(c)):
            count += 1
    return count


def solve_affine_fixed_points(linear, translation) -> int | None:
    """Independent solver: number of solutions of x = Ax + v (None for infinitely many).

    Row-reduces (A - I | -v) exactly.
    """
    n = len(translation)
    rows = [
        [Fraction(linear[i][j]) - (1 if i == j else 0) for j in range(n)]
        + [-Fraction(translation[i])]
        for i in range(n)
    ]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    for r in range(rank, n):
        if rows[r][n] != 0:
            return 0
    return 1 if rank == n else None
