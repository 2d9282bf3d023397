"""Shared generators, independent oracles, the child runner and the golden harness.

The oracles here recompute expectations by brute force over finite models
(a space of class c behaves like a c-point set for every formula under
test), deliberately avoiding the library code paths they check.

Every test that starts a child interpreter goes through :func:`run_child`, or
:func:`kzero_child` for a ``kzero`` verb, which put ``src`` first on the child's
``PYTHONPATH`` (:func:`child_env`), time it, and cap its address space when
asked; :func:`closed_pipe` gives a child a stdout whose reader is gone.
:func:`run_main` is the one in-process runner: ``main`` in this process, its
output and the code of a usage error captured.  The golden gates share it with
:func:`digest`, :func:`check_golden` and :func:`write_golden`, and ``INPUTS``
holds the input files that the load table and the CLI contract table name.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator, Sequence

from kzero.classpoly import ClassPoly, PolyParseError, binomial, parse_poly
from kzero.cli import main
from kzero.errors import read_field
from kzero.classseries import ClassSeries, binomial_series, macdonald_series
from kzero.permgroups import PermGroup, PermParseError, Permutation
from kzero.posets import IntersectionPoset, PosetNode
from kzero.quotients import StratifiedGSpace
from kzero.simplicial import SimplicialComplex


SRC = str(Path(__file__).resolve().parent.parent / "src")


def load_tool(name: str) -> ModuleType:
    """The script ``tools/<name>.py``, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, Path(SRC).parent / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def child_env() -> dict[str, str]:
    """This environment with ``src`` first on PYTHONPATH, so a child interpreter imports kzero."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def run_child(args: Sequence[str], *, timeout: float, address_space: int | None = None,
              stdout: int = subprocess.PIPE, stderr: int = subprocess.PIPE,
              env: dict[str, str] | None = None) -> tuple[float, subprocess.CompletedProcess]:
    """Seconds taken and the completed process of ``python args``, run with :func:`child_env`
    and ``env`` on top of it, no stdin and its text output captured; ``address_space`` bytes
    bound the child's when given, and a file descriptor ``stdout`` or ``stderr`` takes the
    child's stdout or stderr."""
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=stderr, text=True, env={**child_env(), **(env or {})},
                          timeout=timeout, preexec_fn=limit)
    return time.perf_counter() - start, proc


def kzero_child(*argv: str, timeout: float = 60, **options) -> tuple[float, tuple[int, str, str]]:
    """Seconds and (exit code, stdout, stderr) of ``python -m kzero.cli argv`` in a child,
    run by :func:`run_child` with its ``options``."""
    seconds, proc = run_child(["-m", "kzero.cli", *argv], timeout=timeout, **options)
    return seconds, (proc.returncode, proc.stdout, proc.stderr)


@contextlib.contextmanager
def closed_pipe() -> Iterator[int]:
    """The write end of a pipe whose reader is gone before anything is written."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


def digest(*lines: str) -> str:
    """The sha256 of ``lines`` joined by newlines: one golden digest."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``main(argv)`` run in this process, the code of a
    ``SystemExit`` too: help and usage errors, from argparse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


INPUTS = {
    "K.txt": "n=5\n1,2\n2,3\n3,4\n4,5\n",  # the line graph on 5 vertices
    "skeleton.txt": "n=5\n" + "".join(f"{u},{v}\n" for u, v in combinations(range(1, 6), 2)),  # all 10 edges
    # a circle as two points and two arcs, the arcs swapped by Z/2
    "space.txt": "stratum p1 class=1\nstratum p2 class=1\nstratum arc1 class=-1\nstratum arc2 class=-1\n"
                 "group degree=2\ngen (1 2)\naction 1 arc1->arc2 arc2->arc1\n",
    "desc.txt": "id c=2 class=1\nid c=1 class=-1\nid c=2 class=1\nt1 c=2 class=1\nt2 c=2 class=1\n",
    "cells.txt": "0 2\n1 1\n0 2\n",
    "classes.txt": "r1 c=2\nr2 c=2\nr3 c=2\nr4 c=2\n",
    "map.txt": "dim=2\nrow 0 -1\nrow 1 0\nt 1 0\n",  # a quarter turn about (1/2, 1/2)
    "group.txt": "degree=4\ngen (1 2 3 4)\n",
    "facet.txt": "n=30\n" + ",".join(map(str, range(1, 25))) + "\n",
}
"""Input files of the verbs, by the name the argvs of ``tests/test_imports.py::LOADS`` and
``tests/test_cli.py::CONTRACT`` give them."""


def golden_changes(path: Path, table: dict[str, dict[str, str]]) -> list[str]:
    """``name (kind)`` of every digest of ``table`` that the golden file at ``path`` lacks or
    holds with another value, and of every one the file holds that ``table`` lacks."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    return [f"{name} ({kind})" for name in sorted(table.keys() | old.keys())
            for kind in sorted(table.get(name, {}).keys() | old.get(name, {}).keys())
            if table.get(name, {}).get(kind) != old.get(name, {}).get(kind)]


def check_golden(path: Path, table: dict[str, dict[str, str]]) -> None:
    """Assert that ``table`` matches the golden file at ``path``, naming every entry that does not."""
    changed = golden_changes(path, table)
    assert not changed, "output changed for: " + ", ".join(changed)


def write_golden(path: Path, digests: Callable[[], dict[str, dict[str, str]]]) -> None:
    """A golden gate run as ``python <gate> --write``: print every entry of ``digests()``
    that changed, for review, and rewrite the file at ``path``."""
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    table = digests()
    for change in golden_changes(path, table):
        print(change)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


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


def all_faces(K: SimplicialComplex) -> list[tuple[int, ...]]:
    """Every face of K, the empty simplex included, sorted by (size, lexicographic): the
    subsets of each facet, listed by ``combinations``."""
    faces = {face for f in K.facets for k in range(len(f) + 1) for face in combinations(f, k)}
    return sorted(faces, key=lambda s: (len(s), s))


def horner_h_numbers(K: SimplicialComplex) -> list[int]:
    """The coefficients of sum_k f_k (t - 1)^k, f_k the number of faces of size k in
    ``all_faces(K)``, folded by Horner's rule; [] when K has no faces."""
    counts = Counter(map(len, all_faces(K)))
    h: list[int] = []
    for k in reversed(range(len(counts))):
        h = [lo - hi for lo, hi in zip([0, *h], [*h, 0])]  # h * (t - 1)
        h[0] += counts[k]
    return h


def link_deletion_h_numbers(K: SimplicialComplex) -> list[int]:
    """The coefficients of H_K(t), the sum over faces sigma of (t - 1)^|sigma|, by the
    link-deletion rule H_K = H_{K - v} + (t - 1) H_{lk v}; [] when K has no faces.

    It branches on a vertex in the fewest facets, whose link is the smallest.  Three
    shortcuts end or shorten a branch: a simplex on s vertices gives t^s, a cone c * L
    over the vertices c of every facet gives t^|c| H_L, and a disjoint union of L_1 and L_2
    gives H_1 + H_2 - 1.  Memoized on the facet set; it lists no face and meets no
    facets."""
    memo: dict[frozenset[frozenset[int]], list[int]] = {}

    def plus(*polys: list[int]) -> list[int]:
        return [sum(p[i] for p in polys if i < len(p)) for i in range(max(map(len, polys)))]

    def maximal(faces: set[frozenset[int]]) -> frozenset[frozenset[int]]:
        kept: list[frozenset[int]] = []
        for f in sorted(faces, key=len, reverse=True):
            if not any(f <= g for g in kept):
                kept.append(f)
        return frozenset(kept)

    def h(facets: frozenset[frozenset[int]]) -> list[int]:
        if facets not in memo:
            memo[facets] = h_of(facets)
        return memo[facets]

    def h_of(facets: frozenset[frozenset[int]]) -> list[int]:
        if len(facets) == 1:  # a simplex
            return [0] * len(next(iter(facets))) + [1]
        core = frozenset.intersection(*facets)
        if core:  # a cone over core
            return [0] * len(core) + h(frozenset(f - core for f in facets))
        first = next(iter(facets))
        part, reached, grew = {first}, set(first), True  # the connected part of first
        while grew:
            grew = False
            for f in facets - part:
                if not reached.isdisjoint(f):
                    part.add(f)
                    reached |= f
                    grew = True
        if len(part) < len(facets):  # a disjoint union
            return plus(h(frozenset(part)), h(facets - part), [-1])
        counts = Counter(u for f in facets for u in f)
        v = min(counts, key=counts.__getitem__)
        deletion = h(maximal({f - {v} for f in facets}))
        link = h(frozenset(f - {v} for f in facets if v in f))
        return plus(deletion, [-c for c in link], [0, *link])  # + (t - 1) H_lk

    return h(frozenset(map(frozenset, K.facets))) if K.facets else []


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


_TOKEN_RE = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()/])")


def regex_tokens(text: str) -> list[str]:
    """The polynomial tokens of ``text`` read by one regular expression: a reference
    for the string scan of ``parse_poly``, raising the same error."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise PolyParseError(f"unexpected character {rest[0]!r} in polynomial {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def regex_from_cycles(text: str, degree: int) -> Permutation:
    """``Permutation.from_cycles`` with its cycles found by regular expressions: a
    reference for its string scan, raising the same errors."""
    stripped = text.strip()
    if not stripped:
        raise PermParseError("empty permutation text")
    body = _CYCLE_RE.sub("", stripped)
    if body.strip():
        raise PermParseError(f"stray text {body.strip()!r} in permutation {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        parts = [p for p in re.split(r"[,\s]+", m.group(1).strip()) if p]
        if not parts:
            continue
        message = f"bad entry in cycle {m.group(0)!r}"
        entries = [read_field(int, p, PermParseError, message) for p in parts]
        for v in entries:
            if not 1 <= v <= degree:
                raise PermParseError(f"entry {v} outside 1..{degree} in {text!r}")
            if v in seen:
                raise PermParseError(f"entry {v} repeated in {text!r}")
            seen.add(v)
        for i, v in enumerate(entries):
            images[v - 1] = entries[(i + 1) % len(entries)]
    return Permutation(images)


def random_subgroup(rng: random.Random, n: int) -> PermGroup:
    gens = [
        Permutation(rng.sample(range(1, n + 1), n))
        for _ in range(rng.randint(1, 2))
    ]
    return PermGroup.generate(n, gens)


def closure_elements(degree: int, gens: Sequence[Permutation]) -> tuple[Permutation, ...]:
    """Every element of the group the generators generate, sorted: the identity closed
    under left multiplication by each generator, breadth first."""
    found = {Permutation.identity(degree)}
    frontier = list(found)
    while frontier:
        fresh = []
        for g in frontier:
            for s in gens:
                h = s * g
                if h not in found:
                    found.add(h)
                    fresh.append(h)
        frontier = fresh
    return tuple(sorted(found))


def centralizer(G: PermGroup, g: Permutation) -> tuple[Permutation, ...]:
    """The elements of G that commute with g, sorted: a scan of all of G."""
    # h(g(1)) == g(h(1)) rejects most h before the two products
    return tuple(h for h in G.elements if h[g[0] - 1] == g[h[0] - 1] and h * g == g * h)


def partitions_with_weights(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All partitions of n (decreasing) with the count of permutations of that cycle type,
    h_lambda = n! / (product of parts * product of multiplicity factorials)."""
    if n < 1:
        raise ValueError("partitions need n >= 1")
    return [(lam, factorial(n) // _centralizer_order(lam)) for lam in _partitions(n, n)]


def _centralizer_order(lam: Sequence[int]) -> int:
    """z_lambda = product over part sizes k of k^m_k * m_k!, m_k the multiplicity of k."""
    z = 1
    for k, m in Counter(lam).items():
        z *= k ** m * factorial(m)
    return z


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


def coset_chi(G: PermGroup, sigma: Permutation) -> int:
    """Number of left cosets tG of G in S_n with t^-1 sigma t in G, sigma of G's degree.

    This is the number of fixed points of sigma acting on S_n / G, and is
    constant on conjugacy classes of S_n: with lambda the cycle type of
    sigma, it equals z_lambda * |G meet C_lambda| / |G|.
    """
    lam = sigma.cycle_type()
    return _centralizer_order(lam) * sum(1 for g in G if g.cycle_type() == lam) // G.order


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
    return cycle_type_quotient_classes(G, [p])[0]


def cycle_type_quotient_classes(G: PermGroup, classes: Sequence[ClassPoly]) -> list[ClassPoly]:
    """``cycle_type_quotient_class`` for each p in ``classes``, counting each chi^G once."""
    n = G.degree
    terms = [(len(lam), weight * brute_force_coset_chi(G, permutation_of_cycle_type(lam)))
             for lam, weight in partitions_with_weights(n)]
    return [sum((c * p ** k for k, c in terms), ClassPoly.zero()) / factorial(n) for p in classes]


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


CLASS_POOL = ["x", "x^2+a", "1", "x-1", "3"]
"""Classes given to the orbits of a k-subset space, in turn."""


def _perm(images: list[int]) -> Permutation:
    return Permutation([v + 1 for v in images])


def named_generators(kind: str, n: int) -> list[Permutation]:
    rotation = _perm([(i + 1) % n for i in range(n)])
    if kind == "S":
        return [_perm([1, 0, *range(2, n)]), rotation] if n >= 2 else []
    if kind == "A":  # (1 2 3) and an n- or (n-1)-cycle of odd length: both even
        cycle = rotation if n % 2 else _perm([0, *((i % (n - 1)) + 1 for i in range(1, n))])
        return [_perm([1, 2, 0, *range(3, n)]), cycle]
    if kind == "C":
        return [rotation]
    return [rotation, _perm([n - 1 - i for i in range(n)])]  # D


def subset_space(kind: str, n: int, k: int) -> StratifiedGSpace:
    """The group of ``kind`` on 1..n permuting the k-subsets, plus one fixed stratum
    ``pt``; the orbits take the classes of ``CLASS_POOL`` in turn."""
    gens = named_generators(kind, n)
    subsets = list(combinations(range(1, n + 1), k))
    index = {s: i for i, s in enumerate(subsets)}
    maps = [[index[tuple(sorted(g(v) for v in s))] for s in subsets] for g in gens]
    classes: list[str | None] = [None] * len(subsets)
    orbits = 0
    for start in range(len(subsets)):
        if classes[start] is None:
            cls, frontier = CLASS_POOL[orbits % len(CLASS_POOL)], [start]
            classes[start], orbits = cls, orbits + 1
            while frontier:
                i = frontier.pop()
                for f in maps:
                    if classes[f[i]] is None:
                        classes[f[i]] = cls
                        frontier.append(f[i])
    strata = [("s" + "_".join(map(str, s)), cls) for s, cls in zip(subsets, classes)] + [("pt", "x*a")]
    action = [Permutation([j + 1 for j in f] + [len(subsets) + 1]) for f in maps]
    return StratifiedGSpace([(label, parse_poly(c)) for label, c in strata], PermGroup(n, gens), action)


def pair_closure_action(
    G: PermGroup, generator_action: Sequence[Permutation], m: int
) -> dict[Permutation, Permutation] | None:
    """Each element of G with its strata permutation, by closing the pair (identity,
    identity) under the (generator, generator action) pairs breadth first; None when the
    actions do not extend to a homomorphism, that is when some element is reached with
    two permutations.  The walk stops once more than |G| pairs are found, since then two
    of them share an element."""
    found = {(Permutation.identity(G.degree), Permutation.identity(m))}
    frontier = list(found)
    while frontier and len(found) <= G.order:
        fresh = []
        for g, a in frontier:
            for s, b in zip(G.generators, generator_action):
                pair = (s * g, b * a)
                if pair not in found:
                    found.add(pair)
                    fresh.append(pair)
        frontier = fresh
    table = dict(found)
    return table if len(table) == len(found) else None


def scanned_centralizer_sum(space: StratifiedGSpace) -> ClassPoly:
    """The centralizer sum with every centralizer scanned out of all of G: for each class
    representative g and each orbit of C(g) on the strata g fixes, [S] divided by the
    number of elements of C(g) that fix S, all read off the images under each h in C(g)."""
    G = space.group
    total = ClassPoly.zero()
    for g, _ in brute_force_conjugacy_classes(G):
        commuting = centralizer(G, g)
        seen: set[int] = set()
        for i in space.fixed_strata(g):
            if i not in seen:
                images = [space.action_of(h)(i + 1) - 1 for h in commuting]
                seen.update(images)
                total = total + space.classes[i] / images.count(i)
    return total


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
    faces = set(all_faces(K))
    for tup in product(range(cx), repeat=K.n):
        support = tuple(i for i in range(1, K.n + 1) if tup[i - 1] >= ca)
        if any(set(support) <= set(f) for f in faces):
            count += 1
    return count


def face_sum_polyhedral_product(K: SimplicialComplex, x: ClassPoly, a: ClassPoly) -> ClassPoly:
    """[(X, A)^K] as the face sum: (x - a)^|sigma| * a^(n - |sigma|) added up over
    every face sigma in ``all_faces(K)``, the empty face included."""
    term = [(x - a) ** k * a ** (K.n - k) for k in range(K.n + 1)]
    total = ClassPoly.zero()
    for sigma in all_faces(K):
        total = total + term[len(sigma)]
    return total


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
