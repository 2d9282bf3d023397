"""Independent checks of kzero's printed results.

Nothing here imports kzero.  Every expected value is recomputed by the
benchmark's own route -- plain ``Fraction`` arithmetic, its own group
closure, face enumeration, orbit search and series expansion -- and the
printed text is evaluated at seeded rational points and compared with it.
Two polynomials that agree at two random rational points are taken as
equal; a wrong result that slips through would need to vanish at both.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import permutations

VARIABLES = ("x", "a", "y")

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()])")


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text!r} at {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def evaluate(text: str, point: dict[str, Fraction]) -> Fraction:
    """Value of a polynomial expression (+ - * / ^, parentheses) at ``point``."""
    toks = _tokens(text)
    pos = 0

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(toks):
            raise ValueError(f"unexpected end of {text!r}")
        pos += 1
        return toks[pos - 1]

    def expr() -> Fraction:
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term() -> Fraction:
        value = unary()
        while peek() in ("*", "/"):
            value = value * unary() if take() == "*" else value / unary()
        return value

    def unary() -> Fraction:
        if peek() in ("+", "-"):
            return unary() if take() == "+" else -unary()
        base = atom()
        if peek() == "^":
            take()
            base = base ** int(take())
        return base

    def atom() -> Fraction:
        tok = take()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return value
        if tok.isdigit():
            return Fraction(int(tok))
        if tok in point:
            return point[tok]
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    value = expr()
    if pos != len(toks):
        raise ValueError(f"trailing text in {text!r}")
    return value


def _split_top(text: str) -> list[tuple[int, str]]:
    """Split at depth-0 ' + ' / ' - ' into (sign, term) pairs."""
    parts: list[tuple[int, str]] = []
    sign, start, depth, i = 1, 0, 0, 0
    if text.startswith("-"):
        sign, start, i = -1, 1, 1
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith((" + ", " - "), i):
            parts.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            i += 3
            start = i
            continue
        i += 1
    parts.append((sign, text[start:]))
    return parts


_SERIES_POWER = re.compile(r"(.*)\*x(?:\^(\d+))?\Z")
_ORDER = re.compile(r"O\(x\^(\d+)\)\Z")


def parse_series(text: str) -> tuple[dict[int, tuple[int, str]], int]:
    """Printed series -> ({power: (sign, coefficient text)}, order).

    The counting variable is printed as ``x`` like the class variable, so a
    term is read from its last factor: ``(c)*x^k``, ``c*x^k``, ``x^k`` or,
    for the first term only, a bare constant at power 0.
    """
    terms = _split_top(text.strip())
    m = _ORDER.match(terms[-1][1])
    if m is None:
        raise ValueError(f"series without O(x^N) tail: {text!r}")
    order = int(m.group(1)) - 1
    coeffs: dict[int, tuple[int, str]] = {}
    last = -1
    for index, (sign, t) in enumerate(terms[:-1]):
        if t.startswith("(") and t.endswith(")"):
            k, coeff = 0, t[1:-1]
        elif t.startswith("("):
            close = t.rindex(")")
            coeff, rest = t[1:close], t[close + 1:]
            k = 1 if rest == "*x" else int(rest[len("*x^"):])
        elif index == 0 and not re.search(r"[A-Za-z]", t):
            k, coeff = 0, t
        elif t == "x" or t.startswith("x^") and t[2:].isdigit():
            k, coeff = (1 if t == "x" else int(t[2:])), "1"
        else:
            pm = _SERIES_POWER.match(t)
            if pm is None:
                raise ValueError(f"cannot read series term {t!r}")
            coeff, k = pm.group(1), int(pm.group(2) or 1)
        if k <= last or k > order:
            raise ValueError(f"series powers out of order in {text!r}")
        last = k
        coeffs[k] = (sign, coeff)
    return coeffs, order


def series_values(text: str, point: dict[str, Fraction]) -> tuple[list[Fraction], int]:
    coeffs, order = parse_series(text)
    values = [Fraction(0)] * (order + 1)
    for k, (sign, coeff) in coeffs.items():
        values[k] = sign * evaluate(coeff, point)
    return values, order


# -- closed forms -------------------------------------------------------------


def gbinom(q: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient q(q-1)...(q-k+1)/k!."""
    out = Fraction(1)
    for i in range(k):
        out *= q - i
    return out / math.factorial(k)


def sym_series(q: Fraction, order: int) -> list[Fraction]:
    """Coefficients of (1 - t)^(-q)."""
    return [gbinom(q + k - 1, k) for k in range(order + 1)]


def binom_series(q: Fraction, power: int, order: int) -> list[Fraction]:
    """Coefficients of (1 - t^power)^q."""
    out = [Fraction(0)] * (order + 1)
    for j in range(order // power + 1):
        out[power * j] = (-1) ** j * gbinom(q, j)
    return out


def series_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


def zero_cycle_series(m: int, n: int, q: Fraction, order: int) -> list[Fraction]:
    """(1 - t^(mn))^q (1 - t)^(-mq)."""
    return series_mul(binom_series(q, m * n, order), sym_series(m * q, order))


# -- groups -------------------------------------------------------------------


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p * q)(i) = p(q(i)) on 0-based image tuples."""
    return tuple(p[j] for j in q)


def closure(gens: list[tuple[int, ...]], degree: int) -> set[tuple[int, ...]]:
    identity = tuple(range(degree))
    group = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for s in gens:
                h = compose(s, g)
                if h not in group:
                    group.add(h)
                    fresh.append(h)
        frontier = fresh
    return group


def cycle_count(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            while not seen[i]:
                seen[i] = True
                i = p[i]
    return count


def burnside_value(group: set[tuple[int, ...]], q: Fraction) -> Fraction:
    """(1/|G|) sum over g of q^(cycles of g)."""
    return sum((q ** cycle_count(g) for g in group), Fraction(0)) / len(group)


def cycles_text(p: tuple[int, ...]) -> str:
    """Cycle notation on 1..n, fixed points omitted, '()' for the identity."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        while not seen[i]:
            seen[i] = True
            cyc.append(str(i + 1))
            i = p[i]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def orbits(size: int, maps: list[list[int]]) -> list[list[int]]:
    """Orbits of 0..size-1 under the given index maps, each sorted."""
    parent = list(range(size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for f in maps:
        for i, j in enumerate(f):
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(size):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


# -- complexes ----------------------------------------------------------------


def face_sizes(facets: list[tuple[int, ...]]) -> dict[int, int]:
    """Faces of the complex generated by ``facets``, empty face included, counted by size."""
    faces: set[int] = set()
    for f in facets:
        mask = 0
        for v in f:
            mask |= 1 << v
        sub = mask
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
    counts: dict[int, int] = {}
    for s in faces:
        k = bin(s).count("1")
        counts[k] = counts.get(k, 0) + 1
    return counts


def maximal(facets: list[tuple[int, ...]]) -> set[int]:
    """The inclusion-maximal facets, as vertex bitmasks."""
    masks = {sum(1 << v for v in f) for f in facets}
    return {m for m in masks if not any(m != o and m & o == m for o in masks)}


def meet_closure_size(facets: list[tuple[int, ...]]) -> int:
    """Number of distinct vertex sets in the closure of the maximal facets under intersection."""
    maximal_masks = maximal(facets)
    closed = set(maximal_masks)
    frontier = list(maximal_masks)
    while frontier:
        fresh = []
        for s in frontier:
            for t in maximal_masks:
                meet = s & t
                if meet not in closed:
                    closed.add(meet)
                    fresh.append(meet)
        frontier = fresh
    return len(closed)


def polyprod_value(n: int, sizes: dict[int, int], x: Fraction, a: Fraction) -> Fraction:
    return sum((c * (x - a) ** k * a ** (n - k) for k, c in sizes.items()), Fraction(0))


def config_value(sizes: dict[int, int], x: Fraction) -> Fraction:
    return x * sum((c * (x - 1) ** k for k, c in sizes.items()), Fraction(0))


def det(rows: list[list[Fraction]]) -> Fraction:
    """Leibniz expansion: a different algorithm from elimination, fine for n <= 4."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total
