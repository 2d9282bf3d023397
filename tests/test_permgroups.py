"""Permutations, finite permutation groups, and quotient-of-power classes."""

import math
import random
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzero import permgroups
from kzero.classpoly import ClassPoly
from kzero.permgroups import OrderCapExceededError, PermGroup, PermParseError, Permutation, parse_group_text
from kzero.products import (
    burnside_quotient_class,
    cyclic_product_class,
    permutation_product_class,
    symmetric_product_class,
)
from util import (
    brute_force_conjugacy_classes,
    brute_force_coset_chi,
    centralizer,
    closure_elements,
    coset_chi,
    count_coloring_orbits,
    cycle_type_quotient_class,
    cycle_type_quotient_classes,
    gcd_count_cyclic_product_class,
    left_cosets,
    named_generators,
    partitions_with_weights,
    permutation_of_cycle_type,
    random_subgroup,
    regex_from_cycles,
)

X = ClassPoly.var("x")


# -- permutations -------------------------------------------------------------


def test_cycle_notation_round_trip():
    p = Permutation.from_cycles("(1 2)(3 4)", 5)
    assert p == Permutation([2, 1, 4, 3, 5])
    assert str(p) == "(1 2)(3 4)"
    assert str(Permutation.identity(4)) == "()"
    assert Permutation.from_cycles("()", 3) == Permutation.identity(3)
    assert Permutation.from_cycles("(2, 3, 1)", 3) == Permutation([2, 3, 1])


def cycles_outcome(read, text: str):
    try:
        return read(text, 9)
    except PermParseError as e:
        return str(e)


CYCLE_TEXT = st.text(st.sampled_from([*"\u0663\uff13\u00a0\u2003\u00e9", *"123456789 ,\t()"]), max_size=8)
"""Cycle bodies and stray text over entries, separators, parentheses, two digits that
``int`` reads but are not ASCII, two Unicode spaces and a non-ASCII letter."""


@given(st.lists(CYCLE_TEXT.map("({})".format) | CYCLE_TEXT | st.characters(max_codepoint=127), max_size=4).map("".join))
@settings(max_examples=500, deadline=None)
def test_the_cycle_scan_reads_as_the_regular_expressions(text):
    assert cycles_outcome(Permutation.from_cycles, text) == cycles_outcome(regex_from_cycles, text)


def test_composition_applies_right_factor_first():
    p = Permutation.from_cycles("(1 2)", 3)
    q = Permutation.from_cycles("(2 3)", 3)
    assert (p * q)(2) == p(q(2)) == 3
    assert str(p * q) == "(1 2 3)"
    assert str(q * p) == "(1 3 2)"


def test_inverse_and_identity():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 7)
        p = Permutation(rng.sample(range(1, n + 1), n))
        assert p * p.inverse() == Permutation.identity(n)
        assert p.inverse() * p == Permutation.identity(n)


def test_cycle_type_and_count():
    p = Permutation.from_cycles("(1 2 3)(4 5)", 6)
    assert p.cycle_type() == (3, 2, 1)
    assert p.cycle_count() == 3
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)
    assert Permutation.identity(4).cycle_count() == 4
    for n in range(1, 7):
        for g in PermGroup.symmetric(n):
            assert g.cycle_count() == len(g.cycle_type())


def test_cycle_parse_errors():
    with pytest.raises(PermParseError):
        Permutation.from_cycles("", 3)
    with pytest.raises(PermParseError):
        Permutation.from_cycles("(1 2) junk", 3)
    with pytest.raises(PermParseError):
        Permutation.from_cycles("(1 4)", 3)
    with pytest.raises(PermParseError):
        Permutation.from_cycles("(1 2)(2 3)", 3)
    with pytest.raises(PermParseError):
        Permutation.from_cycles("(1 a)", 3)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 2)", 2) * Permutation.from_cycles("(1 2)", 3)


# -- groups -------------------------------------------------------------------


def test_generate_closes_under_composition():
    G = PermGroup.generate(3, [Permutation.from_cycles("(1 2)", 3),
                               Permutation.from_cycles("(1 2 3)", 3)])
    assert G.order == 6
    assert len(set(G.elements)) == 6
    for a in G:
        for b in G:
            assert a * b in G


def test_named_groups():
    assert PermGroup.trivial(4).order == 1
    assert PermGroup.cyclic(6).order == 6
    assert PermGroup.symmetric(4).order == 24
    assert PermGroup.cyclic(1).order == 1
    assert Permutation.from_cycles("(1 2 3 4 5 6)", 6) in PermGroup.cyclic(6)


def test_generation_cap(monkeypatch):
    monkeypatch.setattr(permgroups, "MAX_ORDER", 100)
    with pytest.raises(OrderCapExceededError):
        PermGroup.generate(6, PermGroup.symmetric(6).generators)


def test_the_image_cap_refuses_order_times_degree_past_it():
    # order times degree: S_8 is 322560 images, C_2000 is 4 * 10**6, at the cap
    assert PermGroup.symmetric(8).order * 8 <= permgroups.MAX_IMAGES
    assert PermGroup.cyclic(2000).order * 2000 == permgroups.MAX_IMAGES
    with pytest.raises(OrderCapExceededError, match="images"):
        PermGroup.cyclic(2001)


@st.composite
def generating_sets(draw):
    degree = draw(st.integers(1, 8))
    images = st.permutations(range(1, degree + 1)).map(Permutation)
    return degree, draw(st.lists(images, max_size=3))


@given(generating_sets())
@settings(max_examples=40, deadline=None)
def test_the_chain_gives_the_order_and_elements_of_the_closure(case):
    degree, gens = case
    G = PermGroup(degree, gens)
    expected = closure_elements(degree, gens)
    assert G.order == len(expected)
    assert G.elements == expected
    assert all(g in G for g in expected)


def test_a_long_orbit_builds_without_recursion():
    # the work list keeps the depth flat: a recursive chain fails on this 1000-point orbit
    start = time.perf_counter()
    G = PermGroup.cyclic(1000)
    assert G.order == 1000
    assert G.elements == closure_elements(1000, G.generators)
    assert time.perf_counter() - start < 2.0


def test_a_group_past_the_cap_is_refused_from_its_order(monkeypatch):
    # S_11 passes the cap inside the chain after a few hundred products, where listing
    # elements up to the cap would take one per element
    products = []
    multiply = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__", lambda p, q: products.append(1) or multiply(p, q))
    start = time.perf_counter()
    with pytest.raises(OrderCapExceededError):
        PermGroup.symmetric(11)
    assert time.perf_counter() - start < 2.0
    assert 0 < len(products) < 1000


def test_conjugacy_classes_partition_the_group():
    rng = random.Random(11)
    for _ in range(25):
        G = random_subgroup(rng, rng.randint(2, 5))
        classes = G.conjugacy_classes()
        members = [g for _, cls in classes for g in cls]
        assert sorted(members) == list(G.elements)
        for rep, cls in classes:
            assert rep in cls
            # orbit-stabilizer: |class| * |centralizer| = |G|
            assert len(cls) * len(centralizer(G, rep)) == G.order
            assert centralizer(G, rep) == tuple(h for h in G if h * rep == rep * h)


def test_conjugacy_classes_match_conjugating_by_every_element():
    rng = random.Random(13)
    groups = [random_subgroup(rng, rng.randint(1, 6)) for _ in range(40)]
    groups += [PermGroup.symmetric(n) for n in range(1, 7)]
    for G in groups:
        assert G.conjugacy_classes() == brute_force_conjugacy_classes(G), G.generators


@given(st.randoms(use_true_random=False), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_membership_is_membership_in_the_closure(rng, n):
    G = random_subgroup(rng, n)
    members = set(closure_elements(n, G.generators))
    probes = [Permutation(rng.sample(range(1, m + 1), m)) for m in (n - 1, n, n, n + 1) if m for _ in range(4)]
    probes += [Permutation.identity(n + 1), *members]
    assert {g: g in G for g in probes} == {g: g in members for g in probes}


def test_listing_keeps_order_and_elements():
    rng = random.Random(23)
    groups = [random_subgroup(rng, rng.randint(1, 7)) for _ in range(30)]
    groups += [PermGroup(n, named_generators(kind, n)) for kind in "SACD" for n in range(3, 8)]
    for G in groups:
        order = G.order  # read off the chain
        elements = G.elements  # listed, and the chain dropped
        assert G.order == len(elements) == order and G.elements is elements
        assert elements == closure_elements(G.degree, G.generators)
        listed_by_in = PermGroup(G.degree, G.generators)
        assert elements[-1] in listed_by_in
        assert (listed_by_in.order, listed_by_in.elements) == (order, elements)


def test_a_listed_group_holds_its_list_and_not_its_chain():
    # the chain of D_500 holds 500 permutations of degree 500 beside the list's 1000
    gens = named_generators("D", 500)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        G = PermGroup(500, gens)
        elements = G.elements
        held = tracemalloc.get_traced_memory()[0] - base
        del G
        alone = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(elements) == 1000
    assert held < 1.05 * alone, (held, alone)


def test_the_class_walk_gives_each_centralizer_by_schreier_generators():
    rng = random.Random(17)
    groups = [random_subgroup(rng, rng.randint(1, 6)) for _ in range(30)]
    groups += [PermGroup.symmetric(n) for n in range(1, 6)] + [PermGroup.cyclic(9)]
    for G in groups:
        walks = list(G.class_walk())
        assert [(members[0], tuple(sorted(members))) for members, _ in walks] == G.conjugacy_classes()
        for members, centralizing in walks:
            assert members[0] == min(members)
            assert PermGroup(G.degree, sorted(centralizing)).elements == centralizer(G, members[0])


def test_symmetric_group_class_equation():
    sizes = sorted(len(cls) for _, cls in PermGroup.symmetric(4).conjugacy_classes())
    assert sizes == [1, 3, 6, 6, 8]


def test_group_file_format():
    G = parse_group_text("""
    # Klein four-group inside S_4
    degree=4
    gen (1 2)(3 4)
    gen (1 3)(2 4)
    """)
    assert G.order == 4
    assert G.degree == 4
    from kzero.errors import InputSyntaxError
    with pytest.raises(InputSyntaxError):
        parse_group_text("gen (1 2)\n")
    with pytest.raises(InputSyntaxError):
        parse_group_text("degree=0\n")
    with pytest.raises(InputSyntaxError):
        parse_group_text("degree=3\n(1 2)\n")
    with pytest.raises(InputSyntaxError):
        parse_group_text("# nothing\n")


# -- partitions ---------------------------------------------------------------


def test_partition_weights_for_n4():
    got = partitions_with_weights(4)
    assert got == [
        ((4,), 6),
        ((3, 1), 8),
        ((2, 2), 3),
        ((2, 1, 1), 6),
        ((1, 1, 1, 1), 1),
    ]


def test_partition_weights_sum_to_factorial():
    for n in range(1, 9):
        assert sum(w for _, w in partitions_with_weights(n)) == math.factorial(n)


def test_partition_weights_count_cycle_types():
    for n in range(1, 6):
        by_type: dict[tuple[int, ...], int] = {}
        for g in PermGroup.symmetric(n):
            t = g.cycle_type()
            by_type[t] = by_type.get(t, 0) + 1
        assert dict(partitions_with_weights(n)) == by_type


def test_permutation_of_cycle_type():
    for lam in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        assert permutation_of_cycle_type(lam).cycle_type() == lam


# -- coset fixed-point counts -------------------------------------------------


def test_coset_chi_alternating_in_s3():
    A3 = PermGroup.generate(3, [Permutation.from_cycles("(1 2 3)", 3)])
    assert coset_chi(A3, Permutation.identity(3)) == 2
    assert coset_chi(A3, Permutation.from_cycles("(1 2 3)", 3)) == 2
    assert coset_chi(A3, Permutation.from_cycles("(1 2)", 3)) == 0


def test_coset_chi_counts_fixed_cosets_directly():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 5)
        G = random_subgroup(rng, n)
        S = PermGroup.symmetric(n)
        cosets = left_cosets(S, list(G.elements))
        sigma = rng.choice(S.elements)
        fixed = sum(
            1 for members in cosets
            if frozenset(sigma * t for t in members) == members
        )
        assert coset_chi(G, sigma) == fixed


def test_coset_chi_matches_brute_force_on_every_cycle_type():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 6)
        G = random_subgroup(rng, n)
        for lam, _ in partitions_with_weights(n):
            sigma = permutation_of_cycle_type(lam)
            assert coset_chi(G, sigma) == brute_force_coset_chi(G, sigma)


def test_coset_chi_on_degree_nine():
    # no degree cap: the cost is |G|, here 9, and chi = z_lambda * |G meet C_lambda| / |G|
    G = PermGroup.cyclic(9)
    assert coset_chi(G, Permutation.identity(9)) == 40320
    assert coset_chi(G, Permutation.from_cycles("(1 2 3 4 5 6 7 8 9)", 9)) == 6


# -- quotient classes ---------------------------------------------------------


def test_cyclic_product_of_order_four():
    got = cyclic_product_class(4, X)
    assert str(got) == "1/4*x^4 + 1/4*x^2 + 1/2*x"
    assert got == burnside_quotient_class(PermGroup.cyclic(4), X)
    assert got == permutation_product_class(PermGroup.cyclic(4), X)


def test_conjugate_subgroups_can_differ_as_quotients():
    # both are order-2 subgroups of S_4, but embed differently
    g1 = PermGroup.generate(4, [Permutation.from_cycles("(1 2)", 4)])
    g2 = PermGroup.generate(4, [Permutation.from_cycles("(1 2)(3 4)", 4)])
    assert burnside_quotient_class(g1, X) == (X ** 4 + X ** 3) / 2
    assert burnside_quotient_class(g2, X) == (X ** 4 + X ** 2) / 2
    assert permutation_product_class(g1, X) == (X ** 4 + X ** 3) / 2
    assert permutation_product_class(g2, X) == (X ** 4 + X ** 2) / 2


def test_permutation_product_matches_burnside_on_random_subgroups():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 6)
        G = random_subgroup(rng, n)
        p = permutation_product_class(G, X)
        for c in (2, 3):
            assert p.evaluate({"x": c}) == count_coloring_orbits(G, c), G.generators


def test_permutation_product_matches_the_cycle_type_sum_over_coset_counts():
    rng = random.Random(37)
    for _ in range(25):
        G = random_subgroup(rng, rng.randint(1, 6))
        assert permutation_product_class(G, X) == cycle_type_quotient_class(G, X), G.generators


def test_burnside_counts_orbits_on_finite_models():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 4)
        G = random_subgroup(rng, n)
        p = burnside_quotient_class(G, X)
        for c in range(0, 4):
            tuples = set(product(range(c), repeat=n))
            orbits = 0
            while tuples:
                t = tuples.pop()
                orbits += 1
                for g in G:
                    tuples.discard(tuple(t[g(i) - 1] for i in range(1, n + 1)))
            assert p.evaluate({"x": c}) == orbits


def test_burnside_is_integral_at_integers():
    rng = random.Random(51)
    for _ in range(60):
        G = random_subgroup(rng, rng.randint(2, 5))
        p = burnside_quotient_class(G, X)
        for c in range(-5, 6):
            assert p.evaluate({"x": c}).denominator == 1


def test_symmetric_product_is_multiset_count():
    for d in range(0, 7):
        p = symmetric_product_class(X, d)
        if d >= 1:
            assert p == burnside_quotient_class(PermGroup.symmetric(d), X)
        for c in range(0, 6):
            expected = 1 if d == 0 else math.comb(c + d - 1, d)
            assert p.evaluate({"x": c}) == expected
    assert str(symmetric_product_class(X, 2)) == "1/2*x^2 + 1/2*x"


def test_cyclic_product_matches_the_gcd_count():
    for n in range(1, 61):
        assert cyclic_product_class(n, X) == gcd_count_cyclic_product_class(n, X), n


def test_cyclic_product_matches_burnside():
    for n in range(1, 9):
        assert cyclic_product_class(n, X) == burnside_quotient_class(PermGroup.cyclic(n), X)


def test_quotient_classes_accept_polynomial_inputs():
    y = ClassPoly.var("y")
    fiber = y ** 2 + 1
    assert burnside_quotient_class(PermGroup.cyclic(2), fiber) == (fiber ** 2 + fiber) / 2
    assert permutation_product_class(PermGroup.symmetric(2), 2) == ClassPoly.const(3)


def alternating_pair(n: int) -> list[Permutation]:
    """(1 2 3) and an n-cycle (n odd) or an (n-1)-cycle fixing 1 (n even), which generate A_n."""
    rotated = list(range(1, n + 1)) if n % 2 else list(range(2, n + 1))
    cycle = "(" + " ".join(map(str, rotated)) + ")"
    return [Permutation.from_cycles("(1 2 3)", n), Permutation.from_cycles(cycle, n)]


def random_generating_pair(rng: random.Random, n: int, even: bool) -> list[Permutation]:
    """Two random permutations (both even if ``even``) that generate S_n, or A_n if ``even``."""
    target = math.factorial(n) // (2 if even else 1)
    for _ in range(100):  # most pairs generate, so a wrong order fails here, not in a loop
        pair = []
        while len(pair) < 2:
            p = Permutation(rng.sample(range(1, n + 1), n))
            if not even or (n - p.cycle_count()) % 2 == 0:
                pair.append(p)
        if PermGroup(n, pair).order == target:
            return pair
    pytest.fail(f"no random pair of degree {n} generated a group of order {target}")


def symmetric_and_alternating_generating_sets(n: int) -> list[tuple[str, list[Permutation]]]:
    """Generating sets of S_n and A_n: the standard pair, a random pair, and the standard pair
    with a repeated generator and the identity."""
    rng = random.Random(100 + n)
    standard = {"S": list(PermGroup.symmetric(n).generators)}
    if n >= 3:
        standard["A"] = alternating_pair(n)
    sets = []
    for kind, pair in standard.items():
        sets.append((kind, pair))
        if n >= 3:
            sets.append((kind, random_generating_pair(rng, n, kind == "A")))
        sets.append((kind, pair + pair[:1] + [Permutation.identity(n)]))
    if n == 2:
        sets.append(("A", [Permutation.identity(2)]))  # A_2 is trivial
    return sets


CLASS_ARGUMENTS = [X, X + 3, 2 * X - ClassPoly.var("a"), X / 2 + ClassPoly.var("y")]


@pytest.mark.parametrize("n", range(1, 9))
def test_the_symmetric_and_alternating_closed_forms_match_the_element_sum(n):
    oracle = {}
    for kind, gens in symmetric_and_alternating_generating_sets(n):
        G = PermGroup(n, gens)
        # the order names the group, so every generating set of a kind shares one oracle;
        # it enumerates S_n once per cycle type, about 9 s at degree 8, so it stops at 7
        assert G.order == math.factorial(n) // (2 if kind == "A" else 1), gens
        if kind not in oracle and n <= 7:
            oracle[kind] = cycle_type_quotient_classes(G, CLASS_ARGUMENTS)
        for i, p in enumerate(CLASS_ARGUMENTS):
            got = permutation_product_class(G, p)
            expected = burnside_quotient_class(G, p)
            assert got == expected and str(got) == str(expected), (kind, gens, p)
            if kind in oracle:
                assert got == oracle[kind][i] and str(got) == str(oracle[kind][i]), (kind, gens, p)


def test_the_closed_forms_for_s7_and_a7_walk_no_element(monkeypatch):
    groups = [PermGroup.symmetric(7), PermGroup(7, alternating_pair(7))]
    expected = [str(burnside_quotient_class(G, X + 3)) for G in groups]
    monkeypatch.setattr(Permutation, "cycle_count", lambda self: pytest.fail("an element was walked"))
    assert [str(permutation_product_class(G, X + 3)) for G in groups] == expected


def test_a_permutation_is_its_images():
    p = Permutation([2, 3, 1])
    assert len(p) == p.degree == 3
    assert tuple(p) == (2, 3, 1) and p[0] == p(1) == 2
    assert hash(p) == hash((2, 3, 1))
    assert sorted([p, Permutation([1, 3, 2]), Permutation.identity(3)]) == [
        Permutation.identity(3), Permutation([1, 3, 2]), p
    ]
    assert p * p.inverse() == Permutation.identity(3)
    assert p.__mul__((1, 2, 3)) is NotImplemented
    with pytest.raises(ValueError):
        p * Permutation.identity(2)


def test_a_point_outside_one_to_n_is_refused():
    p = Permutation([2, 3, 1])
    assert [p(1), p(2), p(3)] == [2, 3, 1]
    for i in (0, -1, 4):
        with pytest.raises(ValueError, match=f"point {i} outside 1..3"):
            p(i)
