"""Permutations, finite permutation groups, and quotient-of-power classes."""

import math
import random
from itertools import product

import pytest

from kzero import permgroups
from kzero.classpoly import ClassPoly
from kzero.permgroups import (
    OrderCapExceededError,
    PermGroup,
    PermParseError,
    Permutation,
    burnside_quotient_class,
    coset_chi,
    cyclic_product_class,
    parse_group_text,
    permutation_product_class,
    symmetric_product_class,
)
from util import (
    brute_force_conjugacy_classes,
    brute_force_coset_chi,
    count_coloring_orbits,
    cycle_type_quotient_class,
    gcd_count_cyclic_product_class,
    left_cosets,
    partitions_with_weights,
    permutation_of_cycle_type,
    random_subgroup,
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
            assert len(cls) * len(G.centralizer(rep)) == G.order
            assert G.centralizer(rep) == tuple(h for h in G if h * rep == rep * h)


def test_conjugacy_classes_match_conjugating_by_every_element():
    rng = random.Random(13)
    groups = [random_subgroup(rng, rng.randint(1, 6)) for _ in range(40)]
    groups += [PermGroup.symmetric(n) for n in range(1, 7)]
    for G in groups:
        assert G.conjugacy_classes() == brute_force_conjugacy_classes(G), G.generators


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
