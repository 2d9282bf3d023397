"""Polyhedral products, fat wedges, diagonal arrangements and their complements.

Numeric cross-checks model a space of class c as a c-point set and count
tuples directly; the polynomial formulas must reproduce those counts at
every small integer evaluation.
"""

import random

import pytest

from kzero.classpoly import ClassPoly, PolyTooLargeError, parse_poly
from kzero.errors import DOutOfRangeError
from kzero.polyhedral import (
    ComponentIsSingleSimplexError,
    DimensionConditionError,
    PolyPair,
    SingleSimplexError,
    TooFewComponentsError,
    chi_complement_manifold,
    delta_config_class,
    delta_config_class_disjoint,
    fat_wedge_as_polyhedral_product,
    fat_wedge_class,
    m_complement_class,
    polyhedral_product_class,
    polyhedral_product_complement_class,
    w_class,
)
from kzero.posets import inclusion_exclusion
from kzero.simplicial import SimplicialComplex, full_simplex
from util import (
    brute_force_poset,
    count_arrangement_points,
    count_polyhedral_product_points,
    disjoint_union,
    face_sum_polyhedral_product,
    facet_list_cases,
    random_complex,
    random_small_facet_complex,
)

X = ClassPoly.var("x")
A = ClassPoly.var("a")
PAIR = PolyPair(X, A)
EXAMPLE = SimplicialComplex(5, [[1, 2, 3], [3, 4], [3, 5]])


def test_example_product_class():
    assert str(polyhedral_product_class(EXAMPLE, PAIR)) == "x^3*a^2 + 2*x^2*a^3 - 2*x*a^4"


def test_example_complement_class():
    got = polyhedral_product_complement_class(EXAMPLE, PAIR)
    assert str(got) == "x^5 - x^3*a^2 - 2*x^2*a^3 + 2*x*a^4"


def test_product_plus_complement_is_ambient_power():
    rng = random.Random(123)
    for _ in range(200):
        K = random_complex(rng)
        total = polyhedral_product_class(K, PAIR) + polyhedral_product_complement_class(K, PAIR)
        assert total == X ** K.n


@pytest.mark.parametrize("x, a", [("x", "a"), ("2*x", "a+1"), ("x+1", "a")])
def test_product_matches_the_face_sum(x, a):
    # the complement is x^n minus the product, so the product needs its own oracle
    pair = PolyPair(parse_poly(x), parse_poly(a))
    complexes = [SimplicialComplex(n, faces) for n, faces in facet_list_cases()]
    complexes += [full_simplex(n).skeleton(d) for n in range(1, 9) for d in range(-1, n)]
    for K in complexes:
        assert polyhedral_product_class(K, pair) == face_sum_polyhedral_product(K, *pair), K


def test_complement_matches_inclusion_exclusion_over_the_poset():
    rng = random.Random(124)
    for _ in range(200):
        K = random_complex(rng)
        expected = inclusion_exclusion(
            brute_force_poset(K), lambda vs: X ** len(vs) * A ** (K.n - len(vs)), X ** K.n
        )
        assert polyhedral_product_complement_class(K, PAIR) == expected, K


def test_complement_refuses_as_inclusion_exclusion_over_the_poset_does():
    # With x = 2 and a = a^2 on 600 vertices, the stratum of a node of size j has degree
    # 2(600 - j), past the cap for j < 100; the poset route meets the largest node first.
    n, pair = 600, PolyPair(2, A ** 2)
    x, a = pair
    for facets in (
        [range(1, 151)],
        [range(1, 151), range(100, 301)],
        [range(1, 151), range(100, 301), range(400, 411)],
        [range(1, 11), range(11, 21)],
    ):
        K = SimplicialComplex(n, facets)
        outcomes = []
        for route in (
            lambda: polyhedral_product_complement_class(K, pair),
            lambda: inclusion_exclusion(
                brute_force_poset(K), lambda vs: x ** len(vs) * a ** (n - len(vs)), x ** n
            ),
        ):
            try:
                outcomes.append(str(route()))
            except PolyTooLargeError as e:
                outcomes.append(f"refused: {e}")
        assert outcomes[0] == outcomes[1], K


def test_product_counts_points_in_finite_models():
    rng = random.Random(321)
    for _ in range(60):
        K = random_complex(rng, n_max=5)
        for ca in range(0, 3):
            for cx in range(ca, 4):
                expected = count_polyhedral_product_points(K, cx, ca)
                got = polyhedral_product_class(K, PAIR).evaluate({"x": cx, "a": ca})
                assert got == expected, (K, cx, ca)


def test_product_over_degenerate_complexes():
    no_faces = SimplicialComplex(3)
    only_empty_face = SimplicialComplex(3, [[]])
    assert polyhedral_product_class(no_faces, PAIR) == A ** 3
    assert polyhedral_product_class(only_empty_face, PAIR) == A ** 3
    assert polyhedral_product_class(full_simplex(3), PAIR) == X ** 3


def test_product_over_no_faces_with_int_classes_is_a_class():
    got = polyhedral_product_class(SimplicialComplex(3), PolyPair(2, 1))
    assert isinstance(got, ClassPoly) and got == 1


def test_fat_wedge_small_cases():
    assert fat_wedge_class(4, 0) == ClassPoly.one()
    assert fat_wedge_class(4, 4) == X ** 4
    for n in range(1, 7):
        assert fat_wedge_class(n, 1) == n * X - (n - 1)


def test_fat_wedge_matches_skeleton_polyhedral_product():
    for n in range(1, 7):
        for d in range(0, n + 1):
            assert fat_wedge_class(n, d) == fat_wedge_as_polyhedral_product(n, d)


def test_fat_wedge_counts_points():
    # tuples with at most d coordinates away from a basepoint in a c-point set
    import math
    for n in range(1, 6):
        for d in range(0, n + 1):
            for c in range(1, 5):
                expected = sum(math.comb(n, j) * (c - 1) ** j for j in range(d + 1))
                assert fat_wedge_class(n, d).evaluate({"x": c}) == expected


def test_fat_wedge_range_errors():
    with pytest.raises(DOutOfRangeError):
        fat_wedge_class(3, 4)
    with pytest.raises(DOutOfRangeError):
        fat_wedge_class(3, -1)


def test_w_class_formula_and_counts():
    assert str(w_class(3)) == "x^3 - 2*x^2 + x"
    for n in range(1, 6):
        for c in range(0, 5):
            assert w_class(n).evaluate({"x": c}) == c * (c - 1) ** (n - 1)


def test_delta_config_line_graph():
    K = SimplicialComplex(5, [[1, 2], [2, 3], [3, 4], [4, 5]])
    assert str(delta_config_class(K)) == "4*x^3 - 3*x^2"


def test_delta_config_isolated_vertices():
    K = SimplicialComplex(3, [[1], [2], [3]])
    assert str(delta_config_class(K)) == "3*x^2 - 2*x"


def test_delta_config_counts_points():
    rng = random.Random(555)
    for _ in range(40):
        K = random_small_facet_complex(rng, n_max=7)
        p = delta_config_class(K)
        for c in range(0, 4):
            assert p.evaluate({"x": c}) == count_arrangement_points(K, c)


def test_delta_config_dimension_condition():
    with pytest.raises(DimensionConditionError):
        delta_config_class(SimplicialComplex(3, [[1, 2], [2, 3]]))


def test_m_complement_line_graph():
    K = SimplicialComplex(5, [[1, 2], [2, 3], [3, 4], [4, 5]])
    m = m_complement_class(K)
    assert str(m) == "x^5 - 4*x^3 + 3*x^2"
    assert m.evaluate({"x": 0}) == 0


def test_m_complement_isolated_vertices():
    for n in range(5, 8):
        K = SimplicialComplex(n, [[v] for v in range(1, n + 1)])
        m = m_complement_class(K)
        assert m == X ** n - n * X ** 2 + (n - 1) * X


def test_delta_plus_complement_is_ambient_power():
    rng = random.Random(777)
    for _ in range(150):
        K = random_small_facet_complex(rng)
        assert delta_config_class(K) + m_complement_class(K) == X ** K.n


def test_m_complement_matches_inclusion_exclusion_over_the_poset():
    rng = random.Random(778)
    for _ in range(150):
        K = random_small_facet_complex(rng)
        expected = inclusion_exclusion(brute_force_poset(K), lambda vs: X ** (len(vs) + 1), X ** K.n)
        assert m_complement_class(K) == expected, K


def test_m_complement_counts_points():
    rng = random.Random(888)
    for _ in range(30):
        K = random_small_facet_complex(rng, n_max=7)
        m = m_complement_class(K)
        for c in range(0, 4):
            assert m.evaluate({"x": c}) == c ** K.n - count_arrangement_points(K, c)


def test_m_complement_needs_two_facets():
    with pytest.raises(SingleSimplexError):
        m_complement_class(SimplicialComplex(5, [[1, 2]]))


def test_disjoint_arrangement_matches_direct_formula():
    rng = random.Random(999)
    for _ in range(60):
        parts = [random_small_facet_complex(rng, n_max=7) for _ in range(rng.randint(3, 4))]
        assert delta_config_class_disjoint(parts) == delta_config_class(disjoint_union(parts))


def test_disjoint_arrangement_errors():
    ok = SimplicialComplex(5, [[1], [2]])
    with pytest.raises(TooFewComponentsError):
        delta_config_class_disjoint([ok, ok])
    single = SimplicialComplex(5, [[1, 2]])
    with pytest.raises(ComponentIsSingleSimplexError):
        delta_config_class_disjoint([ok, ok, single])
    exhausting = SimplicialComplex(2, [[1, 2], [1]])
    with pytest.raises(ComponentIsSingleSimplexError):
        delta_config_class_disjoint([ok, ok, exhausting])


def test_manifold_complement_chi_line_graph():
    K = SimplicialComplex(5, [[1, 2], [2, 3], [3, 4], [4, 5]])
    assert chi_complement_manifold(K, chi=2, m_dim=2) == 12
    assert chi_complement_manifold(K, chi=0, m_dim=3) == 0


def test_manifold_complement_chi_matches_class_for_even_dim():
    rng = random.Random(1001)
    for _ in range(60):
        K = random_small_facet_complex(rng, n_max=7)
        m = m_complement_class(K)
        for chi in range(-3, 4):
            for m_dim in (0, 2, 4):
                assert chi_complement_manifold(K, chi, m_dim) == m.evaluate({"x": chi})


def test_manifold_complement_odd_dim_zero_chi_vanishes():
    rng = random.Random(1002)
    for _ in range(60):
        K = random_small_facet_complex(rng, n_max=7)
        for m_dim in (1, 3, 5):
            assert chi_complement_manifold(K, 0, m_dim) == 0
