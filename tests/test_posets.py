"""Intersection posets: closure, Möbius recursion, inclusion-exclusion."""

import random

import pytest

from kzero.classpoly import ClassPoly
from kzero.posets import EmptyComplexError, inclusion_exclusion, intersection_poset
from kzero.simplicial import SimplicialComplex, full_simplex
from util import brute_force_poset, facet_list_cases, random_complex, strictly_below

SKELETA = [(8, 2), (9, 3)]


def oracle_complexes() -> list[SimplicialComplex]:
    return [SimplicialComplex(n, faces) for n, faces in facet_list_cases()] + [
        full_simplex(n).skeleton(d) for n, d in SKELETA
    ]


def test_three_facet_example_mobius_values():
    K = SimplicialComplex(5, [[1, 2, 3], [3, 4], [3, 5]])
    P = intersection_poset(K)
    values = {n.label(): n.mobius for n in P.nodes}
    assert values == {
        "ambient": 1,
        "{1,2,3}": -1,
        "{3,4}": -1,
        "{3,5}": -1,
        "{3}": 2,
    }


def test_render_is_aligned_and_deterministic():
    K = SimplicialComplex(5, [[1, 2, 3], [3, 4], [3, 5]])
    assert intersection_poset(K).render() == (
        "ambient  mu=1\n"
        "{1,2,3}  mu=-1\n"
        "{3,4}    mu=-1\n"
        "{3,5}    mu=-1\n"
        "{3}      mu=2"
    )


def test_single_facet_poset():
    P = intersection_poset(SimplicialComplex(3, [[1, 2]]))
    assert [n.label() for n in P.nodes] == ["ambient", "{1,2}"]
    assert [n.mobius for n in P.nodes] == [1, -1]


def test_disjoint_facets_meet_in_the_empty_set():
    P = intersection_poset(SimplicialComplex(3, [[1], [2], [3]]))
    values = {n.label(): n.mobius for n in P.nodes}
    assert values == {"ambient": 1, "{1}": -1, "{2}": -1, "{3}": -1, "{}": 2}


def test_empty_complex_rejected():
    with pytest.raises(EmptyComplexError):
        intersection_poset(SimplicialComplex(4))


def test_nodes_closed_under_pairwise_intersection():
    rng = random.Random(7)
    for _ in range(200):
        K = random_complex(rng)
        P = intersection_poset(K)
        sets = {frozenset(n.vertex_set) for n in P.nodes if n.vertex_set is not None}
        assert {frozenset(f) for f in K.facets} <= sets
        for a in sets:
            for b in sets:
                assert a & b in sets


def test_mobius_recursion_sums_to_zero_above_bottom():
    # sum of mu over the weak down-set of any non-bottom node vanishes
    rng = random.Random(8)
    for _ in range(200):
        P = intersection_poset(random_complex(rng))
        for x in P.nodes[1:]:
            total = x.mobius
            for y in P.nodes:
                if strictly_below(y, x):
                    total += y.mobius
            assert total == 0


def test_strictly_below_is_reverse_inclusion_with_bottom_least():
    P = intersection_poset(SimplicialComplex(4, [[1, 2, 3], [2, 3, 4]]))
    by_label = {n.label(): n for n in P.nodes}
    bottom = by_label["ambient"]
    big = by_label["{1,2,3}"]
    small = by_label["{2,3}"]
    assert strictly_below(bottom, big)
    assert strictly_below(big, small)
    assert not strictly_below(small, big)
    assert not strictly_below(big, big)
    assert not strictly_below(big, bottom)


def test_inclusion_exclusion_counts_complement_of_a_union():
    # finite-set model: each facet is a subset of {1..n}; the signed sum of
    # subset sizes over the poset equals |{1..n} minus the union of facets|
    rng = random.Random(9)
    for _ in range(300):
        K = random_complex(rng)
        P = intersection_poset(K)
        covered = set()
        for f in K.facets:
            covered.update(f)
        expected = K.n - len(covered)
        got = inclusion_exclusion(
            P,
            lambda s: ClassPoly.const(len(s)),
            ClassPoly.const(K.n),
        )
        assert got == ClassPoly.const(expected)


def test_poset_matches_brute_force():
    for K in oracle_complexes():
        P, expected = intersection_poset(K), brute_force_poset(K)
        assert P.nodes == expected.nodes
        assert P.render() == expected.render()


def test_inclusion_exclusion_by_size_matches_the_per_node_sum():
    x, a = ClassPoly.var("x"), ClassPoly.var("a")
    for K in oracle_complexes():
        P = intersection_poset(K)
        strata = (
            lambda vs: x ** len(vs) * a ** (K.n - len(vs)),
            lambda vs: x ** (len(vs) + 1),
        )
        for class_of in strata:
            expected = ClassPoly.zero()
            for node in brute_force_poset(K).nodes:
                piece = x ** K.n if node.vertex_set is None else class_of(node.vertex_set)
                expected = expected + node.mobius * piece
            assert inclusion_exclusion(P, class_of, x ** K.n) == expected
