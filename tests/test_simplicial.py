"""Complexes: facet normalization, skeleta, the text format, disjoint unions."""

import random
from itertools import combinations

import pytest

from kzero.simplicial import (
    ComplexFormatError,
    SimplicialComplex,
    VertexOutOfRangeError,
    disjoint_union,
    full_simplex,
)
from util import brute_force_facets, facet_list_cases, random_complex


def test_facets_are_filtered_to_maximal_faces():
    K = SimplicialComplex(4, [[1, 2, 3], [1, 2], [3], [3, 4], [4, 3]])
    assert K.facets == ((3, 4), (1, 2, 3))
    assert K.dim == 2


def test_facet_filter_matches_brute_force():
    for n, faces in facet_list_cases():
        assert SimplicialComplex(n, faces).facets == brute_force_facets(faces)


@pytest.mark.parametrize("n, d", [(8, 2), (9, 3)])
def test_skeleton_facets_match_brute_force(n, d):
    faces = [list(f) for f in combinations(range(1, n + 1), d + 1)]
    assert full_simplex(n).skeleton(d).facets == brute_force_facets(faces)


def test_vertices_deduplicated_and_sorted_within_a_face():
    K = SimplicialComplex(3, [[3, 1, 3, 2]])
    assert K.facets == ((1, 2, 3),)


def test_empty_complex_versus_empty_simplex_only():
    none_at_all = SimplicialComplex(3)
    only_empty = SimplicialComplex(3, [[]])
    assert none_at_all.is_empty()
    assert not only_empty.is_empty()
    assert none_at_all.dim == -1
    assert only_empty.dim == -1
    assert none_at_all != only_empty
    assert only_empty.all_faces() == [()]
    assert none_at_all.all_faces() == []


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexOutOfRangeError):
        SimplicialComplex(3, [[1, 4]])
    with pytest.raises(VertexOutOfRangeError):
        SimplicialComplex(3, [[0, 1]])


def test_all_faces_of_a_triangle():
    K = full_simplex(3)
    assert K.all_faces() == [
        (), (1,), (2,), (3,),
        (1, 2), (1, 3), (2, 3),
        (1, 2, 3),
    ]
    assert K.face_count_by_size() == {0: 1, 1: 3, 2: 3, 3: 1}


def test_containment():
    K = SimplicialComplex(4, [[1, 2, 3], [3, 4]])
    assert [1, 2] in K
    assert [2, 1] in K
    assert [] in K
    assert [4] in K
    assert [1, 4] not in K


def test_skeleton_dimensions():
    K = full_simplex(4)
    assert K.skeleton(3) == K
    assert K.skeleton(1) == SimplicialComplex(
        4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    )
    assert K.skeleton(0) == SimplicialComplex(4, [[1], [2], [3], [4]])
    assert K.skeleton(-1) == SimplicialComplex(4, [[]])
    assert SimplicialComplex(3).skeleton(1) == SimplicialComplex(3)
    with pytest.raises(ValueError):
        K.skeleton(-2)


def test_skeleton_face_counts_match_binomials():
    # the d-skeleton of the full (n-1)-simplex has C(n, k) faces of size k <= d+1
    import math
    for n in range(1, 7):
        for d in range(-1, n):
            counts = full_simplex(n).skeleton(d).face_count_by_size()
            for k in range(0, d + 2):
                assert counts.get(k, 0) == math.comb(n, k)
            assert all(k <= d + 1 for k in counts)


def test_skeleton_of_empty_complex_stays_empty():
    K = SimplicialComplex(5)
    assert K.skeleton(2).is_empty()


def test_random_skeleton_is_monotone_and_idempotent():
    rng = random.Random(20250819)
    for _ in range(200):
        K = random_complex(rng)
        d = rng.randint(-1, max(K.dim, 0))
        S = K.skeleton(d)
        assert S.dim <= d
        assert S.skeleton(d) == S
        for f in S.all_faces():
            assert f in K or f == ()


def test_text_round_trip():
    rng = random.Random(41)
    for _ in range(200):
        K = random_complex(rng)
        assert SimplicialComplex.from_text(K.to_text()) == K


def test_text_format_comments_and_blanks():
    text = """
    # a square boundary
    n=4
    1,2
    2,3   # one edge
    3,4
    1,4
    """
    K = SimplicialComplex.from_text(text)
    assert K.facets == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_text_format_errors():
    with pytest.raises(ComplexFormatError):
        SimplicialComplex.from_text("1,2\n")
    with pytest.raises(ComplexFormatError):
        SimplicialComplex.from_text("n=abc\n")
    with pytest.raises(ComplexFormatError):
        SimplicialComplex.from_text("n=3\n1,x\n")
    with pytest.raises(ComplexFormatError):
        SimplicialComplex.from_text("n=3\n1,5\n")
    with pytest.raises(ComplexFormatError):
        SimplicialComplex.from_text("")


def test_empty_simplex_only_complex_has_no_file_form():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [[]]).to_text()


def test_disjoint_union_spans_and_membership():
    edge = SimplicialComplex(2, [[1, 2]])
    point = SimplicialComplex(1, [[1]])
    U = disjoint_union([edge, point, edge])
    assert U.complex.n == 5
    assert U.complex.facets == ((3,), (1, 2), (4, 5))
    assert U.spans == ((1, 2), (3, 3), (4, 5))
    assert U.component_of(2) == 0
    assert U.component_of(3) == 1
    assert U.component_of(5) == 2
    with pytest.raises(ValueError):
        U.component_of(6)


def test_disjoint_union_face_counts_add():
    rng = random.Random(99)
    for _ in range(100):
        parts = [random_complex(rng) for _ in range(rng.randint(2, 4))]
        U = disjoint_union(parts)
        merged: dict[int, int] = {}
        for K in parts:
            for size, c in K.face_count_by_size().items():
                merged[size] = merged.get(size, 0) + c
        if merged.get(0):
            merged[0] = 1  # the empty face is shared
        assert U.complex.face_count_by_size() == merged


def test_replace_and_make_go_through_the_constructor():
    K = SimplicialComplex(2, [(1, 2)])
    with pytest.raises(VertexOutOfRangeError):
        K._replace(n=1)
    assert K._replace(facets=[(1,), (1, 2)]).facets == ((1, 2),)
    assert SimplicialComplex._make((3, [(3,), (1,), (1, 2)])) == SimplicialComplex(3, [(1, 2), (3,)])
    with pytest.raises(VertexOutOfRangeError):
        SimplicialComplex._make((1, [(2,)]))


def test_a_complex_is_its_vertex_count_and_facets():
    K = SimplicialComplex(4, [[3, 4], [1, 2, 3], [2, 3]])
    n, facets = K
    assert (n, facets) == (K.n, K.facets) == (4, ((3, 4), (1, 2, 3)))
    assert hash(K) == hash((4, ((3, 4), (1, 2, 3))))
