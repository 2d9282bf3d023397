"""Complexes: facet normalization, skeleta, the text format, disjoint unions."""

import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzero import meets, simplicial
from kzero.meets import from_mask, meet_mobius, to_mask
from kzero.simplicial import ComplexFormatError, SimplicialComplex, VertexOutOfRangeError, full_simplex
from util import (
    all_faces,
    brute_force_facets,
    disjoint_union,
    facet_list_cases,
    horner_h_numbers,
    link_deletion_h_numbers,
    load_tool,
    random_complex,
)


def test_facets_are_filtered_to_maximal_faces():
    K = SimplicialComplex(4, [[1, 2, 3], [1, 2], [3], [3, 4], [4, 3]])
    assert K.facets == ((3, 4), (1, 2, 3))
    assert K.dim == 2


def test_facet_filter_matches_brute_force():
    for n, faces in facet_list_cases():
        assert SimplicialComplex(n, faces).facets == brute_force_facets(faces)


def test_shifting_every_label_shifts_the_meets_and_keeps_mu_and_h():
    shift = 10**7
    for n, faces in facet_list_cases():
        K = SimplicialComplex(n, faces)
        shifted = SimplicialComplex(n + shift, [[v + shift for v in f] for f in faces])
        want = [(tuple(v + shift for v in vs), mu) for vs, mu in meet_mobius(K.facets)]
        assert meet_mobius(shifted.facets) == want, (n, faces)
        assert shifted.h_numbers() == K.h_numbers(), (n, faces)


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
    assert all_faces(only_empty) == [()]
    assert all_faces(none_at_all) == []


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexOutOfRangeError):
        SimplicialComplex(3, [[1, 4]])
    with pytest.raises(VertexOutOfRangeError):
        SimplicialComplex(3, [[0, 1]])


def test_all_faces_of_a_triangle():
    K = full_simplex(3)
    assert all_faces(K) == [
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


def skeleton_cases() -> list[SimplicialComplex]:
    """Every skeleton of the full simplex on n <= 12 vertices, the empty simplex on 0 included."""
    skeleta = [full_simplex(n).skeleton(d) for n in range(1, 13) for d in range(-1, n)]
    return [SimplicialComplex(0, [[]]), *skeleta]


def face_count_cases() -> list[SimplicialComplex]:
    """``facet_list_cases()``, ``skeleton_cases()``, and single facets, some on more
    vertices than they hold."""
    cases = [SimplicialComplex(n, faces) for n, faces in facet_list_cases()] + skeleton_cases()
    cases += [SimplicialComplex(n, [range(1, size + 1)]) for n in (12, 14) for size in (0, 1, 5, 12)]
    return cases


def counted_faces(K: SimplicialComplex) -> dict[int, int]:
    counts = Counter(map(len, all_faces(K)))
    return {k: counts[k] for k in range(len(counts))}


H_ROUTES = {
    "h_numbers": SimplicialComplex.h_numbers,
    "h_by_faces": lambda K: meets.h_by_faces(K.facets),
    "h_by_mobius": lambda K: meets.h_by_mobius(meet_mobius(K.facets)),
}
"""Each route to the h-numbers of a complex with a face: ``h_numbers`` itself, and the two
general routes of ``kzero.meets``, by name."""


def assert_route_matches_horner(K: SimplicialComplex, route: str) -> None:
    h = K.h_numbers() if K.is_empty() else H_ROUTES[route](K)
    assert h == horner_h_numbers(K) and all(type(c) is int for c in h), K


@pytest.mark.parametrize("route", H_ROUTES)
def test_every_h_route_matches_the_horner_fold(route):
    for K in face_count_cases():
        assert_route_matches_horner(K, route)


def test_a_skeleton_takes_the_closed_form_and_matches_the_horner_fold(monkeypatch):
    for route in ("h_numbers", "h_by_faces", "h_by_mobius", "meet_mobius"):
        monkeypatch.setattr(meets, route, None)  # calling a general route now raises
    for K in skeleton_cases():
        assert_route_matches_horner(K, "h_numbers")


def test_one_facet_or_a_broken_skeleton_skips_the_closed_form(monkeypatch):
    listed, binomials = [], []
    # the h-numbers do not depend on n, so the oracle reads the facets on 1..9
    monkeypatch.setattr(meets, "h_numbers",
                        lambda facets: listed.append(facets) or horner_h_numbers(SimplicialComplex(9, facets)))
    monkeypatch.setattr(simplicial, "comb", lambda n, k: binomials.append((n, k)) or math.comb(n, k))
    for n in range(2, 10):
        for size in range(1, n):  # one facet: fewer than n facets of one size 0 < s < n
            binomials.clear()
            K = SimplicialComplex(n, [range(1, size + 1)])
            assert K.h_numbers() == horner_h_numbers(K) and listed.pop() == K.facets and binomials == []
        for d in range(n - 1):
            facets = full_simplex(n).skeleton(d).facets
            others = [SimplicialComplex(n, facets[1:])] if len(facets) > 1 else []  # one facet missing
            if d + 2 < n:  # an extra facet one size up, which leaves facets of two sizes
                others.append(SimplicialComplex(n, [*facets, range(1, d + 3)]))
            for K in others:
                assert K.h_numbers() == horner_h_numbers(K) and listed.pop() == K.facets, K


@given(st.randoms(use_true_random=False), st.sampled_from(list(H_ROUTES)))
@settings(max_examples=300, deadline=None)
def test_every_h_route_matches_the_horner_fold_on_random_complexes(rng, route):
    assert_route_matches_horner(random_complex(rng, 1, 10), route)


def test_the_link_deletion_oracle_matches_the_horner_fold():
    for n, faces in facet_list_cases():
        K = SimplicialComplex(n, faces)
        assert link_deletion_h_numbers(K) == horner_h_numbers(K), K


def h_route_families(*kinds: str) -> list[SimplicialComplex]:
    """The complexes of every seed of the ``tools/h_routes.py`` families whose label starts
    with one of ``kinds``."""
    tool = load_tool("h_routes")
    return [tool.build(seed, *shape) for label, *shape in tool.FAMILIES if label.startswith(kinds)
            for seed in tool.SEEDS]


def test_h_numbers_at_scale_match_link_deletion():
    # the Horner fold lists every face, so it cannot check these; link-deletion lists none
    core = range(1, 24)  # five 24-vertex facets on one 23-vertex core: a cone, one step
    for K in [*h_route_families("large", "dense"), SimplicialComplex(28, [[*core, v] for v in range(24, 29)])]:
        assert K.h_numbers() == link_deletion_h_numbers(K), K


def test_face_counts_are_the_counted_faces():
    for K in face_count_cases():
        assert K.face_count_by_size() == counted_faces(K), K


def test_one_big_facet_has_one_h_number_and_binomial_face_counts():
    K = SimplicialComplex(30, [range(3, 27)])
    assert K.h_numbers() == [0] * 24 + [1]
    assert K.face_count_by_size() == {k: math.comb(24, k) for k in range(25)}


@given(st.sets(st.integers(0, 150000), max_size=300)
       | st.builds(lambda low, k: set(range(low, low + k)), st.integers(0, 120000), st.integers(0, 600)))
@settings(max_examples=200, deadline=None)
def test_masks_round_trip_against_a_reference(vertices):
    face = tuple(sorted(vertices))
    mask = sum(2 ** v for v in face)
    assert to_mask(face) == mask
    assert from_mask(mask) == face


def test_a_dense_face_past_100000_round_trips():
    face = (*range(1, 100002), 150000)
    mask = (1 << 100002) - 2 + (1 << 150000)
    assert to_mask(face) == mask
    assert from_mask(mask) == face


@pytest.mark.parametrize("face", [(5, 10**7), (10**7 - 1, 10**7), (10**7,), ()])
def test_a_sparse_face_on_a_large_top_vertex_round_trips(face):
    mask = sum(1 << v for v in face)
    assert to_mask(face) == mask
    assert from_mask(mask) == face


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
        for f in all_faces(S):
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
        assert U.face_count_by_size() == merged


def test_a_complex_is_its_vertex_count_and_facets():
    K = SimplicialComplex(4, [[3, 4], [1, 2, 3], [2, 3]])
    n, facets = K
    assert (n, facets) == (K.n, K.facets) == (4, ((3, 4), (1, 2, 3)))
    assert hash(K) == hash((4, ((3, 4), (1, 2, 3))))
