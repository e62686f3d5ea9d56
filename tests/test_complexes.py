"""Complex normalization, graphs, d-tree recognition, non-face enumeration."""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomext.complexes import (
    DuplicateVertexInFacet,
    EmptyFacet,
    Graph,
    clique_complex,
    clique_number,
    facet_intersection_graph,
    graph,
    induces_forest,
    is_connected,
    is_generalized_d_tree,
    is_proper_edge,
    maximal_cliques,
    proper_edge_stars,
    quasi_tree_order,
    skeleton_graph,
    stanley_reisner_generators,
    validate_complex,
)
from binomext.cli import parse_document, run
from conftest import extended_dtree_document, random_dtree_extension


def names_of(sc, vids) -> set[str]:
    return {sc.name_of(v) for v in vids}


# ---------------------------------------------------------------------------
# validation


def test_first_appearance_ids() -> None:
    sc = validate_complex([["b", "a"], ["a", "c"]])
    assert [v.name for v in sc.vertices] == ["b", "a", "c"]
    assert sc.id_of("c") == 2


def test_vertex_names_resolve_to_ids() -> None:
    sc = validate_complex([["b", "a"], ["a", "c"]])
    assert [sc.id_of(n) for n in "abc"] == [1, 0, 2]
    with pytest.raises(KeyError):
        sc.id_of("d")
    # a complex built with a repeated label answers with its first vertex
    twice = clique_complex(graph(range(3), [(0, 1), (1, 2)]), {0: "u", 1: "w", 2: "u"})
    assert twice.id_of("u") == 0


def test_declared_vertex_order() -> None:
    sc = validate_complex([["b", "a"], ["a", "c"]], vertex_order=["a", "b", "c"])
    assert [v.name for v in sc.vertices] == ["a", "b", "c"]


def test_contained_facets_dropped() -> None:
    sc = validate_complex([["a", "b"], ["a", "b", "c"], ["b", "c"], ["a", "b", "c"]])
    assert len(sc.facets) == 1
    assert names_of(sc, sc.facets[0]) == {"a", "b", "c"}


def test_empty_inputs_rejected() -> None:
    with pytest.raises(EmptyFacet):
        validate_complex([])
    with pytest.raises(EmptyFacet):
        validate_complex([["a"], []])


def test_duplicate_vertex_rejected() -> None:
    with pytest.raises(DuplicateVertexInFacet):
        validate_complex([["a", "b", "a"]])


def test_face_queries() -> None:
    sc = validate_complex([["a", "b", "c"], ["c", "d"]])
    assert sc.dim == 2
    assert sc.is_face({sc.id_of("a"), sc.id_of("b")})
    assert not sc.is_face({sc.id_of("a"), sc.id_of("d")})


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(
        st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=8,
    )
)
def test_validated_facets_are_maximal_cover_every_vertex_and_keep_first_occurrence(
    raw: list[list[str]],
) -> None:
    sc = validate_complex(raw)
    assert all(not (a <= b or b <= a) for a, b in combinations(sc.facets, 2))
    assert {v for f in sc.facets for v in f} == set(range(len(sc.vertices)))
    sets = [frozenset(sc.id_of(n) for n in f) for f in raw]
    maximal = [f for f in sets if not any(f < g for g in sets)]
    assert list(sc.facets) == list(dict.fromkeys(maximal))


# ---------------------------------------------------------------------------
# graphs


def test_graph_normalization_and_queries() -> None:
    g = graph([0, 1, 2], [(2, 1), (0, 1)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert g.adjacency()[1] == {0, 2}


def test_graph_edges_must_be_ordered_pairs_of_its_vertices() -> None:
    for edges in ({(1, 0)}, {(0, 2)}):
        with pytest.raises(ValueError, match="u < v"):
            Graph(frozenset({0, 1}), frozenset(edges))


def test_connectivity() -> None:
    assert is_connected(graph([0, 1, 2], [(0, 1), (1, 2)]))
    assert not is_connected(graph([0, 1, 2], [(0, 1)]))
    assert not is_connected(graph([], []))


def test_forest_detection() -> None:
    path = graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    assert induces_forest(path, path.vertex_ids)
    triangle = graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert not induces_forest(triangle, triangle.vertex_ids)
    assert induces_forest(triangle, [0, 1])


def test_maximal_cliques_of_glued_triangles() -> None:
    g = graph([0, 1, 2, 3], [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    cliques = maximal_cliques(g)
    assert sorted(sorted(c) for c in cliques) == [[0, 1, 2], [1, 2, 3]]
    assert clique_number(g) == 3


def test_clique_complex_round_trip() -> None:
    sc = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    back = clique_complex(skeleton_graph(sc), {v.id: v.name for v in sc.vertices})
    assert set(back.facets) == set(sc.facets)


def test_facet_intersection_graph() -> None:
    sc = validate_complex([["a", "b"], ["b", "c"], ["c", "d"], ["e", "f"]])
    h = facet_intersection_graph(sc)
    assert sorted(h.edges) == [(0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# generalized d-trees


def test_single_simplex_is_a_d_tree() -> None:
    sc = validate_complex([["a", "b", "c", "d"]])
    verdict = is_generalized_d_tree(skeleton_graph(sc), sc.dim)
    assert verdict.verdict
    assert verdict.elimination_order == ()


def test_elimination_order_peels_down_to_the_core() -> None:
    g = graph(range(4), [(0, 1), (1, 2), (2, 3)])
    verdict = is_generalized_d_tree(g, 1)
    assert verdict.verdict
    assert len(verdict.elimination_order) == 2


def test_path_is_a_one_tree() -> None:
    g = graph(range(4), [(0, 1), (1, 2), (2, 3)])
    assert is_generalized_d_tree(g, 1).verdict


def test_four_cycle_is_not_a_one_tree() -> None:
    g = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    verdict = is_generalized_d_tree(g, 1)
    assert not verdict.verdict
    assert verdict.reason


def test_triangle_fan_is_a_two_tree() -> None:
    sc = validate_complex([["a", "b", "c"], ["a", "c", "d"], ["a", "d", "e"]])
    assert is_generalized_d_tree(skeleton_graph(sc), 2).verdict


def test_disconnected_graph_is_rejected() -> None:
    g = graph(range(4), [(0, 1), (2, 3)])
    verdict = is_generalized_d_tree(g, 1)
    assert not verdict.verdict
    assert "isconnected" in verdict.reason


def test_wrong_clique_number_is_rejected() -> None:
    g = graph(range(3), [(0, 1), (0, 2), (1, 2)])
    assert not is_generalized_d_tree(g, 1).verdict
    assert is_generalized_d_tree(g, 2).verdict


def test_band_of_triangles_with_hole_is_rejected() -> None:
    sc = validate_complex(
        [["a", "b", "c"], ["b", "c", "f"], ["d", "e", "f"], ["a", "e", "g"]]
    )
    assert not is_generalized_d_tree(skeleton_graph(sc), 2).verdict


def _quasi_tree_criterion(g, d: int) -> bool:
    """Independent d-tree criterion: connected, clique number d+1, and the
    clique complex admits a leaf order of its facets."""
    if not is_connected(g):
        return False
    if clique_number(g) != d + 1:
        return False
    return quasi_tree_order(maximal_cliques(g)) is not None


def _assert_valid_certificate(g, d: int, order) -> None:
    """Each eliminated vertex has a complete neighbourhood of 1..d vertices
    when it goes, and what remains is the complete graph on d+1 vertices."""
    adj = g.adjacency()
    for v in order:
        nb = adj.pop(v)
        assert 1 <= len(nb) <= d
        assert all(b in adj[a] for a, b in combinations(nb, 2))
        for w in nb:
            adj[w].discard(v)
    assert len(adj) == d + 1
    assert all(len(nb) == d for nb in adj.values())


@pytest.mark.parametrize("seed", range(30))
def test_d_tree_recognizer_cross_checks_on_random_graphs(seed: int) -> None:
    # vertex elimination against the facet peel criterion
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    vertices = list(range(n))
    edges = [e for e in combinations(vertices, 2) if rng.random() < 0.5]
    g = graph(vertices, edges)
    for d in (1, 2, 3):
        assert is_generalized_d_tree(g, d).verdict == _quasi_tree_criterion(g, d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), drop=st.integers(min_value=0))
def test_d_tree_recognizer_certifies_d_trees_and_near_misses(seed: int, drop: int) -> None:
    base = random_dtree_extension(seed).base
    d = base.dim
    g = skeleton_graph(base)
    edges = sorted(g.edges)
    i = drop % len(edges)
    near_miss = graph(g.vertex_ids, edges[:i] + edges[i + 1 :])
    assert is_generalized_d_tree(g, d).verdict
    for h in (g, near_miss):
        out = is_generalized_d_tree(h, d)
        assert out.verdict == _quasi_tree_criterion(h, d)
        if out.verdict:
            _assert_valid_certificate(h, d, out.elimination_order)


# ---------------------------------------------------------------------------
# facet peel orders


def test_peel_order_of_a_band() -> None:
    sc = validate_complex([["a", "b", "c"], ["b", "c", "d"], ["c", "d", "e"]])
    order = quasi_tree_order(sc.facets)
    assert order is not None and len(order) == 3


def test_cycle_of_facets_has_no_peel_order() -> None:
    sc = validate_complex(
        [["a", "b", "c"], ["b", "c", "d"], ["d", "e", "f"], ["a", "e", "f"]]
    )
    assert quasi_tree_order(sc.facets) is None


def _backtracking_leaf_order(facets) -> list[int] | None:
    """Reference leaf order: backtracking over which leaf to remove, with a
    memo of the remaining sets that admit no order. Exponential when no
    order exists, so only for small facet sets."""
    facets = list(facets)
    dead: set[frozenset[int]] = set()

    def peel(remaining: frozenset[int]) -> list[int] | None:
        if len(remaining) == 1:
            return [next(iter(remaining))]
        if remaining in dead:
            return None
        for i in sorted(remaining):
            rest = remaining - {i}
            boundary = facets[i] & frozenset().union(*(facets[j] for j in rest))
            if any(boundary <= facets[j] for j in sorted(rest)):
                tail = peel(rest)
                if tail is not None:
                    return tail + [i]
        dead.add(remaining)
        return None

    return peel(frozenset(range(len(facets)))) if facets else None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_greedy_leaf_order_matches_backtracking(seed: int) -> None:
    # removing a leaf never destroys a leaf order of the rest, so the greedy
    # peel finds the same order as the search, and fails exactly when it does
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    names = [f"v{i}" for i in range(n)]
    raw = [rng.sample(names, rng.randint(1, min(4, n))) for _ in range(rng.randint(1, 8))]
    g = graph(range(n), [e for e in combinations(range(n), 2) if rng.random() < 0.5])
    for facets in (validate_complex(raw).facets, maximal_cliques(g)):
        assert quasi_tree_order(facets) == _backtracking_leaf_order(facets)


def _reference_leaf_order(facets) -> list[int] | None:
    """The greedy peel as first written: each candidate's boundary is its
    meet with the union of every other remaining facet. Cubic in the
    number of facets."""
    facets = list(facets)
    remaining = list(range(len(facets)))
    removed: list[int] = []
    while len(remaining) > 1:
        for i in remaining:
            rest = [j for j in remaining if j != i]
            boundary = facets[i] & frozenset().union(*(facets[j] for j in rest))
            if any(boundary <= facets[j] for j in rest):
                break
        else:
            return None
        remaining.remove(i)
        removed.append(i)
    return remaining + removed[::-1] if remaining else None


def two_tree_less_one_triangle(ntriangles: int, seed: int) -> dict:
    """A random 2-tree of ntriangles triangles with one triangle removed
    that has exactly one edge no other triangle covers; that edge stays as
    a facet. The skeleton is still a 2-tree, but the facets are no clique
    complex, so they have no leaf order. A 2-tree without such a triangle
    (three triangles on one edge, say) is drawn again from the same rng."""
    rng = random.Random(seed)
    candidates = []
    while not candidates:
        triangles = [(0, 1, 2)]
        while len(triangles) < ntriangles:
            a, b = sorted(rng.sample(rng.choice(triangles), 2))
            triangles.append((a, b, len(triangles) + 2))
        for k, t in enumerate(triangles):
            others = triangles[:k] + triangles[k + 1 :]
            bare = [e for e in combinations(t, 2) if not any(set(e) <= set(u) for u in others)]
            if len(bare) == 1:
                candidates.append((k, bare[0]))
    k, edge = rng.choice(candidates)
    facets = triangles[:k] + triangles[k + 1 :] + [edge]
    return {"facets": [[f"v{v}" for v in f] for f in facets]}


@settings(max_examples=12, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    nfacets=st.integers(min_value=30, max_value=120),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_leaf_order_matches_the_reference_on_large_dtrees(d, nfacets, seed) -> None:
    # built facet by facet, the late facets are the leaves; shuffled, the
    # leaves sit anywhere in the list
    facets = list(validate_complex(extended_dtree_document(d, nfacets, seed)["facets"]).facets)
    assert len(facets) == nfacets
    shuffled = random.Random(seed).sample(facets, len(facets))
    for order in (facets, shuffled):
        got = quasi_tree_order(order)
        assert got is not None
        assert got == _reference_leaf_order(order)


@settings(max_examples=12, deadline=None)
@given(
    ntriangles=st.integers(min_value=3, max_value=60),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_leaf_order_matches_the_reference_on_two_trees_less_one_triangle(
    ntriangles, seed
) -> None:
    facets = list(validate_complex(two_tree_less_one_triangle(ntriangles, seed)["facets"]).facets)
    shuffled = random.Random(seed).sample(facets, len(facets))
    for order in (facets, shuffled):
        got = quasi_tree_order(order)
        assert got is None
        assert got == _reference_leaf_order(order)


def test_a_dtree_skeleton_without_a_leaf_order_is_rejected_quickly() -> None:
    # a search that backtracks over which leaf to remove visits every
    # peelable subset of these 26 facets (over a minute); the greedy peel
    # stops at the first set without a leaf
    doc = two_tree_less_one_triangle(26, seed=0)
    sc = validate_complex(doc["facets"])
    assert len(sc.facets) == 26
    assert is_generalized_d_tree(skeleton_graph(sc), 2).verdict
    started = time.perf_counter()
    assert quasi_tree_order(sc.facets) is None
    report = run("color", parse_document(doc))
    assert time.perf_counter() - started < 1.0
    assert report["coloration"]["method"] == "search"


# ---------------------------------------------------------------------------
# minimal non-faces


def test_single_simplex_has_no_non_faces() -> None:
    sc = validate_complex([["a", "b", "c", "d"]])
    assert stanley_reisner_generators(sc) == []


def test_glued_triangles_have_one_non_face() -> None:
    sc = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    gens = stanley_reisner_generators(sc)
    assert [names_of(sc, g) for g in gens] == [{"a", "d"}]


def test_hollow_triangle_non_face() -> None:
    sc = validate_complex([["a", "b"], ["b", "c"], ["a", "c"]])
    gens = stanley_reisner_generators(sc)
    assert [names_of(sc, g) for g in gens] == [{"a", "b", "c"}]


def test_band_non_faces_are_the_missing_edges() -> None:
    sc = validate_complex(
        [["a", "b", "c"], ["b", "c", "f"], ["d", "e", "f"], ["a", "e", "g"]]
    )
    gens = stanley_reisner_generators(sc)
    assert all(len(g) == 2 for g in gens)
    assert len(gens) == 10
    assert {"a", "d"} in [names_of(sc, g) for g in gens]


def _random_chordal_graph(rng: random.Random, n: int):
    """Each new vertex joins a random subset of a random maximal clique of
    the graph so far (possibly none, starting a new component); the reverse
    of that order is a perfect elimination order."""
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        clique = rng.choice(maximal_cliques(graph(range(v), edges)))
        edges.update((u, v) for u in clique if rng.random() < 0.7)
    return graph(range(n), edges)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), chordal=st.booleans())
def test_non_faces_by_brute_force_on_random_complexes(seed: int, chordal: bool) -> None:
    rng = random.Random(seed)
    if chordal:
        sc = clique_complex(_random_chordal_graph(rng, rng.randint(1, 8)))
    else:
        n = rng.randint(3, 6)
        raw = [
            rng.sample([f"v{i}" for i in range(n)], rng.randint(2, min(4, n)))
            for _ in range(rng.randint(1, 4))
        ]
        sc = validate_complex(raw)
    vids = range(len(sc.vertices))
    brute = []
    for size in range(2, sc.dim + 3):
        for sub in combinations(vids, size):
            s = frozenset(sub)
            if sc.is_face(s):
                continue
            if all(sc.is_face(s - {v}) for v in s):
                brute.append(s)
    got = stanley_reisner_generators(sc)
    want = sorted((tuple(sorted(g)) for g in brute), key=lambda t: (len(t), t))
    assert got == want


# ---------------------------------------------------------------------------
# proper edges


def test_proper_edges_of_glued_triangles() -> None:
    sc = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    a, b, c, d = (sc.id_of(x) for x in "abcd")
    assert is_proper_edge(sc, 0, a, b)
    assert not is_proper_edge(sc, 0, b, c)
    assert not is_proper_edge(sc, 0, b, d)
    stars = proper_edge_stars(sc)
    by_origin = {s.origin: s.targets for s in stars[0]}
    assert by_origin == {a: (b, c), b: (a,), c: (a,)}


def test_every_edge_of_a_lone_simplex_is_proper() -> None:
    sc = validate_complex([["a", "b", "c"]])
    stars = proper_edge_stars(sc)
    assert len(stars[0]) == 3
    assert all(len(s.targets) == 2 for s in stars[0])


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(
        st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=8,
    )
)
def test_proper_edges_read_off_the_vertex_index_match_a_scan_of_every_facet(
    raw: list[list[str]],
) -> None:
    sc = validate_complex(raw)
    assert sc.holders == tuple(
        frozenset(i for i, f in enumerate(sc.facets) if v in f) for v in range(len(sc.vertices))
    )
    n = len(sc.vertices)
    for l, f in enumerate(sc.facets):
        for u in range(n):
            for v in range(n):
                e = {u, v}
                want = e <= f and not any(e <= g for i, g in enumerate(sc.facets) if i != l)
                assert is_proper_edge(sc, l, u, v) == want
