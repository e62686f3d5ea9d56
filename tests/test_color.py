"""Colorations: proper/good checks, per-facet binomial conditions, the
backtracking search, the d-tree construction, and reduction vectors."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomext import (
    Coloration,
    EmptyClass,
    NotADTree,
    PrimeField,
    RationalField,
    UncoloredVertex,
    coloration_valid,
    dtree_coloration,
    facet_roles,
    find_coloration,
    g_prime_graph,
    graph,
    is_binomial_coloration,
    is_good_coloration,
    is_proper_coloration,
    reduced_graph,
    reduction_vectors,
    search_binomial_coloration,
)
from conftest import random_dtree_extension, random_scroll_extension, random_small_extension


def class_names(model, col: Coloration) -> set[frozenset[str]]:
    names = model.ext.var_names
    return {frozenset(names[v] for v in cls) for cls in col.classes if cls}


def col_by_names(model, num_classes: int, classes) -> Coloration:
    lookup = {n: i for i, n in enumerate(model.ext.var_names)}
    amap = {lookup[n]: c for c, cls in enumerate(classes) for n in cls}
    return Coloration.from_map(num_classes, amap)


# ---------------------------------------------------------------------------
# Coloration container


def test_coloration_round_trip_and_queries() -> None:
    col = Coloration.from_map(3, {0: 0, 1: 2, 2: 0, 5: 1})
    assert col.assignment == {0: 0, 1: 2, 2: 0, 5: 1}
    assert col.of(1) == 2
    assert col.of(7) is None
    assert col.domain == frozenset({0, 1, 2, 5})
    assert col.classes == (frozenset({0, 2}), frozenset({5}), frozenset({1}))
    assert col.members_in(0, {0, 1, 5}) == frozenset({0})


def test_class_indices_must_lie_below_the_class_count() -> None:
    with pytest.raises(ValueError, match="outside 0..1"):
        Coloration.from_map(2, {0: 5})


def test_coloration_pairs_are_sorted_and_hashable() -> None:
    a = Coloration.from_map(2, {3: 1, 1: 0})
    b = Coloration.from_map(2, {1: 0, 3: 1})
    assert a == b
    assert hash(a) == hash(b)
    assert a.pairs == ((1, 0), (3, 1))


# ---------------------------------------------------------------------------
# proper and good on small graphs


def test_path_two_coloring_is_proper_and_good() -> None:
    g = graph(range(3), [(0, 1), (1, 2)])
    col = Coloration.from_map(2, {0: 0, 1: 1, 2: 0})
    assert is_proper_coloration(g, col)
    assert is_good_coloration(g, col)


def test_missing_vertex_is_rejected() -> None:
    g = graph(range(3), [(0, 1), (1, 2)])
    col = Coloration.from_map(2, {0: 0, 1: 1})
    with pytest.raises(UncoloredVertex):
        is_proper_coloration(g, col)


def test_improper_when_an_edge_is_monochromatic() -> None:
    g = graph(range(3), [(0, 1), (1, 2)])
    col = Coloration.from_map(2, {0: 0, 1: 0, 2: 1})
    assert not is_proper_coloration(g, col)
    assert not is_good_coloration(g, col)


def test_four_cycle_two_coloring_is_proper_but_not_good() -> None:
    g = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    two = Coloration.from_map(2, {0: 0, 1: 1, 2: 0, 3: 1})
    assert is_proper_coloration(g, two)
    assert not is_good_coloration(g, two)
    three = Coloration.from_map(3, {0: 0, 1: 1, 2: 0, 3: 2})
    assert is_proper_coloration(g, three)
    assert is_good_coloration(g, three)


def test_triangle_needs_three_colors_and_then_is_good() -> None:
    g = graph(range(3), [(0, 1), (1, 2), (0, 2)])
    col = Coloration.from_map(3, {0: 0, 1: 1, 2: 2})
    assert is_good_coloration(g, col)


def _has_cycle_dfs(edges: set[tuple[int, int]], vids: set[int]) -> bool:
    """Independent cycle detector: iterative DFS with parent edges."""
    adj: dict[int, list[int]] = {v: [] for v in vids}
    for u, v in edges:
        if u in vids and v in vids:
            adj[u].append(v)
            adj[v].append(u)
    seen: set[int] = set()
    for root in vids:
        if root in seen:
            continue
        stack = [(root, -1)]
        seen.add(root)
        while stack:
            node, par = stack.pop()
            for nb in adj[node]:
                if nb == par:
                    par = -1  # consume one parent edge; multi-edges impossible
                    continue
                if nb in seen:
                    return True
                seen.add(nb)
                stack.append((nb, node))
    return False


def test_goodness_matches_a_brute_force_cycle_check() -> None:
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        pairs = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        }
        g = graph(range(n), pairs)
        k = rng.randint(2, 4)
        col = Coloration.from_map(k, {v: rng.randrange(k) for v in range(n)})
        if not is_proper_coloration(g, col):
            assert not is_good_coloration(g, col)
            continue
        brute = all(
            not _has_cycle_dfs(set(g.edges), set(col.classes[i] | col.classes[j]))
            for i in range(k)
            for j in range(i + 1, k)
        )
        assert is_good_coloration(g, col) == brute, f"seed {seed}"


# ---------------------------------------------------------------------------
# binomial conditions on the fixtures


def test_tetrahedron_expected_partition_is_binomial(greduit) -> None:
    col = col_by_names(greduit, 4, [{"a", "c"}, {"b"}, {"d", "y"}, {"z"}])
    ok, bad = is_binomial_coloration(greduit.ext, col)
    assert ok and bad == []
    assert coloration_valid(greduit.ext, col)


def test_tetrahedron_wrong_origin_class_is_diagnosed(greduit) -> None:
    col = col_by_names(greduit, 4, [{"a", "b"}, {"c"}, {"d", "y"}, {"z"}])
    ok, bad = is_binomial_coloration(greduit.ext, col)
    assert not ok
    assert any("origin class" in msg for msg in bad)


def test_tetrahedron_split_chain_pair_is_diagnosed(greduit) -> None:
    col = col_by_names(greduit, 4, [{"a", "c"}, {"b", "y"}, {"d"}, {"z"}])
    ok, bad = is_binomial_coloration(greduit.ext, col)
    assert not ok
    assert any("chain point" in msg for msg in bad)


def test_domain_mismatch_is_diagnosed(greduit) -> None:
    col = col_by_names(greduit, 4, [{"a", "c"}, {"b"}, {"d"}, {"z"}])  # y missing
    ok, bad = is_binomial_coloration(greduit.ext, col)
    assert not ok
    assert any("domain mismatch" in msg for msg in bad)


def test_too_many_classes_is_diagnosed(greduit) -> None:
    col = col_by_names(greduit, 5, [{"a", "c"}, {"b"}, {"d"}, {"y"}, {"z"}])
    ok, bad = is_binomial_coloration(greduit.ext, col)
    assert not ok
    assert any("exceed" in msg for msg in bad)


def test_colored_facet_members(greduit, cycles_pair) -> None:
    names = greduit.ext.var_names
    got = {names[v] for v in facet_roles(greduit.ext, 0).members}
    assert got == {"a", "b", "c", "d", "y", "z"}
    names2 = cycles_pair.ext.var_names
    got0 = {names2[v] for v in facet_roles(cycles_pair.ext, 0).members}
    assert got0 == {"a", "b", "c", "y"}
    got1 = {names2[v] for v in facet_roles(cycles_pair.ext, 1).members}
    assert got1 == {"b", "c", "d", "v"}


# Reference derivations, independent of `facet_roles`: each role read
# straight off the star and the point ids, and the verdict as four separate
# condition blocks (origin pair, chain pairs, last point, other members).


def _oracle_first_point(ext, l: int, j: int):
    ids = ext.point_ids[l]
    if ids is None or not ids[j]:
        return None
    return ids[j][0]


def _oracle_facet_pairs(ext, l: int):
    fe = ext.extensions[l]
    if ext.is_trivial(l) or len(fe.star.targets) < 2:
        return None, []
    targets = fe.star.targets
    origin_pair = (fe.star.origin, targets[1])
    chain = []
    for j in range(1, len(targets) - 1):
        y = _oracle_first_point(ext, l, j)
        if y is not None:
            chain.append((y, targets[j + 1]))
    return origin_pair, chain


def _oracle_last_point(ext, l: int):
    fe = ext.extensions[l]
    if ext.is_trivial(l) or len(fe.star.targets) < 2:
        return None
    return _oracle_first_point(ext, l, len(fe.star.targets) - 1)


def _oracle_members(ext, l: int) -> frozenset[int]:
    members = set(ext.base.facets[l])
    fe = ext.extensions[l]
    if fe is not None:
        for j in range(1, len(fe.star.targets)):
            y = _oracle_first_point(ext, l, j)
            if y is not None:
                members.add(y)
    return frozenset(members)


def _oracle_failures(ext, col: Coloration) -> list:
    """The four condition blocks, for a coloration of the reduced vertices
    with at most d+1 classes."""
    bad = []
    a = col.assignment
    for l in range(len(ext.base.facets)):
        members = _oracle_members(ext, l)
        origin_pair, chain = _oracle_facet_pairs(ext, l)
        last = _oracle_last_point(ext, l)
        paired: set[int] = set()
        if origin_pair is not None:
            x0, x2 = origin_pair
            if col.members_in(a[x0], members) != {x0, x2}:
                bad.append((l, "origin", x0))
            paired.update({x0, x2})
        for y, nxt in chain:
            if col.members_in(a[y], members) != {y, nxt}:
                bad.append((l, "chain point", y))
            paired.update({y, nxt})
        if last is not None:
            if col.members_in(a[last], members) != {last}:
                bad.append((l, "last point", last))
            paired.add(last)
        for v in sorted(members - paired):
            if col.members_in(a[v], members) != {v}:
                bad.append((l, "vertex", v))
    return bad


RANDOM_EXTENSIONS = (random_small_extension, random_dtree_extension, random_scroll_extension)


@settings(max_examples=120, deadline=None)
@given(
    make=st.sampled_from(RANDOM_EXTENSIONS),
    seed=st.integers(0, 10_000),
    rng=st.randoms(use_true_random=False),
)
def test_roles_and_verdict_match_the_per_reader_derivations(make, seed, rng) -> None:
    ext = make(seed)
    for l in range(len(ext.base.facets)):
        roles = facet_roles(ext, l)
        origin_pair, chain = _oracle_facet_pairs(ext, l)
        expected_pairs = ([origin_pair] if origin_pair else []) + chain
        assert list(roles.pairs) == expected_pairs, l
        assert roles.last == _oracle_last_point(ext, l), l
        assert roles.members == _oracle_members(ext, l), l

    d1 = ext.base.dim + 1
    verts = sorted(reduced_graph(ext).vertex_ids)
    cols = [Coloration.from_map(d1, {v: rng.randrange(d1) for v in verts}) for _ in range(4)]
    found, _ = find_coloration(ext, require_good=False)
    if found is not None:
        # the valid choice, and a near miss: one vertex moved to another class
        moved = found.assignment
        v = rng.choice(verts)
        moved[v] = (moved[v] + 1 + rng.randrange(d1 - 1)) % d1 if d1 > 1 else 0
        cols += [found, Coloration.from_map(d1, moved)]
    for col in cols:
        ok, bad = is_binomial_coloration(ext, col)
        assert ok == (not _oracle_failures(ext, col)), (col, bad)
        assert ok == (not bad)


def test_g_prime_of_the_tetrahedron_drops_the_same_edges(greduit) -> None:
    names = greduit.ext.var_names
    gp = g_prime_graph(greduit.ext)
    got = {tuple(sorted((names[u], names[v]))) for u, v in gp.edges}
    assert got == {("a", "b"), ("b", "c"), ("b", "d"), ("c", "d")}


# ---------------------------------------------------------------------------
# search


def test_search_finds_a_valid_coloration_for_the_tetrahedron(greduit) -> None:
    col = search_binomial_coloration(greduit.ext)
    assert col is not None
    assert coloration_valid(greduit.ext, col)
    assert len([c for c in col.classes if c]) == greduit.ext.base.dim + 1


def test_search_finds_a_valid_coloration_for_the_band(greduit1) -> None:
    col = search_binomial_coloration(greduit1.ext)
    assert col is not None
    assert coloration_valid(greduit1.ext, col)
    assert class_names(greduit1, col) == {
        frozenset({"a", "c", "x"}),
        frozenset({"b", "f", "w"}),
        frozenset({"d", "e", "g", "y", "z"}),
    }


def test_search_respects_goodness_on_the_four_cycle_complex(cycles_full) -> None:
    assert search_binomial_coloration(cycles_full.ext) is None
    col = search_binomial_coloration(cycles_full.ext, require_good=False)
    assert col is not None
    ok, bad = is_binomial_coloration(cycles_full.ext, col)
    assert ok and bad == []
    assert not is_good_coloration(g_prime_graph(cycles_full.ext), col)


def test_search_agrees_with_the_construction_where_both_apply(cycles_pair) -> None:
    found = search_binomial_coloration(cycles_pair.ext)
    built = dtree_coloration(cycles_pair.ext)
    assert found is not None
    assert coloration_valid(cycles_pair.ext, found)
    assert coloration_valid(cycles_pair.ext, built)


# ---------------------------------------------------------------------------
# construction on generalized d-trees


def test_construction_on_the_tetrahedron(greduit) -> None:
    col = dtree_coloration(greduit.ext)
    assert class_names(greduit, col) == {
        frozenset({"a", "c"}),
        frozenset({"b"}),
        frozenset({"d", "y"}),
        frozenset({"z"}),
    }
    assert coloration_valid(greduit.ext, col)


def test_construction_on_the_glued_pair(cycles_pair) -> None:
    col = dtree_coloration(cycles_pair.ext)
    assert class_names(cycles_pair, col) == {
        frozenset({"a", "c", "d"}),
        frozenset({"b"}),
        frozenset({"y", "v"}),
    }
    assert coloration_valid(cycles_pair.ext, col)


def test_construction_rejects_the_band(greduit1) -> None:
    with pytest.raises(NotADTree):
        dtree_coloration(greduit1.ext)


def test_construction_rejects_the_four_cycle_complex(cycles_full) -> None:
    with pytest.raises(NotADTree):
        dtree_coloration(cycles_full.ext)


def test_construction_on_random_quasi_trees() -> None:
    from conftest import random_dtree_extension

    for seed in range(12):
        ext = random_dtree_extension(seed)
        col = dtree_coloration(ext)
        ok, bad = is_binomial_coloration(ext, col)
        assert ok, f"seed {seed}: {bad}"
        assert is_good_coloration(g_prime_graph(ext), col), f"seed {seed}"


# ---------------------------------------------------------------------------
# reduction vectors


def test_reduction_vectors_of_the_tetrahedron(greduit) -> None:
    col = dtree_coloration(greduit.ext)
    vecs = reduction_vectors(col, greduit.ring)
    assert sorted(str(f) for f in vecs.forms) == ["a + c", "b", "d + y", "z"]
    assert all(f.degree() == 1 for f in vecs.forms)


def test_reduction_vectors_on_rationals(cycles_pair) -> None:
    ring = cycles_pair.ext.ring(RationalField())
    col = dtree_coloration(cycles_pair.ext)
    vecs = reduction_vectors(col, ring)
    assert sorted(str(f) for f in vecs.forms) == ["a + c + d", "b", "y + v"]


def test_reduction_vectors_reject_an_empty_class(greduit) -> None:
    col = Coloration.from_map(3, {0: 0, 1: 2})
    with pytest.raises(EmptyClass):
        reduction_vectors(col, greduit.ring)


def test_reduction_vectors_live_in_the_requested_field(greduit) -> None:
    ring = greduit.ext.ring(PrimeField(7))
    col = dtree_coloration(greduit.ext)
    vecs = reduction_vectors(col, ring)
    assert all(f.ring is ring for f in vecs.forms)
