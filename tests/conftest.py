"""Shared fixture loaders, seeded random model generators, and the
complex and ideal helpers that only the tests use."""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import pytest

from binomext import (
    ExtensionComplex,
    FacetExtension,
    Graph,
    Polynomial,
    ProperStar,
    SimplicialComplex,
    Vertex,
    build_extension_complex,
    graph,
    is_proper_edge,
    maximal_cliques,
    normal_form,
    validate_complex,
)
from binomext.cli import Model, build_model, parse_input

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# helpers the tests share and the program never calls


def clique_number(g: Graph) -> int:
    return max((len(c) for c in maximal_cliques(g)), default=0)


def clique_complex(g: Graph, names: dict[int, str] | None = None) -> SimplicialComplex:
    """Complex whose facets are the maximal cliques of g (dense re-indexed)."""
    order = sorted(g.vertex_ids)
    remap = {v: i for i, v in enumerate(order)}
    label = names if names is not None else {v: f"v{v}" for v in order}
    vertices = tuple(Vertex(remap[v], label[v]) for v in order)
    facets = tuple(frozenset(remap[v] for v in c) for c in maximal_cliques(g))
    return SimplicialComplex(vertices, facets)


def facet_intersection_graph(sc: SimplicialComplex) -> Graph:
    m = len(sc.facets)
    pairs = [(i, j) for i, j in combinations(range(m), 2) if sc.facets[i] & sc.facets[j]]
    return graph(range(m), pairs)


def proper_edge_stars(sc: SimplicialComplex) -> list[list[ProperStar]]:
    """Per facet: every candidate origin with its maximal proper-edge targets."""
    out: list[list[ProperStar]] = []
    for l, f in enumerate(sc.facets):
        stars = []
        for origin in sorted(f):
            targets = tuple(
                t for t in sorted(f) if t != origin and is_proper_edge(sc, l, origin, t)
            )
            if targets:
                stars.append(ProperStar(l, origin, targets))
        out.append(stars)
    return out


def ideal_membership(f: Polynomial, basis: list[Polynomial]) -> bool:
    """Whether f lies in the ideal of basis, a Groebner basis."""
    return normal_form(f, basis).is_zero()


def load_model(name: str) -> Model:
    return build_model(parse_input(str(FIXTURES / f"{name}.json")))


@pytest.fixture(scope="session")
def greduit() -> Model:
    return load_model("greduit")


@pytest.fixture(scope="session")
def greduit1() -> Model:
    return load_model("greduit1")


@pytest.fixture(scope="session")
def cycles_pair() -> Model:
    return load_model("cycles_pair")


@pytest.fixture(scope="session")
def cycles_full() -> Model:
    return load_model("cycles_full")


ALL_FIXTURE_NAMES = ("greduit", "greduit1", "cycles_pair", "cycles_full")


# ---------------------------------------------------------------------------
# seeded random generators


def _attach_random_extensions(
    rng: random.Random,
    base: SimplicialComplex,
    max_points: int,
    force_points: bool = False,
) -> ExtensionComplex:
    """Extend a random subset of facets along random proper-edge stars."""
    stars = proper_edge_stars(base)
    exts: list[FacetExtension] = []
    counter = 0
    for l in range(len(base.facets)):
        if not stars[l] or rng.random() < 0.3:
            continue
        star = rng.choice(stars[l])
        k = rng.randint(1, len(star.targets))
        targets = tuple(sorted(rng.sample(star.targets, k)))
        points = []
        for _ in targets:
            size = rng.randint(0, max_points)
            points.append(tuple(f"p{(counter := counter + 1)}" for _ in range(size)))
        if force_points and all(not p for p in points):
            points[-1] = (f"p{(counter := counter + 1)}",)
        exts.append(FacetExtension(ProperStar(l, star.origin, targets), tuple(points)))
    return build_extension_complex(base, exts)


def extension_document(ext: ExtensionComplex) -> dict:
    """An input document that rebuilds ext with the same vertex ids."""
    base = ext.base
    return {
        "vertices": [v.name for v in base.vertices],
        "facets": [[base.name_of(v) for v in sorted(f)] for f in base.facets],
        "extensions": [
            {
                "facet": l,
                "origin": base.name_of(fe.star.origin),
                "edges": [
                    {"target": base.name_of(t), "points": list(p)}
                    for t, p in zip(fe.star.targets, fe.points)
                ],
            }
            for l, fe in enumerate(ext.extensions)
            if fe is not None
        ],
    }


def random_small_extension(seed: int) -> ExtensionComplex:
    """Random complex with <= 8 base vertices, <= 3 facets, <= 2 points/edge."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, 8)
        names = [f"v{i}" for i in range(n)]
        raw = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(2, min(4, n))
            raw.append(rng.sample(names, size))
        used = sorted({x for f in raw for x in f})
        base = validate_complex([sorted(f) for f in raw])
        if len(base.facets) > 3 or len(used) > 8:
            continue
        return _attach_random_extensions(rng, base, max_points=2)


def random_scroll_extension(seed: int) -> ExtensionComplex:
    """Single simplex, one extension: <= 4 blocks, <= 3 columns per block."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    names = [f"v{i}" for i in range(k + 1)]
    base = validate_complex([names])
    origin = 0
    targets = tuple(range(1, k + 1))
    counter = 0
    points = []
    for _ in targets:
        size = rng.randint(0, 2)
        points.append(tuple(f"p{(counter := counter + 1)}" for _ in range(size)))
    if all(not p for p in points):
        points[rng.randrange(len(points))] = (f"p{(counter := counter + 1)}",)
    ext = FacetExtension(ProperStar(0, origin, targets), tuple(points))
    return build_extension_complex(base, [ext])


def random_dtree_extension(seed: int) -> ExtensionComplex:
    """Extension of a generalized d-tree clique complex, d <= 3, <= 6 facets."""
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    vertices = list(range(d + 1))
    edges = {(i, j) for i in vertices for j in vertices if i < j}
    facets = [frozenset(vertices)]
    for _ in range(rng.randint(0, 5)):
        host = rng.choice(facets)
        size = rng.randint(1, d)
        # a host smaller than the drawn size lends all its vertices
        sub = rng.sample(sorted(host), min(size, len(host)))
        v = len(vertices)
        vertices.append(v)
        edges.update((u, v) for u in sub)
        facets.append(frozenset(sub) | {v})
    g = graph(vertices, edges)
    base = clique_complex(g)
    return _attach_random_extensions(rng, base, max_points=2)


def extended_dtree_document(d: int, nfacets: int, seed: int) -> dict:
    """A generalized d-tree glued facet by facet along full d-faces, with
    about two thirds of its facets extended along random proper edges by
    0-2 points per edge."""
    rng = random.Random(seed)
    facets = [tuple(range(d + 1))]
    while len(facets) < nfacets:
        face = sorted(rng.sample(rng.choice(facets), d))
        facets.append((*face, d + len(facets)))
    uses: dict[tuple[int, int], int] = {}
    for f in facets:
        for e in combinations(f, 2):
            uses[e] = uses.get(e, 0) + 1
    extensions = []
    points = 0
    for l, f in enumerate(facets):
        if rng.random() < 0.35:
            continue
        origin = rng.choice(f)
        proper = [t for t in f if t != origin and uses[(min(origin, t), max(origin, t))] == 1]
        if not proper:
            continue
        edges = []
        for t in sorted(rng.sample(proper, rng.randint(1, len(proper)))):
            count = rng.randint(0, 2)
            edges.append({"target": f"v{t}", "points": [f"p{points + k}" for k in range(count)]})
            points += count
        extensions.append({"facet": l, "origin": f"v{origin}", "edges": edges})
    return {
        "facets": [[f"v{v}" for v in f] for f in facets],
        "extensions": extensions,
    }


def empty_class_document() -> dict:
    """A simplex whose d-tree coloration leaves class 3 without a vertex, so
    there are only three reduction vectors for four classes."""
    return {
        "facets": [["v0", "v3", "v4", "v5"]],
        "extensions": [
            {
                "facet": 0,
                "origin": "v3",
                "edges": [
                    {"target": "v0", "points": ["p1"]},
                    {"target": "v4", "points": ["p2"]},
                    {"target": "v5", "points": []},
                ],
            }
        ],
    }


@pytest.fixture(name="empty_class_document")
def _empty_class_document() -> dict:
    return empty_class_document()
