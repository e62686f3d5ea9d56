"""Simplicial complexes and their graphs: skeletons, generalized d-tree
recognition, minimal non-faces, proper edges and proper stars.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import combinations
from operator import and_


class EmptyFacet(ValueError):
    """A facet with no vertices was supplied."""


class DuplicateVertexInFacet(ValueError):
    """A facet names the same vertex twice."""


class Vertex(namedtuple("Vertex", "id name")):
    """A vertex: its dense id (int) and its name (str)."""

    __slots__ = ()


class SimplicialComplex(namedtuple("SimplicialComplex", "vertices facets")):
    """A complex: vertices (tuple[Vertex, ...], indexed by id) and facets
    (tuple[frozenset[int], ...] of vertex ids)."""

    # no __slots__: the instance keeps a __dict__ for its cached properties

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def name_of(self, vid: int) -> str:
        return self.vertices[vid].name

    def names(self, vids) -> list[str]:
        return sorted(self.name_of(v) for v in vids)

    @cached_property
    def _id_by_name(self) -> dict[str, int]:
        ids: dict[str, int] = {}
        for v in self.vertices:
            ids.setdefault(v.name, v.id)
        return ids

    def id_of(self, name: str) -> int:
        """The id of the first vertex with this name; KeyError if none."""
        return self._id_by_name[name]

    def is_face(self, vids) -> bool:
        s = frozenset(vids)
        return any(s <= f for f in self.facets)

    @cached_property
    def holders(self) -> tuple[frozenset[int], ...]:
        """Per vertex id, the indices of the facets that hold it."""
        out: list[set[int]] = [set() for _ in self.vertices]
        for i, f in enumerate(self.facets):
            for v in f:
                out[v].add(i)
        return tuple(map(frozenset, out))


def validate_complex(raw_facets, vertex_order=None) -> SimplicialComplex:
    """Normalize raw facet name lists: dense ids in first-appearance order
    (or in vertex_order when given), inclusion-maximal facets (contained sets
    dropped, first occurrence kept)."""
    if not raw_facets:
        raise EmptyFacet("facet list is empty")
    ids: dict[str, int] = {}
    if vertex_order is not None:
        for n in vertex_order:
            if n in ids:
                raise DuplicateVertexInFacet(f"repeated vertex {n!r} in vertex list")
            ids[n] = len(ids)
    sets: list[frozenset[int]] = []
    for raw in raw_facets:
        names = list(raw)
        if not names:
            raise EmptyFacet("empty facet")
        if len(set(names)) != len(names):
            dup = sorted(n for n in set(names) if names.count(n) > 1)
            raise DuplicateVertexInFacet(f"repeated vertex {dup[0]!r} in facet {names}")
        for n in names:
            ids.setdefault(n, len(ids))
        sets.append(frozenset(ids[n] for n in names))
    # only a facet holding f's rarest vertex can strictly contain f
    holders: dict[int, list[frozenset[int]]] = {}
    for f in sets:
        for v in f:
            holders.setdefault(v, []).append(f)

    def maximal(f: frozenset[int]) -> bool:
        rarest = min(f, key=lambda v: len(holders[v]))
        return not any(f < g for g in holders[rarest])

    # a dict keeps each maximal facet once, at its first occurrence
    kept = dict.fromkeys(filter(maximal, sets))
    vertices = tuple(Vertex(i, n) for n, i in sorted(ids.items(), key=lambda kv: kv[1]))
    return SimplicialComplex(vertices, tuple(kept))


# ---------------------------------------------------------------------------
# graphs


class Graph(namedtuple("Graph", "vertex_ids edges")):
    """A graph: vertex_ids (frozenset[int]) and edges
    (frozenset[tuple[int, int]], each pair stored as (min, max))."""

    __slots__ = ()

    def __new__(cls, vertex_ids: frozenset[int], edges: frozenset[tuple[int, int]]):
        if not all(u < v and u in vertex_ids and v in vertex_ids for u, v in edges):
            raise ValueError("each edge must be a pair (u, v) of graph vertices with u < v")
        return super().__new__(cls, vertex_ids, edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertex_ids}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def graph(vertex_ids, edge_pairs) -> Graph:
    edges = frozenset((min(u, v), max(u, v)) for u, v in edge_pairs if u != v)
    return Graph(frozenset(vertex_ids), edges)


def skeleton_graph(sc: SimplicialComplex) -> Graph:
    pairs = {p for f in sc.facets for p in combinations(sorted(f), 2)}
    return graph(range(len(sc.vertices)), pairs)


def is_connected(g: Graph) -> bool:
    if not g.vertex_ids:
        return False
    adj = g.adjacency()
    seen = {min(g.vertex_ids)}
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == g.vertex_ids


def induces_forest(g: Graph, vids) -> bool:
    """True when the induced subgraph on vids has no cycle."""
    vids = set(vids)
    parent = {v: v for v in vids}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in g.edges:
        if u in vids and v in vids:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """Bron-Kerbosch with pivoting; output sorted for determinism."""
    adj = g.adjacency()
    out: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(g.vertex_ids), set())
    return sorted(out, key=lambda c: sorted(c))


# ---------------------------------------------------------------------------
# generalized d-trees


class DTreeVerdict(
    namedtuple("DTreeVerdict", "verdict elimination_order reason", defaults=((), None))
):
    """verdict (bool), elimination_order (tuple[int, ...], default ()) and
    reason (str | None, default None)."""

    __slots__ = ()


def quasi_tree_order(facets) -> list[int] | None:
    """Build order (reverse leaf-removal) of a facet list, or None.

    A leaf of a facet set S is F with F cap union(S-F) inside a single other
    member. The facet sets with a leaf order are the clique complexes of
    chordal graphs (Herzog, Hibi, Trung & Zheng 2008), and removing a leaf
    keeps that property, so the lowest-index leaf is removed each time and no
    choice is ever undone.

    Each vertex indexes the remaining facets that hold it. F's boundary is
    then its vertices held more than once, and only a facet holding the
    boundary's rarest vertex can contain it, so a leaf test never forms the
    union of the other facets.
    """
    facets = list(facets)
    holders: dict[int, set[int]] = {}
    for i, f in enumerate(facets):
        for v in f:
            holders.setdefault(v, set()).add(i)

    def is_leaf(i: int) -> bool:
        boundary = [v for v in facets[i] if len(holders[v]) > 1]
        if not boundary:
            return True
        rarest = min(boundary, key=lambda v: len(holders[v]))
        return any(j != i and facets[j].issuperset(boundary) for j in holders[rarest])

    remaining = list(range(len(facets)))
    removed: list[int] = []
    stuck: set[int] = set()  # tested, not a leaf, no neighbour removed since
    while len(remaining) > 1:
        for leaf in remaining:
            if leaf not in stuck:
                if is_leaf(leaf):
                    break
                stuck.add(leaf)
        else:
            return None
        remaining.remove(leaf)
        removed.append(leaf)
        for v in facets[leaf]:
            holders[v].discard(leaf)
            # only a facet meeting the removed one can change its answer
            stuck -= holders[v]
    return remaining + removed[::-1] if remaining else None


def is_generalized_d_tree(g: Graph, d: int) -> DTreeVerdict:
    """Recursive-elimination verdict with a deterministic certificate.

    Repeatedly removes the lowest-id vertex whose neighborhood is a complete
    graph on 1..d vertices and whose removal keeps the clique number at d+1,
    down to a complete graph on d+1 vertices. Removal of such a vertex never
    disconnects the graph and never loses the property, so the greedy order
    is a faithful certificate.

    The maximal cliques are enumerated once. A removable vertex v is
    simplicial, so N[v] is its only maximal clique, and every other maximal
    clique stays maximal without v: the count k of (d+1)-cliques drops by
    [|N(v)| = d] when v goes, and the clique number stays d+1 while k >= 1.
    """
    if not g.vertex_ids:
        return DTreeVerdict(False, (), "empty graph")
    if not is_connected(g):
        return DTreeVerdict(False, (), "Disconnected")
    sizes = [len(c) for c in maximal_cliques(g)]
    if max(sizes) != d + 1:
        return DTreeVerdict(False, (), f"clique number is {max(sizes)}, need {d + 1}")
    k = sizes.count(d + 1)
    adj = g.adjacency()
    order: list[int] = []
    while len(adj) > d + 1:
        pick = None
        for v in sorted(adj):
            nb = adj[v]
            if not 1 <= len(nb) <= d or k - (len(nb) == d) < 1:
                continue
            if all(b in adj[a] for a, b in combinations(nb, 2)):
                pick = v
                break
        if pick is None:
            return DTreeVerdict(False, tuple(order), "no removable vertex")
        order.append(pick)
        k -= len(adj[pick]) == d
        for w in adj.pop(pick):
            adj[w].discard(pick)
    # clique number d+1 on d+1 vertices forces the complete graph
    return DTreeVerdict(True, tuple(order), None)


# ---------------------------------------------------------------------------
# Stanley-Reisner data and proper stars


def stanley_reisner_generators(sc: SimplicialComplex) -> list[tuple[int, ...]]:
    """Minimal non-faces, each as a sorted vertex-id tuple, in order of size
    (the pairs first), then lexicographically.

    A minimal non-face has size at most dim+2 (its proper subsets are faces,
    and faces have at most dim+1 vertices). Any minimal non-face of size >= 3
    has all its pairs as edges, so only skeleton cliques need scanning.
    """
    n = len(sc.vertices)
    adj = skeleton_graph(sc).adjacency()
    pairs = [(u, v) for u, v in combinations(range(n), 2) if v not in adj[u]]
    later = [{w for w in adj[v] if w > v} for v in range(n)]
    out: list[tuple[int, ...]] = []

    top = sc.dim + 2
    # per vertex, the facets that hold it, as a bitmask over facet indices;
    # a clique is a face exactly when some facet holds all its vertices
    masks = [0] * n
    for i, f in enumerate(sc.facets):
        for v in f:
            masks[v] |= 1 << i

    def held(vids) -> int:
        return reduce(and_, map(masks.__getitem__, vids))

    def grow(clique: tuple[int, ...], holding: int, cands: set[int]) -> None:
        size = len(clique)
        if not holding:
            # the clique less its last vertex is the parent, a face
            if all(held(clique[:i] + clique[i + 1 :]) for i in range(size - 1)):
                out.append(clique)
            return  # supersets contain this non-face, never minimal
        if size == top:
            return
        for v in sorted(cands):
            grow(clique + (v,), holding & masks[v], cands & later[v])

    grow((), (1 << len(sc.facets)) - 1, set(range(n)))
    # the pairs come out of combinations already in order
    return pairs + sorted(out, key=lambda t: (len(t), t))


class ProperStar(namedtuple("ProperStar", "facet origin targets")):
    """A proper star: facet (int, its index), origin (int, a vertex id) and
    targets (tuple[int, ...], vertex ids)."""

    __slots__ = ()


def is_proper_edge(sc: SimplicialComplex, l: int, u: int, v: int) -> bool:
    """The edge lies in facet l and in no other facet."""
    f = sc.facets[l]
    # facet l holds both ends; the edge is proper when no other facet does
    return u in f and v in f and len(sc.holders[u] & sc.holders[v]) == 1

