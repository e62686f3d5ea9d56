"""Colorations of reduced graphs: proper/good checks, the per-facet binomial
conditions, a backtracking search, the recursive construction for generalized
d-tree skeletons, the choice between the two, and the linear reduction
vectors g_i.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .complexes import (
    Graph,
    induces_forest,
    is_generalized_d_tree,
    quasi_tree_order,
    skeleton_graph,
)
from .extension import ExtensionComplex, facet_roles, reduced_graph
from .poly import Polynomial, Ring, memoized


class UncoloredVertex(ValueError):
    """The coloration misses a vertex of the graph under test."""


class NotADTree(ValueError):
    """The construction needs a generalized d-tree skeleton."""


class EmptyClass(ValueError):
    """A coloration class has no vertex, so it gives no linear form."""


class ValidationFailed(RuntimeError):
    """A constructed coloration failed re-validation; never silently fixed."""


@dataclass(frozen=True)
class Coloration:
    num_classes: int
    pairs: tuple[tuple[int, int], ...]  # (vertex id, class index), sorted

    @staticmethod
    def from_map(num_classes: int, assignment: dict[int, int]) -> "Coloration":
        if not all(0 <= c < num_classes for c in assignment.values()):
            raise ValueError(f"a class index lies outside 0..{num_classes - 1}")
        return Coloration(num_classes, tuple(sorted(assignment.items())))

    @property
    def assignment(self) -> dict[int, int]:
        return dict(self.pairs)

    def of(self, v: int) -> int | None:
        return self.assignment.get(v)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.pairs)

    @property
    def classes(self) -> tuple[frozenset[int], ...]:
        out: list[set[int]] = [set() for _ in range(self.num_classes)]
        for v, c in self.pairs:
            out[c].add(v)
        return tuple(frozenset(s) for s in out)

    def members_in(self, cls: int, vset) -> frozenset[int]:
        return self.classes[cls] & frozenset(vset)


# ---------------------------------------------------------------------------
# proper / good


def _check_assigned(g: Graph, col: Coloration) -> None:
    missing = g.vertex_ids - col.domain
    if missing:
        raise UncoloredVertex(f"vertices {sorted(missing)} carry no color")


def is_proper_coloration(g: Graph, col: Coloration) -> bool:
    _check_assigned(g, col)
    a = col.assignment
    return all(a[u] != a[v] for u, v in g.edges)


def is_good_coloration(g: Graph, col: Coloration) -> bool:
    """Proper and every cycle sees at least three colors: each union of two
    classes must induce a forest."""
    if not is_proper_coloration(g, col):
        return False
    cls = [c & g.vertex_ids for c in col.classes]
    return all(
        induces_forest(g, cls[i] | cls[j])
        for i, j in combinations(range(col.num_classes), 2)
    )


# ---------------------------------------------------------------------------
# binomial-coloration conditions


def is_binomial_coloration(
    ext: ExtensionComplex, col: Coloration
) -> tuple[bool, list[str]]:
    """Checks that each facet member's class meets the facet in the member's
    role pair, or in the member alone; one diagnostic per failing member."""
    bad: list[str] = []
    expected = _run_reduced_graph(ext).vertex_ids
    if col.domain != expected:
        bad.append(
            f"domain mismatch: colored {sorted(col.domain)}, "
            f"reduced vertices {sorted(expected)}"
        )
        return False, bad
    if col.num_classes > ext.base.dim + 1:
        bad.append(f"{col.num_classes} classes exceed {ext.base.dim + 1}")
        return False, bad
    a, classes = col.assignment, col.classes
    for l in range(len(ext.base.facets)):
        roles = facet_roles(ext, l)
        members = roles.members
        # member -> (what its class must meet the facet in, its role)
        want = {v: (frozenset({v}), "vertex") for v in members}
        for i, (u, t) in enumerate(roles.pairs):
            pair = frozenset({u, t})
            want[u] = (pair, "chain point" if i else "origin")
            want[t] = (pair, "vertex")
        if roles.last is not None:
            want[roles.last] = (frozenset({roles.last}), "last point")
        for v in sorted(members):
            must, role = want[v]
            got = classes[a[v]] & members
            if got != must:
                bad.append(
                    f"facet {l}: {role} class of {v} meets facet in "
                    f"{sorted(got)}, expected {sorted(must)}"
                )
    return not bad, bad


# ---------------------------------------------------------------------------
# G' and full validity


def _run_reduced_graph(ext: ExtensionComplex) -> Graph:
    """reduced_graph(ext), built once per run scope."""
    return memoized(("reduced_graph", ext), lambda: reduced_graph(ext))


def g_prime_graph(ext: ExtensionComplex) -> Graph:
    """Reduced-graph edges that are also skeleton edges, on the base vertices."""
    base = memoized(("skeleton_graph", ext.base), lambda: skeleton_graph(ext.base))
    red = _run_reduced_graph(ext)
    return Graph(frozenset(range(ext.n_base)), red.edges & base.edges)


def coloration_valid(ext: ExtensionComplex, col: Coloration, require_good: bool = True) -> bool:
    ok, _ = is_binomial_coloration(ext, col)
    if not ok:
        return False
    return is_good_coloration(g_prime_graph(ext), col) if require_good else True


# ---------------------------------------------------------------------------
# search


def search_binomial_coloration(
    ext: ExtensionComplex, require_good: bool = True
) -> Coloration | None:
    """Backtracking over merge groups of reduced vertices; returns the first
    coloration that passes the binomial conditions, goodness on G' (unless
    disabled), and uses every class. Forced merges: origin and chain pairs."""
    d1 = ext.base.dim + 1
    red = _run_reduced_graph(ext)
    verts = sorted(red.vertex_ids)
    if len(verts) < d1:
        return None
    parent = {v: v for v in verts}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    facet_members: list[frozenset[int]] = []
    facet_pairs: list[frozenset[frozenset[int]]] = []
    for l in range(len(ext.base.facets)):
        roles = facet_roles(ext, l)
        facet_members.append(roles.members)
        facet_pairs.append(frozenset(frozenset(p) for p in roles.pairs))
        for u, v in roles.pairs:
            parent[find(u)] = find(v)

    groups: dict[int, list[int]] = {}
    for v in verts:
        groups.setdefault(find(v), []).append(v)
    glist = list(groups.values())
    # a group may meet a facet only in a designated pair or a single vertex
    for g in glist:
        for members, allowed in zip(facet_members, facet_pairs):
            inter = frozenset(g) & members
            if len(inter) >= 2 and inter not in allowed:
                return None

    deg = {v: 0 for v in verts}
    for u, v in red.edges:
        deg[u] += 1
        deg[v] += 1
    glist.sort(key=lambda g: (-(len(g) > 1), -max(deg[v] for v in g), min(g)))
    meets = [
        [l for l, members in enumerate(facet_members) if frozenset(g) & members]
        for g in glist
    ]

    color: list[int | None] = [None] * len(glist)

    def solve(i: int, used: int):
        if i == len(glist):
            if used != d1:
                return None
            amap = {v: color[gi] for gi, g in enumerate(glist) for v in g}
            cand = Coloration.from_map(d1, amap)
            return cand if coloration_valid(ext, cand, require_good) else None
        for c in range(min(used + 1, d1)):
            ok = True
            for l in meets[i]:
                for gj in range(i):
                    if color[gj] == c and l in meets[gj]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            color[i] = c
            got = solve(i + 1, max(used, c + 1))
            if got is not None:
                return got
            color[i] = None
        return None

    return solve(0, 0)


# ---------------------------------------------------------------------------
# construction for generalized d-trees


def dtree_coloration(ext: ExtensionComplex) -> Coloration:
    """Recursive coloration along a leaf order of the facets.

    Processes facets so each new one meets the already-colored part inside a
    single earlier facet; assigns the origin pair one class, chain points the
    class of the following target, everything else the lowest class unused in
    the facet, the last point dead last. Output is re-validated.
    """
    base = ext.base
    d1 = base.dim + 1
    verdict = is_generalized_d_tree(skeleton_graph(base), base.dim)
    if not verdict.verdict:
        raise NotADTree(verdict.reason or "not a generalized d-tree")
    order = quasi_tree_order(base.facets)
    if order is None:
        raise NotADTree("facets admit no leaf order")

    colors: dict[int, int] = {}

    def used_in(members: frozenset[int]) -> set[int]:
        return {colors[v] for v in members if v in colors}

    def lowest_free(members: frozenset[int]) -> int:
        used = used_in(members)
        for c in range(d1):
            if c not in used:
                return c
        raise ValidationFailed("no class left unused in facet")

    for l in order:
        roles = facet_roles(ext, l)
        members, pairs = roles.members, roles.pairs
        if pairs:
            x0, x2 = pairs[0]
            if x0 in colors and x2 in colors:
                if colors[x0] != colors[x2]:
                    raise ValidationFailed(
                        f"facet {l}: origin pair pre-colored apart"
                    )
            elif x0 in colors:
                colors[x2] = colors[x0]
            elif x2 in colors:
                colors[x0] = colors[x2]
            else:
                colors[x2] = lowest_free(members)
                colors[x0] = colors[x2]
        for v in sorted(base.facets[l]):
            if v not in colors:
                colors[v] = lowest_free(members)
        for y, nxt in pairs[1:]:
            if y not in colors:
                colors[y] = colors[nxt]
        if roles.last is not None and roles.last not in colors:
            colors[roles.last] = lowest_free(members)

    col = Coloration.from_map(d1, colors)
    ok, bad = is_binomial_coloration(ext, col)
    if not ok:
        raise ValidationFailed("; ".join(bad))
    return col


def find_coloration(
    ext: ExtensionComplex, require_good: bool = True
) -> tuple[Coloration | None, str]:
    """The d-tree construction where it applies, else the first coloration
    the search finds (None when there is none), with the method's name.

    A skeleton can pass the d-tree criterion while its facets admit no leaf
    order (a ring of three triangles), so the search is the fallback for both.
    The d-tree attempt is made once per run scope, so the `reduce` fallback
    that asks again after the theorem failed reuses it.
    """
    col = memoized(("dtree_coloration", ext), lambda: _dtree_attempt(ext))
    if col is not None:
        return col, "dtree"
    return search_binomial_coloration(ext, require_good=require_good), "search"


def _dtree_attempt(ext: ExtensionComplex) -> Coloration | None:
    try:
        return dtree_coloration(ext)
    except NotADTree:
        return None


# ---------------------------------------------------------------------------
# reduction vectors


@dataclass(frozen=True)
class ReductionVectors:
    forms: tuple[Polynomial, ...]

    @cached_property
    def _hash(self) -> int:
        return hash(self.forms)

    def __hash__(self) -> int:
        # a run-memo key: hashed once per object, not once per lookup
        return self._hash


def reduction_vectors(col: Coloration, ring: Ring) -> ReductionVectors:
    """g_i = sum of the variables in class i, as linear forms in ring."""
    forms = []
    for i, cls in enumerate(col.classes):
        if not cls:
            raise EmptyClass(f"class {i} is empty")
        forms.append(ring.linear(sorted(cls)))
    return ReductionVectors(tuple(forms))
