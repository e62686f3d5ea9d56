"""Extension complexes: facets stretched along proper edges by chains of new
points, the scroll matrices those chains define, their 2x2 minor ideals, the
per-facet component ideals, the binomial extension ideal, and the reduced
graph used by colorations.
"""
from __future__ import annotations

from functools import cached_property
from collections import namedtuple
from itertools import combinations

from .complexes import (
    Graph,
    ProperStar,
    SimplicialComplex,
    Vertex,
    graph,
    is_proper_edge,
    skeleton_graph,
    stanley_reisner_generators,
)
from .poly import MonomialOrder, Polynomial, Ring, memoized


class NotAProperEdge(ValueError):
    """A declared extension edge also lies in another facet."""


class OriginMismatch(ValueError):
    """Origin/target ids do not form edges of the declared facet."""


class DuplicatePointName(ValueError):
    """A new point name collides with a vertex or another point."""


class FacetOutOfRange(ValueError):
    """An extension names a facet index the base complex does not have."""


class FacetExtendedTwice(ValueError):
    """Two extensions name the same facet."""


class EmptyExtension(ValueError):
    """The facet carries no new points, so it has no scroll matrix; or no
    extension at all, so it has no origin either."""


class FacetExtension(namedtuple("FacetExtension", "star points")):
    """One facet's extension data: star (ProperStar) and points
    (tuple[tuple[str, ...], ...], the point names per edge, parallel to
    star.targets)."""

    __slots__ = ()

    def __new__(cls, star: ProperStar, points: tuple[tuple[str, ...], ...]):
        if len(points) != len(star.targets):
            raise ValueError(f"{len(points)} point lists for {len(star.targets)} targets")
        return super().__new__(cls, star, points)

    @property
    def total_points(self) -> int:
        return sum(len(p) for p in self.points)


class ExtensionComplex(
    namedtuple("ExtensionComplex", "base extensions var_names point_ids")
):
    """A base complex with its extensions. base (SimplicialComplex);
    extensions (tuple[FacetExtension | None, ...], a slot per base facet);
    var_names (tuple[str, ...], the base vertices first, then the points);
    point_ids (tuple[tuple[tuple[int, ...], ...] | None, ...], per facet the
    variable ids of each edge's points)."""

    __slots__ = ()

    @property
    def n_base(self) -> int:
        return len(self.base.vertices)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def facet_points(self, l: int) -> tuple[int, ...]:
        ids = self.point_ids[l]
        return tuple(v for edge in ids for v in edge) if ids else ()

    def extended_facet(self, l: int) -> frozenset[int]:
        return self.base.facets[l] | frozenset(self.facet_points(l))

    def is_trivial(self, l: int) -> bool:
        fe = self.extensions[l]
        return fe is None or fe.total_points == 0

    def origin_is_private(self, l: int) -> bool:
        """The origin lies in facet l only (interior vertex)."""
        fe = self.extensions[l]
        if fe is None:
            raise EmptyExtension(f"facet {l} has no extension, so no origin")
        o = fe.star.origin
        return not any(o in f for i, f in enumerate(self.base.facets) if i != l)

    def extended_complex(self) -> SimplicialComplex:
        vertices = tuple(Vertex(i, n) for i, n in enumerate(self.var_names))
        facets = tuple(self.extended_facet(l) for l in range(len(self.base.facets)))
        return SimplicialComplex(vertices, facets)

    def ring(self, field, order: str = "degrevlex") -> Ring:
        return Ring(self.var_names, field, MonomialOrder(order))


def build_extension_complex(
    base: SimplicialComplex, exts: list[FacetExtension]
) -> ExtensionComplex:
    """Validate extension data against the base complex and assign point ids."""
    slots: list[FacetExtension | None] = [None] * len(base.facets)
    for fe in exts:
        l = fe.star.facet
        if not 0 <= l < len(base.facets):
            raise FacetOutOfRange(f"facet index {l} out of range")
        if slots[l] is not None:
            raise FacetExtendedTwice(f"facet {l} extended twice")
        f = base.facets[l]
        if fe.star.origin not in f:
            raise OriginMismatch(
                f"origin {base.name_of(fe.star.origin)!r} not in facet {base.names(f)}"
            )
        if not fe.star.targets:
            raise OriginMismatch("extension star declares no targets")
        seen: set[int] = set()
        for t in fe.star.targets:
            if t == fe.star.origin or t not in f or t in seen:
                raise OriginMismatch(
                    f"bad target {base.name_of(t) if t < len(base.vertices) else t!r} "
                    f"for facet {base.names(f)}"
                )
            seen.add(t)
            if not is_proper_edge(base, l, fe.star.origin, t):
                raise NotAProperEdge(
                    f"edge ({base.name_of(fe.star.origin)}, {base.name_of(t)}) "
                    f"lies in another facet"
                )
        slots[l] = fe

    names = [v.name for v in base.vertices]
    used = set(names)
    point_ids: list[tuple[tuple[int, ...], ...] | None] = [None] * len(base.facets)
    for l, fe in enumerate(slots):
        if fe is None:
            continue
        per_edge: list[tuple[int, ...]] = []
        for edge_names in fe.points:
            ids = []
            for nm in edge_names:
                if nm in used:
                    raise DuplicatePointName(f"point name {nm!r} already in use")
                used.add(nm)
                ids.append(len(names))
                names.append(nm)
            per_edge.append(tuple(ids))
        point_ids[l] = tuple(per_edge)
    return ExtensionComplex(base, tuple(slots), tuple(names), tuple(point_ids))


# ---------------------------------------------------------------------------
# scroll matrices and minors


class ScrollBlock(namedtuple("ScrollBlock", "run")):
    """run (tuple[int, ...], variable ids): consecutive pairs are the
    block's columns."""

    __slots__ = ()

    def __new__(cls, run: tuple[int, ...]):
        if len(run) < 2 or len(set(run)) != len(run):
            raise ValueError(f"a block needs at least two distinct variables, got {run}")
        return super().__new__(cls, run)

    @property
    def columns(self) -> list[tuple[int, int]]:
        return [(self.run[k], self.run[k + 1]) for k in range(len(self.run) - 1)]


class ScrollMatrix(namedtuple("ScrollMatrix", "facet blocks")):
    """facet (int, its index) and blocks (tuple[ScrollBlock, ...])."""

    __slots__ = ()

    @property
    def columns(self) -> list[tuple[int, int]]:
        return [c for b in self.blocks for c in b.columns]


def scroll_matrix(ext: ExtensionComplex, l: int) -> ScrollMatrix:
    """Blocks for facet l: the first runs origin, first-edge points, first
    target; each later edge with points runs its points into its target."""
    fe = ext.extensions[l]
    if fe is None or fe.total_points == 0:
        raise EmptyExtension(f"facet {l} has no new points")
    ids = ext.point_ids[l]
    blocks = [ScrollBlock((fe.star.origin, *ids[0], fe.star.targets[0]))]
    for j in range(1, len(fe.star.targets)):
        if ids[j]:
            blocks.append(ScrollBlock((*ids[j], fe.star.targets[j])))
    return ScrollMatrix(l, tuple(blocks))


def _pair_monomial(ring: Ring, i: int, j: int) -> Polynomial:
    return Polynomial(ring, {ring.product((i, j)): ring.field.one})


def column_minor(m: ScrollMatrix, ring: Ring, c1: int, c2: int) -> Polynomial:
    """2x2 determinant of columns c1 < c2: top1*bot2 - bot1*top2."""
    if not c1 < c2:
        raise ValueError(f"columns must be given in increasing order, got {c1}, {c2}")
    cols = m.columns
    (t1, b1), (t2, b2) = cols[c1], cols[c2]
    return _pair_monomial(ring, t1, b2).sub(_pair_monomial(ring, b1, t2))


def scroll_minors(m: ScrollMatrix, ring: Ring) -> list[Polynomial]:
    """All 2x2 determinants over column pairs, in lexicographic pair order."""
    out: list[Polynomial] = []
    for c1, c2 in combinations(range(len(m.columns)), 2):
        p = column_minor(m, ring, c1, c2)
        if p not in out:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# ideals


class IdealPresentation(
    namedtuple("IdealPresentation", "ring generators label", defaults=("",))
):
    """An ideal by its generators: ring (Ring), generators
    (tuple[Polynomial, ...]) and label (str, default "")."""

    # no __slots__: the instance keeps a __dict__ for its cached hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ring, self.generators, self.label))

    def __hash__(self) -> int:
        # a run-memo key: hashed once per object, not once per lookup
        return self._hash


def facet_minors(ext: ExtensionComplex, ring: Ring, l: int) -> list[Polynomial]:
    if ext.is_trivial(l):
        return []
    return scroll_minors(scroll_matrix(ext, l), ring)


def component_ideals(ext: ExtensionComplex, ring: Ring) -> list[IdealPresentation]:
    """Per facet: scroll minors plus every variable outside the extended facet."""
    out = []
    for l in range(len(ext.base.facets)):
        gens = facet_minors(ext, ring, l)
        inside = ext.extended_facet(l)
        gens += [ring.var(v) for v in range(ext.nvars) if v not in inside]
        out.append(IdealPresentation(ring, tuple(gens), label=f"J_{l}"))
    return out


def binomial_extension_generators(
    ext: ExtensionComplex, ring: Ring
) -> tuple[list[Polynomial], list[tuple[int, ...]]]:
    """B's generators in two parts: every facet's scroll minors, each kept
    at its first occurrence, then the minimal non-faces of the extended
    complex as sorted vertex-id tuples (square-free monomials, unpacked)."""
    minors = (p for l in range(len(ext.base.facets)) for p in facet_minors(ext, ring, l))
    return list(dict.fromkeys(minors)), stanley_reisner_generators(ext.extended_complex())


def binomial_extension_ideal(ext: ExtensionComplex, ring: Ring) -> IdealPresentation:
    """All scroll minors together with the minimal non-faces of the extended
    complex (as square-free monomials); built once per run scope for each
    complex and ring."""

    def build() -> IdealPresentation:
        minors, non_faces = binomial_extension_generators(ext, ring)
        one = ring.field.one
        monomials = (Polynomial(ring, {ring.product(nf): one}) for nf in non_faces)
        return IdealPresentation(ring, (*minors, *monomials), label="B")

    return memoized(("binomial_extension_ideal", ext, ring), build)


# ---------------------------------------------------------------------------
# coloration roles


class FacetRoles(namedtuple("FacetRoles", "origin targets firsts members")):
    """Who plays which part in the star of one extended facet; the reduced
    graph and the binomial-coloration conditions read only these.

    origin (int | None, None when the facet carries no point); targets
    (tuple[int, ...]); firsts (tuple[int | None, ...], y_2..y_k, None for an
    edge without points); members (frozenset[int], the facet's base vertices
    plus every y_j)."""

    __slots__ = ()

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Same-class pairs: (x0, t_2), then (y_j, t_(j+1)) for 2 <= j < k
        where y_j exists. Empty when k < 2."""
        if len(self.targets) < 2:
            return ()
        chain = [(y, t) for y, t in zip(self.firsts, self.targets[2:]) if y is not None]
        return ((self.origin, self.targets[1]), *chain)

    @property
    def last(self) -> int | None:
        """y_k, alone in its class among the members; None when k < 2."""
        return self.firsts[-1] if self.firsts else None


def facet_roles(ext: ExtensionComplex, l: int) -> FacetRoles:
    """The star roles of facet l; a facet without points has no origin, no
    target and no first point, and its members are its base vertices."""
    if ext.is_trivial(l):
        return FacetRoles(None, (), (), ext.base.facets[l])
    fe, ids = ext.extensions[l], ext.point_ids[l]
    firsts = tuple(edge[0] if edge else None for edge in ids[1:])
    members = ext.base.facets[l].union(y for y in firsts if y is not None)
    return FacetRoles(fe.star.origin, fe.star.targets, firsts, members)


# ---------------------------------------------------------------------------
# reduced graph


def reduced_graph(ext: ExtensionComplex) -> Graph:
    """Base skeleton with, per facet with targets t_1..t_k: edges
    (origin, t_j) dropped for j >= 2, and the first point of each such edge
    joined to the origin and to t_2."""
    base_edges = set(skeleton_graph(ext.base).edges)
    vertices = set(range(ext.n_base))
    added: set[tuple[int, int]] = set()
    dropped: set[tuple[int, int]] = set()
    for l in range(len(ext.base.facets)):
        roles = facet_roles(ext, l)
        o = roles.origin
        for t, y in zip(roles.targets[1:], roles.firsts):
            dropped.add((min(o, t), max(o, t)))
            if y is not None:
                vertices.add(y)
                added.add((min(o, y), max(o, y)))
                t2 = roles.targets[1]
                added.add((min(t2, y), max(t2, y)))
    edges = (base_edges - dropped) | added
    return graph(vertices, edges)
