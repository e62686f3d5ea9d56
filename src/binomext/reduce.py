"""Reduction-number machinery: the two-variable monomial rewriter along
scroll minors, system-of-parameters checking, degree-bounded containment
of m^(rho+1) in G*m^rho + B, the end-to-end verifier combining
coloration, hypotheses, and containment, and `certify`, which returns the
verifier's certificate or, when the theorem does not apply, the fallback's.

Both questions are read off the two Groebner bases `verify_sop` computes,
GB(B) and GB(B + G): the dimension from their leading monomials, the
containment from the standard monomials of GB(B + G), and its witnesses
and single-monomial memberships from normal forms modulo that basis.
"""
from __future__ import annotations

from collections import namedtuple

from .color import (
    EmptyClass,
    ReductionVectors,
    find_coloration,
    g_prime_graph,
    is_good_coloration,
    reduction_vectors,
)
from .extension import (
    ExtensionComplex,
    IdealPresentation,
    ScrollMatrix,
    binomial_extension_ideal,
    column_minor,
    facet_roles,
    scroll_matrix,
)
from .poly import (
    Polynomial,
    Ring,
    _bump,
    division_table,
    groebner_basis,
    has_standard_monomials,
    krull_dimension_lt,
    memoized,
)


class NotInMatrix(ValueError):
    """A variable of the pair does not appear in the scroll matrix."""


class BothXVariables(ValueError):
    """Both variables are run endpoints; the rewriter handles mixed pairs."""


class WrongCount(ValueError):
    """Number of linear forms differs from the quotient dimension."""


class NotSOP(ValueError):
    """The forms are not a system of parameters modulo the ideal."""


class RewriterDiverged(RuntimeError):
    """The rewriter took more slides than the matrix has positions squared."""


class NoSlide(RuntimeError):
    """The rewriter asked to slide a pair that no scroll minor moves."""


class NoColorationFound(RuntimeError):
    """No coloration satisfying the binomial conditions exists."""


class HypothesisFailed(RuntimeError):
    """A verifier hypothesis (goodness, facet condition, SOP) is violated."""


class ContainmentFailed(RuntimeError):
    """Degree-2 containment fails; arguments carry uncovered monomials."""


# The ways the main theorem can fail to apply: no binomial coloration, a
# violated hypothesis, or an uncovered degree-2 monomial.
THEOREM_FAILURES = (NoColorationFound, HypothesisFailed, ContainmentFailed)

# The ways the reduction-vector certificate can fail to apply to a coloration:
# a class with no vertex gives no form, and the forms must be a system of
# parameters, one per dimension of the quotient.
REDUCTION_FAILURES = (EmptyClass, WrongCount, NotSOP)


# ---------------------------------------------------------------------------
# rewriter


class RewriteStep(namedtuple("RewriteStep", "minor result")):
    """minor (Polynomial, the scroll minor applied) and result
    (tuple[int, int], the variable ids after the step)."""

    __slots__ = ()


class RewriteTrace(namedtuple("RewriteTrace", "start steps final family")):
    """start and final (tuple[int, int], variable ids), steps
    (tuple[RewriteStep, ...]) and family (int)."""

    __slots__ = ()


def _positions(m: ScrollMatrix) -> dict[int, tuple[int, int]]:
    pos: dict[int, tuple[int, int]] = {}
    for b, block in enumerate(m.blocks):
        for i, v in enumerate(block.run):
            if v in pos:
                raise ValueError(f"variable {v} lies in two runs of the matrix")
            pos[v] = (b, i)
    return pos


def _is_x(m: ScrollMatrix, p: tuple[int, int]) -> bool:
    b, i = p
    return i == len(m.blocks[b].run) - 1 or p == (0, 0)


def _family(m: ScrollMatrix, p: tuple[int, int], q: tuple[int, int]) -> int | None:
    """Family number of a canonical pair, or None. p <= q in position order."""
    (pb, pi), (qb, qi) = p, q
    px, qx = _is_x(m, p), _is_x(m, q)
    if p == (0, 0):  # x_0 cases
        if qb == 0:
            return 1 if qx else 4
        if qx:
            return None  # x_0 * x_n, n >= 2: both endpoints
        return 5 if qi == 0 else None
    if px and qx:
        return None
    if px != qx:
        # lone endpoint must sit in a block no later than the inner variable
        xb = pb if px else qb
        yb = qb if px else pb
        return 2 if xb <= yb else None
    # both inner: canonical when the later one heads a later block, or when
    # both share a block (after the first) that the earlier one heads
    if qi == 0 and qb >= 1:
        return 3
    if pb == qb and pi == 0 and pb >= 1:
        return 3
    return None


def _global_column(m: ScrollMatrix, b: int, t: int) -> int:
    return sum(len(bl.run) - 1 for bl in m.blocks[:b]) + t


def _slide(m: ScrollMatrix, p: tuple[int, int], q: tuple[int, int]):
    """One slide of a non-canonical pair: its new positions and the two
    columns of the minor that moves it."""
    (pb, pi), (qb, qi) = p, q
    last = len(m.blocks[pb].run) - 1
    if pb == qb:
        if pi < 1 or qi >= last:
            raise NoSlide(f"no slide available for positions {p} and {q}")
        c1, c2 = _global_column(m, pb, pi - 1), _global_column(m, pb, qi)
        return (pb, pi - 1), (qb, qi + 1), c1, c2
    if pi >= last or qi < 1:
        raise NoSlide(f"no slide available for positions {p} and {q}")
    c1, c2 = _global_column(m, pb, pi), _global_column(m, qb, qi - 1)
    return (pb, pi + 1), (qb, qi - 1), c1, c2


def modB_normal_pair(m: ScrollMatrix, u: int, v: int, ring: Ring) -> RewriteTrace:
    """Slide the product u*v along scroll minors to a canonical family.

    Same-block pairs slide apart toward the run ends; cross-block pairs slide
    the earlier variable up and the later one down. Every state not in a
    family admits exactly one slide, so the trace is deterministic.
    """
    if u == v:
        raise NotInMatrix("need two distinct variables")
    pos = _positions(m)
    if u not in pos or v not in pos:
        missing = u if u not in pos else v
        raise NotInMatrix(f"variable {ring.names[missing]!r} not in the matrix")
    p, q = sorted((pos[u], pos[v]))
    if _is_x(m, p) and _is_x(m, q):
        raise BothXVariables(
            f"{ring.names[m.blocks[p[0]].run[p[1]]]}*{ring.names[m.blocks[q[0]].run[q[1]]]}"
        )

    def var_at(t: tuple[int, int]) -> int:
        return m.blocks[t[0]].run[t[1]]

    start = (var_at(p), var_at(q))
    steps: list[RewriteStep] = []
    bound = sum(len(b.run) for b in m.blocks) ** 2
    while True:
        fam = _family(m, p, q)
        if fam is not None:
            return RewriteTrace(start, tuple(steps), (var_at(p), var_at(q)), fam)
        if len(steps) >= bound:
            raise RewriterDiverged(f"no canonical family after {bound} slides")
        p, q, c1, c2 = _slide(m, p, q)
        steps.append(RewriteStep(column_minor(m, ring, c1, c2), (var_at(p), var_at(q))))


# ---------------------------------------------------------------------------
# graded containment


def _basis_with_forms(vectors: ReductionVectors, b: IdealPresentation) -> list[Polynomial]:
    """GB(B + G), the basis `verify_sop` computes, from the run memo.

    G is linear and B homogeneous, so (B + G)_(rho+1) = B_(rho+1) + G*m^rho:
    the containment in degree rho+1 is a question about this basis.
    """
    ring = b.ring
    for g in b.generators:
        if len(set(map(ring.degree, g.terms))) != 1:
            raise ValueError(f"generator {g} is not homogeneous")
    for g in vectors.forms:
        if any(ring.degree(m) != 1 for m in g.terms):
            raise ValueError(f"form {g} is not linear")
    return groebner_basis(list(b.generators) + list(vectors.forms), ring)


def _graded_coverage(
    vectors: ReductionVectors, b: IdealPresentation, rho: int
) -> tuple[tuple[int, ...], frozenset[int]]:
    """All degree-(rho+1) monomials, packed, and the subset that lies in
    G*m^rho + B: those whose normal form modulo GB(B + G) is zero.

    Computed once per run scope for each value of vectors, b and rho; both
    hash once per object, so a lookup hashes no polynomial.

    The normal forms make one table, filled in ascending order: a monomial
    with no divisor is its own normal form, and m = q*lm(g) for its divisor
    g has NF(m) = -lc(g)^-1 * sum of c_t * NF(q*t) over g's tail terms c_t*t,
    as the remainder modulo a Groebner basis is unique and linear (Cox,
    Little & O'Shea, Ideals, Varieties, and Algorithms, 2.6). GB(B + G) is
    homogeneous, so each q*t is a smaller monomial of the same degree,
    already in the table: the Macaulay-matrix sharing of F4 (Faugere, JPAA
    1999). The table counts as one normal form per monomial.
    """
    ring = b.ring

    def compute() -> tuple[tuple[int, ...], frozenset[int]]:
        gb = _basis_with_forms(vectors, b)
        divisor = division_table(gb, ring).divisor
        red, zero, one = ring.field.red, ring.field.zero, ring.field.one
        cols = tuple(ring.monomials_of_degree(rho + 1))
        empty: dict = {}  # every zero normal form
        nf: dict[int, dict] = {}
        for m in sorted(cols, key=ring.key):
            row = divisor(m)
            if row is None:
                nf[m] = {m: one}
                continue
            _, gm, ginv, gterms = row
            q, acc = m - gm, {}
            for t, a in gterms.items():
                if t == gm:
                    continue
                w = red(-a * ginv)
                for u, v in nf[q + t].items():
                    s = red(acc.get(u, zero) + w * v)
                    if s:
                        acc[u] = s
                    else:
                        del acc[u]
            nf[m] = acc or empty
        _bump("normal_forms", len(cols))
        return cols, frozenset(m for m in cols if not nf[m])

    return memoized(("coverage", vectors, b, rho), compute)


def degree_containment(
    vectors: ReductionVectors, b: IdealPresentation, rho: int
) -> tuple[bool, list[str]]:
    """Exact verdict for m^(rho+1) contained in G*m^rho + B, with the
    uncovered degree-(rho+1) monomials as witnesses on failure.

    The containment holds exactly when GB(B + G) leaves no standard monomial
    of degree rho+1 (Macaulay: HF(R/I) = HF(R/lt I)); only a failure reads
    the graded coverage for its witnesses.
    """
    if rho < 1:
        raise ValueError(f"rho must be at least 1, got {rho}")
    if not has_standard_monomials(_basis_with_forms(vectors, b), b.ring, rho + 1):
        return True, []
    cols, covered = _graded_coverage(vectors, b, rho)
    missing = [m for m in cols if m not in covered]
    return not missing, [b.ring.mono_str(m) for m in missing]


def monomial_covered(vectors: ReductionVectors, b: IdealPresentation, m: int) -> bool:
    """Whether the packed monomial m of b.ring, of degree d >= 2, lies in
    B_d + G*R_(d-1); a set lookup once the run holds that degree's coverage."""
    deg = b.ring.degree(m)
    if deg < 2:
        raise ValueError(f"monomial of degree {deg}; the span starts in degree 2")
    _, covered = _graded_coverage(vectors, b, deg - 1)
    return m in covered


# ---------------------------------------------------------------------------
# system of parameters and reduction number


def verify_sop(vectors: ReductionVectors, b: IdealPresentation) -> bool:
    """True iff the forms cut the quotient down to dimension zero; the number
    of forms must equal the quotient dimension."""
    ring = b.ring
    gb_b = groebner_basis(list(b.generators), ring)
    dim = krull_dimension_lt(gb_b, ring)
    if len(vectors.forms) != dim:
        raise WrongCount(f"{len(vectors.forms)} forms for dimension {dim}")
    gb_all = groebner_basis(list(b.generators) + list(vectors.forms), ring)
    return krull_dimension_lt(gb_all, ring) == 0


class ReductionReport(
    namedtuple(
        "ReductionReport",
        "vectors is_sop verdicts witnesses reduction_number bound_exceeded",
    )
):
    """vectors (ReductionVectors); is_sop (bool); verdicts
    (tuple[tuple[int, bool], ...], the (rho, contained) pairs); witnesses
    (tuple[tuple[int, tuple[str, ...]], ...], each failing rho with its
    uncovered monomials); reduction_number (int | None); bound_exceeded
    (bool)."""

    __slots__ = ()


def reduction_number(
    vectors: ReductionVectors, b: IdealPresentation, rho_max: int = 10
) -> ReductionReport:
    """Smallest rho <= rho_max with the degree containment; requires SOP."""
    if rho_max < 1:
        raise ValueError(f"rho_max must be at least 1, got {rho_max}")
    if not verify_sop(vectors, b):
        raise NotSOP("forms do not generate a zero-dimensional quotient with B")
    verdicts: list[tuple[int, bool]] = []
    witnesses: list[tuple[int, tuple[str, ...]]] = []
    found: int | None = None
    for rho in range(1, rho_max + 1):
        ok, missing = degree_containment(vectors, b, rho)
        verdicts.append((rho, ok))
        if ok:
            found = rho
            break
        witnesses.append((rho, tuple(missing)))
    return ReductionReport(
        vectors=vectors,
        is_sop=True,
        verdicts=tuple(verdicts),
        witnesses=tuple(witnesses),
        reduction_number=found,
        bound_exceeded=found is None,
    )


# ---------------------------------------------------------------------------
# end-to-end verifier and its fallback


class FacetCondition(namedtuple("FacetCondition", "facet route details", defaults=((),))):
    """facet (int); route (str: "trivial", "single-edge", "private-origin"
    or "degree-2-span"); details (tuple[str, ...], default ())."""

    __slots__ = ()


class Certificate(
    namedtuple(
        "Certificate",
        "method coloration vectors reduction facet_conditions failure",
        defaults=(None, None),
    )
):
    """A reduction-number certificate: the coloration, its reduction vectors
    and the containment search. The main theorem's carries its per-facet
    conditions and no failure; the fallback's carries no conditions, and a
    part it could not reach is None. `certify`'s failure names why the
    theorem did not apply, then why the fallback stopped, if it did.

    method (str, find_coloration's: "dtree" or "search"); coloration
    (Coloration | None); vectors (ReductionVectors | None); reduction
    (ReductionReport | None); facet_conditions (tuple[FacetCondition, ...]
    | None, default None); failure (str | None, default None)."""

    __slots__ = ()


def _facet_condition(
    ext: ExtensionComplex,
    l: int,
    vectors: ReductionVectors,
    b: IdealPresentation,
    ring: Ring,
) -> FacetCondition:
    """Per-facet hypothesis: facets without a matrix or with one edge pass;
    otherwise the origin is private, or every product origin*first-point of
    a later edge must already lie in the degree-2 span."""
    if ext.is_trivial(l):
        return FacetCondition(l, "trivial")
    roles = facet_roles(ext, l)
    if len(roles.targets) < 2:
        return FacetCondition(l, "single-edge")
    if ext.origin_is_private(l):
        return FacetCondition(l, "private-origin")
    mtx = scroll_matrix(ext, l)
    x0 = roles.origin
    details = []
    for y in roles.firsts:
        if y is None:
            continue
        if not monomial_covered(vectors, b, ring.product((x0, y))):
            raise HypothesisFailed(
                f"facet {l}: {ring.names[x0]}*{ring.names[y]} not in the degree-2 span"
            )
        trace = modB_normal_pair(mtx, x0, y, ring)
        details.append(
            f"{ring.names[x0]}*{ring.names[y]}: "
            f"{len(trace.steps)} steps to family {trace.family}"
        )
    return FacetCondition(l, "degree-2-span", tuple(details))


def verify_main_theorem(ext: ExtensionComplex, ring: Ring) -> Certificate:
    """Full pipeline: coloration, reduction vectors, goodness on G', per-facet
    hypotheses, then SOP and the degree-2 containment, which together give
    reduction number 1."""
    base = ext.base
    col, method = find_coloration(ext)
    if col is None:
        raise NoColorationFound("no binomial coloration exists")
    try:
        vectors = reduction_vectors(col, ring)
    except EmptyClass as exc:
        raise HypothesisFailed(f"reduction vectors: {exc}") from None
    b = binomial_extension_ideal(ext, ring)
    if not is_good_coloration(g_prime_graph(ext), col):
        raise HypothesisFailed("coloration is not good on G'")
    conditions = tuple(
        _facet_condition(ext, l, vectors, b, ring)
        for l in range(len(base.facets))
    )
    try:
        report = reduction_number(vectors, b, 1)
    except NotSOP:
        raise HypothesisFailed("reduction vectors are not a system of parameters") from None
    if report.reduction_number != 1:
        missing = report.witnesses[0][1]
        raise ContainmentFailed("uncovered degree-2 monomials: " + ", ".join(missing))
    return Certificate(method, col, vectors, report, facet_conditions=conditions)


def fallback_reduction(ext: ExtensionComplex, ring: Ring, rho_max: int = 10) -> Certificate:
    """The certificate when the main theorem does not apply: the smallest
    rho <= rho_max with the degree containment, for the reduction vectors of
    the first binomial coloration, good or not.

    The coloration is None when none exists. When one of REDUCTION_FAILURES
    stops the certificate, its reduction is None and its failure names the
    cause; its vectors are None too when a class is empty.
    """
    col, method = find_coloration(ext, require_good=False)
    if col is None:
        return Certificate(method, None, None, None)
    vectors = None
    try:
        vectors = reduction_vectors(col, ring)
        b = binomial_extension_ideal(ext, ring)
        return Certificate(method, col, vectors, reduction_number(vectors, b, rho_max))
    except REDUCTION_FAILURES as exc:
        return Certificate(method, col, vectors, None, failure=f"{type(exc).__name__}: {exc}")


def certify(ext: ExtensionComplex, ring: Ring, rho_max: int = 10) -> Certificate:
    """The main theorem's certificate where it applies. Otherwise the
    fallback's, whose failure names why the theorem did not apply, then,
    after "; then ", why the fallback stopped too, if it did."""
    try:
        return verify_main_theorem(ext, ring)
    except THEOREM_FAILURES as exc:
        failure = f"{type(exc).__name__}: {exc}"
    cert = fallback_reduction(ext, ring, rho_max)
    if cert.failure is not None:
        failure += f"; then {cert.failure}"
    return cert._replace(failure=failure)
