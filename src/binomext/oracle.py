"""Cross-checks of the fast paths against Groebner-basis ground truth: the
`oracle` command and the `--oracle` section of any other command.

Only those two load this module (`cli.run` imports it when asked), so the
other commands' cold starts do not compile it. It does not import
`binomext.cli`: a `python -m binomext.cli` run executes cli.py as
`__main__`, and importing it again here would execute it a second time.
"""

from __future__ import annotations

from .color import ReductionVectors
from .extension import (
    IdealPresentation,
    binomial_extension_ideal,
    component_ideals,
    scroll_matrix,
)
from .poly import (
    Polynomial,
    covered_columns,
    division_table,
    groebner_basis,
    hilbert_data,
    ideal_intersection_many,
    krull_dimension_lt,
    normal_form,
    rref_rows,
)
from .reduce import (
    BothXVariables,
    degree_containment,
    fallback_reduction,
    modB_normal_pair,
    monomial_covered,
)


def rank_coverage(
    vectors: ReductionVectors, b: IdealPresentation, rho: int
) -> tuple[tuple[int, ...], frozenset[int]]:
    """All degree-(rho+1) monomials, packed, and the subset covered by the
    span of {g_i * m : deg m = rho} and {m * gen : deg = rho+1, gen of B}:
    the containment by exact linear algebra, independent of the basis
    GB(B + G) that `reduce` reads it from.

    Monomial generators strike their multiples outright, found through a
    division table of those generators; the remaining rows are reduced
    exactly over the field.
    """
    ring = b.ring
    deg = rho + 1
    cols = ring.monomials_of_degree(deg)
    low_monos = [g for g in b.generators if len(g.terms) == 1 and g.degree() <= deg]
    binom_gens = [g for g in b.generators if len(g.terms) > 1 and g.degree() <= deg]
    divisor = division_table(low_monos, ring).divisor
    struck = {m for m in cols if divisor(m) is not None}
    remaining = [m for m in cols if m not in struck]
    idx = {m: i for i, m in enumerate(remaining)}

    rows: list[dict[int, object]] = []

    def shifted_row(p: Polynomial, shift: int) -> dict[int, object]:
        # every product has degree deg, so none can cross a field
        row: dict[int, object] = {}
        for mono, c in p.terms.items():
            col = idx.get(mono + shift)
            if col is not None:
                row[col] = c
        return row

    # the forms are linear, so each generator's multipliers have degree
    # deg less its own; each degree is listed once
    multipliers: dict[int, list[int]] = {}
    for g in (*binom_gens, *vectors.forms):
        e = deg - g.degree()
        if e not in multipliers:
            multipliers[e] = ring.monomials_of_degree(e)
        for m in multipliers[e]:
            row = shifted_row(g, m)
            if row:
                rows.append(row)

    _, pivrows = rref_rows(rows, len(remaining), ring.field)
    covered = struck.union(remaining[c] for c in covered_columns(pivrows))
    return tuple(cols), frozenset(covered)


def cross_checks(model) -> tuple[bool, dict]:
    """Recompute fast-path answers against Groebner-basis ground truth.

    model is a `cli.Model`; only its ext, ring and doc's rho_max are read.
    Returns the verdict and the report's `oracle` section.
    """
    ext, ring, rho_max = model.ext, model.ring, model.doc["options"]["rho_max"]
    base = ext.base
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": ok, "detail": detail})

    b = binomial_extension_ideal(ext, ring)
    gb_b = groebner_basis(list(b.generators), ring)
    comps = component_ideals(ext, ring)
    comp_gbs = [groebner_basis(list(c.generators), ring) for c in comps]
    tables = [division_table(gb_c, ring) for gb_c in comp_gbs]

    inter = ideal_intersection_many([list(c.generators) for c in comps], ring)
    record(
        "intersection",
        gb_b == inter,
        f"basis sizes {len(gb_b)} vs {len(inter)}",
    )

    expected = 1 + base.dim
    dims_ok = True
    details = []
    kd = krull_dimension_lt(gb_b, ring)
    hd = hilbert_data(gb_b, ring)
    dims_ok &= kd == hd.dimension == expected
    details.append(f"ideal: lt {kd}, series {hd.dimension}, expected {expected}")
    for c, gb_c, facet in zip(comps, comp_gbs, base.facets):
        want = len(facet)
        kd_c = krull_dimension_lt(gb_c, ring)
        hd_c = hilbert_data(gb_c, ring).dimension
        dims_ok &= kd_c == hd_c == want
        details.append(f"{c.label}: lt {kd_c}, series {hd_c}, expected {want}")
    record("dimensions", bool(dims_ok), "; ".join(details))

    # the rewriter's binomials use only the extended facet's variables, and
    # J_l is its minors plus every other variable, so such a binomial lies
    # in J_l exactly when it lies in the ideal of the minors
    pairs = 0
    rewrite_ok = True
    for l in range(len(base.facets)):
        if ext.is_trivial(l):
            continue
        m = scroll_matrix(ext, l)
        entries = sorted({v for blk in m.blocks for v in blk.run})
        for i, u in enumerate(entries):
            for v in entries[i + 1 :]:
                try:
                    trace = modB_normal_pair(m, u, v, ring)
                except BothXVariables:
                    continue
                pairs += 1
                a, c = trace.start
                d, e = trace.final
                diff = ring.var(a).mul(ring.var(c)).sub(ring.var(d).mul(ring.var(e)))
                if not normal_form(diff, comp_gbs[l], tables[l]).is_zero():
                    rewrite_ok = False
    record("rewriter", rewrite_ok, f"{pairs} variable pairs checked")

    cert = fallback_reduction(ext, ring, rho_max)
    vectors, rep = cert.vectors, cert.reduction
    # `verify_sop` reads dim R/B off the complex as dim Delta + 1; this is
    # the GB(B) side of that closed form
    if rep is None:
        record("sop", True, "skipped: the fallback certificate claims no system of parameters")
    else:
        count = len(vectors.forms)
        record("sop", kd == count, f"{count} forms for dimension {kd}")
    if cert.coloration is None:
        record("containment", True, "skipped: no coloration available")
    elif vectors is None:
        record("containment", True, f"skipped: the {cert.method} coloration leaves a class empty")
    else:
        rhos = [1]  # without a reduction number only rho = 1 is cross-checked
        if rep is not None and rep.reduction_number not in (None, 1):
            rhos.append(rep.reduction_number)
        cont_ok = True
        checked = 0
        for rho in rhos:
            contained, _ = degree_containment(vectors, b, rho)
            cols, covered = rank_coverage(vectors, b, rho)
            for mono in cols:
                if monomial_covered(vectors, b, mono) != (mono in covered):
                    cont_ok = False
            checked += len(cols)
            if contained != (len(covered) == len(cols)):
                cont_ok = False
        record(
            "containment",
            cont_ok,
            f"{checked} monomials cross-checked via {cert.method} coloration",
        )

    member_ok = True
    for gb_c, table in zip(comp_gbs, tables):
        for g in b.generators:
            if not normal_form(g, gb_c, table).is_zero():
                member_ok = False
    record("membership", member_ok, f"{len(b.generators)} generators vs {len(comps)} components")

    diffs = [c["name"] for c in checks if not c["ok"]]
    return not diffs, {"oracle": {"checks": checks, "diffs": diffs}}
