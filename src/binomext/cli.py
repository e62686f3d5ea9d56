"""Command-line interface: JSON input documents, JSON reports, stable output.

Commands: validate, ideal, decompose, hilbert, color, reduce, oracle.
Exit codes: 0 success, 1 verification failed, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import json.encoder
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass

from . import poly
from .color import (
    Coloration,
    ReductionVectors,
    find_coloration,
    g_prime_graph,
    is_binomial_coloration,
    is_good_coloration,
)
from .complexes import (
    DuplicateVertexInFacet,
    EmptyFacet,
    ProperStar,
    is_generalized_d_tree,
    skeleton_graph,
    stanley_reisner_generators,
    validate_complex,
)
from .extension import (
    DuplicatePointName,
    ExtensionComplex,
    FacetExtendedTwice,
    FacetExtension,
    FacetOutOfRange,
    IdealPresentation,
    NotAProperEdge,
    OriginMismatch,
    binomial_extension_generators,
    binomial_extension_ideal,
    build_extension_complex,
    component_ideals,
    facet_minors,
    reduced_graph,
    scroll_matrix,
)
from .poly import (
    Polynomial,
    Ring,
    covered_columns,
    division_table,
    field_by_name,
    groebner_basis,
    hilbert_data,
    ideal_intersection_many,
    krull_dimension_lt,
    normal_form,
    rref_rows,
)
from .reduce import (
    BothXVariables,
    Certificate,
    certify,
    degree_containment,
    fallback_reduction,
    modB_normal_pair,
    monomial_covered,
)

COMMANDS = ("validate", "ideal", "decompose", "hilbert", "color", "reduce", "oracle")
ORDERS = ("lex", "deglex", "degrevlex")

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

INPUT_ERRORS = (
    EmptyFacet,
    DuplicateVertexInFacet,
    NotAProperEdge,
    OriginMismatch,
    DuplicatePointName,
    FacetOutOfRange,
    FacetExtendedTwice,
)


class SchemaError(ValueError):
    """Input document violates the expected structure."""


class UnknownName(ValueError):
    """A vertex name in the document does not resolve."""


# ---------------------------------------------------------------------------
# input documents


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {what}")


def _str_list(value, where: str) -> list[str]:
    _expect(isinstance(value, list), where, "expected a list of strings")
    for i, n in enumerate(value):
        _expect(isinstance(n, str) and n, f"{where}[{i}]", "expected a non-empty string")
    return list(value)


def parse_document(data) -> dict:
    """Validate a decoded JSON object and return its canonical form: the
    defaults materialized, and every list built anew, so the result shares
    nothing with data. Reports echo it as `input`."""
    _expect(isinstance(data, dict), "document", "top level must be an object")
    known = {"comment", "vertices", "facets", "extensions", "field", "order", "options"}
    for k in data:
        _expect(k in known, "document", f"unknown field {k!r}")
    doc: dict = {}

    comment = data.get("comment")
    if comment is not None:
        _expect(isinstance(comment, str), "comment", "expected a string")
        doc["comment"] = comment

    if "vertices" in data:
        vertices = _str_list(data["vertices"], "vertices")
        _expect(len(set(vertices)) == len(vertices), "vertices", "names must be unique")
        doc["vertices"] = vertices

    _expect("facets" in data, "document", "missing required field 'facets'")
    raw_facets = data["facets"]
    _expect(isinstance(raw_facets, list) and raw_facets, "facets", "expected a non-empty list")
    doc["facets"] = [_str_list(f, f"facets[{i}]") for i, f in enumerate(raw_facets)]

    raw_extensions = data.get("extensions", [])
    _expect(isinstance(raw_extensions, list), "extensions", "expected a list")
    doc["extensions"] = []
    for i, raw in enumerate(raw_extensions):
        where = f"extensions[{i}]"
        _expect(isinstance(raw, dict), where, "expected an object")
        for k in raw:
            _expect(k in {"facet", "origin", "edges"}, where, f"unknown field {k!r}")
        _expect(
            isinstance(raw.get("facet"), int) and not isinstance(raw.get("facet"), bool),
            f"{where}.facet",
            "expected an integer facet index",
        )
        _expect(isinstance(raw.get("origin"), str), f"{where}.origin", "expected a vertex name")
        raw_edges = raw.get("edges")
        _expect(
            isinstance(raw_edges, list) and raw_edges,
            f"{where}.edges",
            "expected a non-empty list",
        )
        edges = []
        for j, e in enumerate(raw_edges):
            ewhere = f"{where}.edges[{j}]"
            _expect(isinstance(e, dict), ewhere, "expected an object")
            for k in e:
                _expect(k in {"target", "points"}, ewhere, f"unknown field {k!r}")
            _expect(isinstance(e.get("target"), str), f"{ewhere}.target", "expected a vertex name")
            points = _str_list(e.get("points", []), f"{ewhere}.points")
            edges.append({"target": e["target"], "points": points})
        doc["extensions"].append(
            {"facet": raw["facet"], "origin": raw["origin"], "edges": edges}
        )

    field_spec = data.get("field", 32003)
    if isinstance(field_spec, bool) or not isinstance(field_spec, (int, str)):
        raise SchemaError("field: expected a prime integer or 'rational'")
    if isinstance(field_spec, str) and field_spec != "rational":
        raise SchemaError(f"field: unknown field name {field_spec!r}")
    if isinstance(field_spec, int):
        try:
            field_by_name(field_spec)
        except ValueError as exc:
            raise SchemaError(f"field: {exc}") from exc
    doc["field"] = field_spec

    order = data.get("order", "degrevlex")
    _expect(order in ORDERS, "order", f"expected one of {', '.join(ORDERS)}")
    doc["order"] = order

    options = data.get("options", {})
    _expect(isinstance(options, dict), "options", "expected an object")
    for k in options:
        _expect(k in {"rho_max", "seed"}, "options", f"unknown field {k!r}")
    rho_max = options.get("rho_max", 10)
    _expect(
        isinstance(rho_max, int) and not isinstance(rho_max, bool) and rho_max >= 1,
        "options.rho_max",
        "expected a positive integer",
    )
    seed = options.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool), "options.seed", "expected an integer")
    doc["options"] = {"rho_max": rho_max, "seed": seed}
    return doc


def parse_input(path: str) -> dict:
    """Read and validate a JSON input document from a file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to decode") from None
    return parse_document(data)


# ---------------------------------------------------------------------------
# model construction


@dataclass(frozen=True)
class Model:
    doc: dict  # as parse_document returns it
    ext: ExtensionComplex
    ring: Ring


def build_model(doc: dict) -> Model:
    """Resolve names, normalize the complex, and attach extensions."""
    facets, vertices = doc["facets"], doc.get("vertices")
    if vertices is not None:
        declared = set(vertices)
        for i, f in enumerate(facets):
            for n in f:
                if n not in declared:
                    raise UnknownName(f"facets[{i}]: vertex {n!r} is not in the vertex list")
        used = {n for f in facets for n in f}
        for n in vertices:
            if n not in used:
                raise SchemaError(f"vertices: {n!r} appears in no facet")
    base = validate_complex(facets, vertices)
    known = {v.name for v in base.vertices}
    kept_index = {f: i for i, f in enumerate(base.facets)}

    exts: list[FacetExtension] = []
    seen: set[int] = set()
    for i, e in enumerate(doc["extensions"]):
        where = f"extensions[{i}]"
        facet, origin = e["facet"], e["origin"]
        if not 0 <= facet < len(facets):
            raise SchemaError(f"{where}.facet: index {facet} out of range")
        fs = frozenset(base.id_of(n) for n in facets[facet])
        if fs not in kept_index:
            raise SchemaError(
                f"{where}.facet: facet {facet} was dropped as contained in another facet"
            )
        l = kept_index[fs]
        if l in seen:
            raise SchemaError(f"{where}.facet: facet {facet} already has an extension")
        seen.add(l)
        if origin not in known:
            raise UnknownName(f"{where}.origin: unknown vertex {origin!r}")
        targets = []
        for j, d in enumerate(e["edges"]):
            if d["target"] not in known:
                raise UnknownName(f"{where}.edges[{j}].target: unknown vertex {d['target']!r}")
            targets.append(base.id_of(d["target"]))
        star = ProperStar(l, base.id_of(origin), tuple(targets))
        exts.append(FacetExtension(star, tuple(tuple(d["points"]) for d in e["edges"])))

    ext = build_extension_complex(base, exts)
    ring = ext.ring(field_by_name(doc["field"]), doc["order"])
    return Model(doc, ext, ring)


# ---------------------------------------------------------------------------
# report sections


def _coloration_section(ext: ExtensionComplex, col: Coloration | None, method: str) -> dict:
    if col is None:
        return {
            "method": method,
            "found": False,
            "num_classes": None,
            "classes": None,
            "binomial_ok": False,
            "good_on_g_prime": False,
            "diagnostics": ["no coloration satisfies the binomial conditions"],
        }
    names = ext.var_names
    ok, diagnostics = is_binomial_coloration(ext, col)
    good = is_good_coloration(g_prime_graph(ext), col)
    return {
        "method": method,
        "found": True,
        "num_classes": col.num_classes,
        "classes": [sorted(names[v] for v in cls) for cls in col.classes],
        "binomial_ok": ok,
        "good_on_g_prime": good,
        "diagnostics": list(diagnostics),
    }


def _reduction_section(cert: Certificate) -> dict:
    section: dict = {"theorem_applies": cert.failure is None, "failure": cert.failure}
    rep, conditions = cert.reduction, cert.facet_conditions
    if rep is None:
        return section
    if conditions is not None:
        conditions = [
            {"facet": fc.facet, "route": fc.route, "details": list(fc.details)}
            for fc in conditions
        ]
    return section | {
        "facet_conditions": conditions,
        "vectors": [str(g) for g in rep.vectors.forms],
        "is_sop": rep.is_sop,
        "verdicts": [[rho, ok] for rho, ok in rep.verdicts],
        "witnesses": [[rho, list(ms)] for rho, ms in rep.witnesses],
        "reduction_number": rep.reduction_number,
        "bound_exceeded": rep.bound_exceeded,
    }


def _cmd_validate(model: Model) -> tuple[bool, dict]:
    ext, base = model.ext, model.ext.base
    red = reduced_graph(ext)
    verdict = is_generalized_d_tree(skeleton_graph(base), base.dim)
    sr = stanley_reisner_generators(base)
    matrices = []
    for l in range(len(base.facets)):
        entry: dict = {"facet": l, "trivial": ext.is_trivial(l)}
        if not ext.is_trivial(l):
            m = scroll_matrix(ext, l)
            entry["blocks"] = [[ext.var_names[v] for v in blk.run] for blk in m.blocks]
        matrices.append(entry)
    section = {
        "vertices": [v.name for v in base.vertices],
        "facets": [sorted(base.name_of(v) for v in f) for f in base.facets],
        "dim": base.dim,
        "variables": list(ext.var_names),
        "is_generalized_dtree": verdict.verdict,
        "dtree_reason": verdict.reason,
        "stanley_reisner_count": len(sr),
        "scroll_matrices": matrices,
        "reduced_graph": {
            "vertices": sorted(ext.var_names[v] for v in red.vertex_ids),
            "edges": sorted(
                sorted((ext.var_names[u], ext.var_names[v])) for u, v in red.edges
            ),
        },
    }
    return True, {"complex": section}


def _cmd_ideal(model: Model) -> tuple[bool, dict]:
    # the strings binomial_extension_ideal's generators print, without
    # packing a monomial per non-face; the non-faces come in order of size,
    # and a pair, nearly all of B at scale, is named by one concatenation
    minors, non_faces = binomial_extension_generators(model.ext, model.ring)
    names = model.ring.names
    prefix = [n + "*" for n in names]
    k = bisect_right(non_faces, 2, key=len)
    polynomials = [str(p) for p in minors]
    polynomials += [prefix[u] + names[v] for u, v in non_faces[:k]]
    polynomials += map(model.ring.join_names, non_faces[k:])
    return True, {
        "generators": {"label": "B", "count": len(polynomials), "polynomials": polynomials}
    }


def _cmd_decompose(model: Model) -> tuple[bool, dict]:
    ext, ring = model.ext, model.ring
    b = binomial_extension_ideal(ext, ring)
    comps = component_ideals(ext, ring)
    gb_b = groebner_basis(list(b.generators), ring)
    inter = ideal_intersection_many([list(c.generators) for c in comps], ring)
    equal = gb_b == inter
    section = [
        {
            "label": c.label,
            "count": len(c.generators),
            "polynomials": [str(p) for p in c.generators],
        }
        for c in comps
    ]
    return equal, {
        "components": {
            "ideals": section,
            "groebner_size": len(gb_b),
            "intersection_size": len(inter),
            "intersection_equals_ideal": equal,
        }
    }


def _cmd_hilbert(model: Model) -> tuple[bool, dict]:
    ext, ring = model.ext, model.ring
    b = binomial_extension_ideal(ext, ring)
    gb_b = groebner_basis(list(b.generators), ring)
    hd = hilbert_data(gb_b, ring)
    expected = 1 + ext.base.dim
    comps = []
    ok = hd.dimension == expected
    for c, facet in zip(component_ideals(ext, ring), ext.base.facets):
        gb_c = groebner_basis(list(c.generators), ring)
        dim_c = hilbert_data(gb_c, ring).dimension
        want = len(facet)
        ok = ok and dim_c == want
        comps.append({"label": c.label, "dimension": dim_c, "expected": want})
    section = {
        "dimension": hd.dimension,
        "codimension": hd.codimension,
        "degree": hd.degree,
        "numerator": list(hd.numerator),
        "expected_dimension": expected,
        "components": comps,
    }
    return ok, {"hilbert": section}


def _cmd_color(model: Model) -> tuple[bool, dict]:
    col, method = find_coloration(model.ext)
    section = _coloration_section(model.ext, col, method)
    return section["binomial_ok"] and section["good_on_g_prime"], {"coloration": section}


def _cmd_reduce(model: Model) -> tuple[bool, dict]:
    ext = model.ext
    cert = certify(ext, model.ring, model.doc["options"]["rho_max"])
    col, rep = cert.coloration, cert.reduction
    return rep is not None and rep.reduction_number is not None, {
        "coloration": None if col is None else _coloration_section(ext, col, cert.method),
        "reduction": _reduction_section(cert),
    }


# ---------------------------------------------------------------------------
# oracle cross-checks


def _rank_coverage(
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


def _oracle_checks(model: Model) -> tuple[bool, dict]:
    """Recompute fast-path answers against Groebner-basis ground truth."""
    ext, ring, rho_max = model.ext, model.ring, model.doc["options"]["rho_max"]
    base = ext.base
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": ok, "detail": detail})

    b = binomial_extension_ideal(ext, ring)
    gb_b = groebner_basis(list(b.generators), ring)
    comps = component_ideals(ext, ring)
    comp_gbs = [groebner_basis(list(c.generators), ring) for c in comps]

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

    pairs = 0
    rewrite_ok = True
    for l in range(len(base.facets)):
        if ext.is_trivial(l):
            continue
        m = scroll_matrix(ext, l)
        gb_l = groebner_basis(facet_minors(ext, ring, l), ring)
        table = division_table(gb_l, ring)
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
                if not normal_form(diff, gb_l, table).is_zero():
                    rewrite_ok = False
                if trace.family not in (1, 2, 3, 4, 5):
                    rewrite_ok = False
    record("rewriter", rewrite_ok, f"{pairs} variable pairs checked")

    cert = fallback_reduction(ext, ring, rho_max)
    vectors, rep = cert.vectors, cert.reduction
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
            cols, covered = _rank_coverage(vectors, b, rho)
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
    for c, gb_c in zip(comps, comp_gbs):
        table = division_table(gb_c, ring)
        for g in b.generators:
            if not normal_form(g, gb_c, table).is_zero():
                member_ok = False
    record("membership", member_ok, f"{len(b.generators)} generators vs {len(comps)} components")

    diffs = [c["name"] for c in checks if not c["ok"]]
    return not diffs, {"oracle": {"checks": checks, "diffs": diffs}}


# ---------------------------------------------------------------------------
# report assembly


def run(command: str, doc: dict, with_oracle: bool = False) -> dict:
    """Execute a command and assemble its report (deterministic for a given input).

    doc is a document as `parse_document` returns it; the report echoes it,
    unchanged, as `input`. The run is one `poly.run_scope`: each Groebner basis and graded coverage
    is computed once, and `timing` counts that work.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    report: dict = {
        "command": command,
        "input": doc,
        "verdict": None,
        "complex": None,
        "generators": None,
        "components": None,
        "hilbert": None,
        "coloration": None,
        "reduction": None,
        "oracle": None,
        "timing": None,
    }
    handlers = {
        "validate": _cmd_validate,
        "ideal": _cmd_ideal,
        "decompose": _cmd_decompose,
        "hilbert": _cmd_hilbert,
        "color": _cmd_color,
        "reduce": _cmd_reduce,
        "oracle": _oracle_checks,
    }
    with poly.run_scope():
        model = build_model(doc)
        verdict, sections = handlers[command](model)
        report.update(sections)
        if with_oracle and command != "oracle":
            oracle_ok, oracle_section = _oracle_checks(model)
            report.update(oracle_section)
            verdict = verdict and oracle_ok
        report["timing"] = dict(sorted(poly.counters.items()))
    report["verdict"] = verdict
    return report


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode


def render_report(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2, sort_keys=True) + "\n".

    With an indent, json.dumps runs its pure-Python encoder; this walks the
    report once, appending pieces from the C string encoder to one chunk
    list, and joins it once.
    """
    out: list[str] = []
    _render(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, newline: str, out: list[str]) -> None:
    # the type tests in json's own order: a bool is an int, a str may be a
    # subclass
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[" + inner)
        try:
            # a list of strings, such as B's generators, is one join
            out.append(("," + inner).join(map(_encode_str, value)))
        except TypeError:
            for i, item in enumerate(value):
                if i:
                    out.append("," + inner)
                _render(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out += (sep, _encode_str(key), ": ")
            sep = "," + inner
            _render(item, inner, out)
        out.append(newline + "}")
    else:
        # floats, and the TypeError json raises for anything else
        out.append(_encode_scalar(value))


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="binomext",
        description="Binomial extension ideals of simplicial complexes.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="path to a JSON input document")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--field", help="override the document field (prime or 'rational')")
    parser.add_argument("--order", choices=ORDERS, help="override the monomial order")
    parser.add_argument("--rho-max", type=int, help="override the containment search bound")
    parser.add_argument("--seed", type=int, help="override the document seed")
    parser.add_argument("--oracle", action="store_true", help="add Groebner cross-checks")
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        # overrides go into the document, so parse_document validates them
        data = parse_input(args.input)
        if args.field is not None:
            try:
                data["field"] = int(args.field)
            except ValueError:
                data["field"] = args.field
        if args.order is not None:
            data["order"] = args.order
        if args.rho_max is not None:
            data["options"]["rho_max"] = args.rho_max
        if args.seed is not None:
            data["options"]["seed"] = args.seed
        report = run(args.command, parse_document(data), with_oracle=args.oracle)
    except (SchemaError, UnknownName, *INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    text = render_report(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.write(text)
    elapsed = time.monotonic() - started
    print(
        f"{args.command}: verdict={'pass' if report['verdict'] else 'fail'} "
        f"wall={elapsed:.3f}s",
        file=sys.stderr,
    )
    return EXIT_OK if report["verdict"] else EXIT_VERDICT_FALSE


if __name__ == "__main__":
    sys.exit(main())
