"""End-to-end acceptance gates.

One test per gate. Each prints a single `acceptance N: PASS/FAIL` line
(unbuffered, past pytest capture) with the measured runtime so the gate
results are visible in any full-suite log.
"""

from __future__ import annotations

import time
from itertools import combinations

from binomext import (
    BothXVariables,
    RationalField,
    ReductionVectors,
    binomial_extension_ideal,
    buchberger,
    build_extension_complex,
    component_ideals,
    degree_containment,
    dtree_coloration,
    facet_minors,
    g_prime_graph,
    hilbert_data,
    ideal_intersection_many,
    is_binomial_coloration,
    is_good_coloration,
    krull_dimension_lt,
    modB_normal_pair,
    normal_form,
    reduction_number,
    reduction_vectors,
    scroll_matrix,
    stanley_reisner_generators,
    validate_complex,
    verify_main_theorem,
)
from binomext.cli import parse_input, run
from conftest import (
    FIXTURES,
    load_model,
    random_dtree_extension,
    random_scroll_extension,
    random_small_extension,
)


def announce(capsys, gate: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {gate}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def named_var(ring, name: str):
    return ring.var(ring.names.index(name))


# ---------------------------------------------------------------------------


def test_gate_1_tetrahedron_minors_and_hilbert_data(capsys) -> None:
    started = time.monotonic()
    model = load_model("greduit")
    ring = model.ring
    a, b, c, d, x, y, z = (named_var(ring, n) for n in "abcdxyz")
    expected = [
        a.mul(b).sub(x.mul(x)),
        a.mul(c).sub(x.mul(y)),
        a.mul(d).sub(x.mul(z)),
        x.mul(c).sub(b.mul(y)),
        x.mul(d).sub(b.mul(z)),
        y.mul(d).sub(c.mul(z)),
    ]
    minors = facet_minors(model.ext, ring, 0)
    minors_ok = minors == expected

    ideal = binomial_extension_ideal(model.ext, ring)
    hd = hilbert_data(buchberger(list(ideal.generators), ring), ring)
    hilbert_ok = (
        hd.dimension == 4
        and hd.codimension == 3
        and hd.degree == 4
        and hd.degree == 1 + hd.codimension
    )
    elapsed = time.monotonic() - started
    ok = minors_ok and hilbert_ok and elapsed < 1.0
    announce(
        capsys,
        1,
        ok,
        f"6 exact minors={minors_ok}, hilbert (dim,codim,deg)=({hd.dimension},"
        f"{hd.codimension},{hd.degree}), {elapsed:.2f}s (budget 1s)",
    )
    assert minors_ok, [str(p) for p in minors]
    assert hilbert_ok, (hd.dimension, hd.codimension, hd.degree)
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def _decomposition_instances():
    for name in ("greduit", "greduit1", "cycles_pair"):
        model = load_model(name)
        yield name, model.ext, model.ring
    for seed in range(10):
        ext = random_small_extension(seed)
        yield f"random-{seed}", ext, ext.ring(load_model("greduit").ring.field)


def test_gate_2_sum_ideal_equals_component_intersection(capsys) -> None:
    started = time.monotonic()
    failures = []
    count = 0
    for label, ext, ring in _decomposition_instances():
        count += 1
        ideal = binomial_extension_ideal(ext, ring)
        gb = buchberger(list(ideal.generators), ring)
        comps = component_ideals(ext, ring)
        inter = ideal_intersection_many([list(c.generators) for c in comps], ring)
        if gb != inter:
            failures.append(label)
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 60.0
    announce(
        capsys,
        2,
        ok,
        f"{count} instances, failures={failures or 'none'}, "
        f"{elapsed:.1f}s (budget 60s)",
    )
    assert not failures, failures
    assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_gate_3_quotient_dimensions(capsys) -> None:
    started = time.monotonic()
    failures = []
    count = 0
    for label, ext, ring in _decomposition_instances():
        count += 1
        ideal = binomial_extension_ideal(ext, ring)
        gb = buchberger(list(ideal.generators), ring)
        if krull_dimension_lt(gb, ring) != 1 + ext.base.dim:
            failures.append(f"{label}: ideal")
        for l, comp in enumerate(component_ideals(ext, ring)):
            gb_c = buchberger(list(comp.generators), ring)
            want = 1 + (len(ext.base.facets[l]) - 1)
            if krull_dimension_lt(gb_c, ring) != want:
                failures.append(f"{label}: J_{l}")
    elapsed = time.monotonic() - started
    ok = not failures
    announce(
        capsys,
        3,
        ok,
        f"{count} instances, failures={failures or 'none'}, {elapsed:.1f}s",
    )
    assert not failures, failures


def test_gate_4_rewriter_sound_and_complete_on_random_scrolls(capsys) -> None:
    started = time.monotonic()
    failures = []
    pairs = 0
    for seed in range(25):
        ext = random_scroll_extension(seed)
        ring = ext.ring(load_model("greduit").ring.field)
        gb = buchberger(facet_minors(ext, ring, 0), ring)
        m = scroll_matrix(ext, 0)
        entries = sorted({v for blk in m.blocks for v in blk.run})
        for u, v in combinations(entries, 2):
            try:
                trace = modB_normal_pair(m, u, v, ring)
            except BothXVariables:
                continue
            pairs += 1
            diff = (
                ring.var(trace.start[0]).mul(ring.var(trace.start[1]))
                .sub(ring.var(trace.final[0]).mul(ring.var(trace.final[1])))
            )
            if trace.family not in (1, 2, 3, 4, 5):
                failures.append(f"seed {seed}: family {trace.family}")
            elif not normal_form(diff, gb).is_zero():
                failures.append(f"seed {seed}: unsound {trace.start}->{trace.final}")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 30.0
    announce(
        capsys,
        4,
        ok,
        f"25 matrices, {pairs} pairs, failures={failures or 'none'}, "
        f"{elapsed:.1f}s (budget 30s)",
    )
    assert not failures, failures
    assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_gate_5_dtree_construction_certifies_degree_two_coverage(capsys) -> None:
    started = time.monotonic()
    failures = []
    for seed in range(25):
        ext = random_dtree_extension(seed)
        ring = ext.ring(load_model("greduit").ring.field)
        col = dtree_coloration(ext)
        binom_ok, bad = is_binomial_coloration(ext, col)
        if not binom_ok:
            failures.append(f"seed {seed}: {bad[0]}")
            continue
        if not is_good_coloration(g_prime_graph(ext), col):
            failures.append(f"seed {seed}: not good")
            continue
        vectors = reduction_vectors(col, ring)
        ideal = binomial_extension_ideal(ext, ring)
        covered, missing = degree_containment(vectors, ideal, 1)
        if not covered:
            failures.append(f"seed {seed}: uncovered {missing[:3]}")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 120.0
    announce(
        capsys,
        5,
        ok,
        f"25 instances, failures={failures or 'none'}, {elapsed:.1f}s (budget 120s)",
    )
    assert not failures, failures
    assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_gate_6_glued_pair_pipeline_is_field_independent(capsys) -> None:
    started = time.monotonic()
    model = load_model("cycles_pair")
    report = verify_main_theorem(model.ext, model.ring)
    names = model.ext.var_names
    supports = {
        frozenset(names[v] for v in cls)
        for cls in report.coloration.classes
        if cls
    }
    supports_ok = supports == {
        frozenset({"a", "c", "d"}),
        frozenset({"b"}),
        frozenset({"y", "v"}),
    }
    rho_ok = report.reduction.reduction_number == 1

    doc = parse_input(str(FIXTURES / "cycles_pair.json"))
    gf = run("reduce", doc)
    qq = run("reduce", {**doc, "field": "rational"})
    identical = (
        gf["reduction"] == qq["reduction"]
        and gf["coloration"] == qq["coloration"]
        and gf["verdict"] == qq["verdict"]
    )
    elapsed = time.monotonic() - started
    ok = supports_ok and rho_ok and identical
    announce(
        capsys,
        6,
        ok,
        f"classes={sorted(sorted(s) for s in supports)}, rho="
        f"{report.reduction.reduction_number}, field-independent={identical}, "
        f"{elapsed:.1f}s",
    )
    assert supports_ok, supports
    assert rho_ok, report.reduction
    assert identical


def test_gate_7_ten_variable_complex_numbers(capsys) -> None:
    started = time.monotonic()
    model = load_model("cycles_full")
    ring = model.ring
    ideal = binomial_extension_ideal(model.ext, ring)
    hd = hilbert_data(buchberger(list(ideal.generators), ring), ring)
    numbers_ok = hd.degree == 8 and hd.codimension == 7

    lookup = {n: i for i, n in enumerate(model.ext.var_names)}
    vectors = ReductionVectors(
        tuple(
            ring.linear(sorted(lookup[n] for n in cls))
            for cls in ({"a", "c", "d"}, {"b", "e"}, {"f", "v", "y"})
        )
    )
    ok1, _ = degree_containment(vectors, ideal, 1)
    ok2, _ = degree_containment(vectors, ideal, 2)
    rep = reduction_number(model.ext, vectors, ideal, model.doc["options"]["rho_max"])
    rho_ok = (not ok1) and ok2 and rep.reduction_number == 2
    elapsed = time.monotonic() - started
    ok = numbers_ok and rho_ok
    announce(
        capsys,
        7,
        ok,
        f"reconstructed fixture: degree={hd.degree}, codim={hd.codimension}, "
        f"rho1={ok1}, rho2={ok2}, reduction_number={rep.reduction_number}, "
        f"{elapsed:.1f}s",
    )
    assert numbers_ok, (hd.degree, hd.codimension)
    assert rho_ok, (ok1, ok2, rep.reduction_number)


def _empty_extension_instances():
    pair = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    from binomext import FacetExtension, ProperStar

    yield "extended-pair", build_extension_complex(
        pair,
        [
            FacetExtension(ProperStar(0, pair.id_of("a"), (pair.id_of("b"),)), ((),)),
            FacetExtension(ProperStar(1, pair.id_of("d"), (pair.id_of("c"),)), ((),)),
        ],
    )
    strip = validate_complex([["a", "b", "c"], ["b", "c", "d"], ["c", "d", "e"]])
    yield "bare-strip", build_extension_complex(strip, [])
    path = validate_complex([["a", "b"], ["b", "c"], ["c", "d"]])
    yield "bare-path", build_extension_complex(path, [])


def test_gate_8_pointless_extensions_degenerate_to_nonface_ideals(capsys) -> None:
    started = time.monotonic()
    failures = []
    for label, ext in _empty_extension_instances():
        ring = ext.ring(load_model("greduit").ring.field)
        ideal = binomial_extension_ideal(ext, ring)
        expected = []
        for nonface in stanley_reisner_generators(ext.extended_complex()):
            exps = [0] * ring.nvars
            for v in nonface:
                exps[v] = 1
            expected.append(ring.monomial(tuple(exps)))
        if list(ideal.generators) != expected:
            failures.append(f"{label}: generators differ")
            continue
        col = dtree_coloration(ext)
        rep = reduction_number(ext, reduction_vectors(col, ring), ideal)
        if rep.reduction_number != 1:
            failures.append(f"{label}: rho {rep.reduction_number}")
    elapsed = time.monotonic() - started
    ok = not failures
    announce(
        capsys,
        8,
        ok,
        f"3 pointless instances, failures={failures or 'none'}, {elapsed:.1f}s",
    )
    assert not failures, failures


def test_gate_9_oracle_concordance_on_all_fixtures(capsys) -> None:
    started = time.monotonic()
    failures = []
    for name in ("greduit", "greduit1", "cycles_pair", "cycles_full"):
        report = run("oracle", parse_input(str(FIXTURES / f"{name}.json")))
        if report["verdict"] is not True or report["oracle"]["diffs"]:
            failures.append(f"{name}: diffs {report['oracle']['diffs']}")
    elapsed = time.monotonic() - started
    ok = not failures
    announce(
        capsys,
        9,
        ok,
        f"4 fixtures, failures={failures or 'none'}, {elapsed:.1f}s",
    )
    assert not failures, failures
