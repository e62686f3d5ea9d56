"""Monomial rewriter, system-of-parameters checks, degree containment,
reduction numbers, and the end-to-end verifier."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomext.reduce as reduce_module
from binomext import (
    BothXVariables,
    Coloration,
    ContainmentFailed,
    HypothesisFailed,
    NoColorationFound,
    NoSlide,
    NotADTree,
    NotInMatrix,
    NotSOP,
    Polynomial,
    PrimeField,
    ProperStar,
    FacetExtension,
    IdealPresentation,
    MonomialOrder,
    RationalField,
    ReductionVectors,
    RewriterDiverged,
    Ring,
    ScrollBlock,
    ScrollMatrix,
    WrongCount,
    binomial_extension_ideal,
    buchberger,
    build_extension_complex,
    certify,
    degree_containment,
    dtree_coloration,
    facet_minors,
    modB_normal_pair,
    monomial_covered,
    normal_form,
    reduction_number,
    reduction_vectors,
    run_scope,
    scroll_matrix,
    validate_complex,
    verify_main_theorem,
    verify_sop,
)
from binomext.cli import build_model, parse_document, run
from binomext.color import EmptyClass, find_coloration
from binomext.oracle import rank_coverage
from binomext.poly import counters
from binomext.reduce import THEOREM_FAILURES, ReductionReport, fallback_reduction
from conftest import (
    ALL_FIXTURE_NAMES,
    FIXTURES,
    load_model,
    extension_document,
    random_dtree_extension,
    random_scroll_extension,
    random_small_extension,
)
from test_golden_counters import strip_document


def vid(model, name: str) -> int:
    return model.ext.var_names.index(name)


def pair_poly(ring, u: int, v: int):
    e = [0] * ring.nvars
    e[u] += 1
    e[v] += 1
    return ring.monomial(tuple(e))


def vectors_by_names(model, classes) -> ReductionVectors:
    lookup = {n: i for i, n in enumerate(model.ext.var_names)}
    return ReductionVectors(
        tuple(model.ring.linear(sorted(lookup[n] for n in cls)) for cls in classes)
    )


# ---------------------------------------------------------------------------
# rewriter on the tetrahedron fixture


def test_rewrite_inner_times_far_endpoint(greduit) -> None:
    m = scroll_matrix(greduit.ext, 0)
    ring = greduit.ring
    trace = modB_normal_pair(m, vid(greduit, "x"), vid(greduit, "c"), ring)
    assert trace.family == 2
    assert len(trace.steps) == 1
    assert {ring.names[v] for v in trace.final} == {"b", "y"}
    x, c, b, y = (vid(greduit, n) for n in "xcby")
    expected_minor = pair_poly(ring, x, c).sub(pair_poly(ring, b, y))
    assert trace.steps[0].minor in (expected_minor, expected_minor.neg())


def test_rewrite_origin_times_first_point_is_canonical(greduit) -> None:
    m = scroll_matrix(greduit.ext, 0)
    trace = modB_normal_pair(m, vid(greduit, "a"), vid(greduit, "x"), greduit.ring)
    assert trace.family == 4
    assert trace.steps == ()
    assert trace.final == trace.start


def test_rewrite_later_point_times_last_endpoint(greduit) -> None:
    m = scroll_matrix(greduit.ext, 0)
    ring = greduit.ring
    trace = modB_normal_pair(m, vid(greduit, "y"), vid(greduit, "d"), ring)
    assert trace.family == 2
    assert len(trace.steps) == 1
    assert {ring.names[v] for v in trace.final} == {"c", "z"}
    y, d, c, z = (vid(greduit, n) for n in "ydcz")
    expected_minor = pair_poly(ring, y, d).sub(pair_poly(ring, c, z))
    assert trace.steps[0].minor in (expected_minor, expected_minor.neg())


def test_a_rewriter_that_never_reaches_a_family_stops_at_its_bound(greduit, monkeypatch) -> None:
    # a slide that goes nowhere would loop for ever; the bound stops it with
    # a typed error instead of an assert that python -O strips
    monkeypatch.setattr(reduce_module, "_family", lambda m, p, q: None)
    monkeypatch.setattr(reduce_module, "_slide", lambda m, p, q: (p, q, 0, 1))
    m = scroll_matrix(greduit.ext, 0)
    bound = sum(len(b.run) for b in m.blocks) ** 2
    with pytest.raises(RewriterDiverged, match=f"^no canonical family after {bound} slides$"):
        modB_normal_pair(m, vid(greduit, "x"), vid(greduit, "c"), greduit.ring)


# a block's first position cannot slide toward the start, and its last
# cannot slide toward the end
NO_SLIDE_MATRIX = ScrollMatrix(0, (ScrollBlock((0, 1, 2)), ScrollBlock((3, 4))))
NO_SLIDE_PAIRS = (((0, 0), (0, 2)), ((0, 1), (0, 2)), ((0, 2), (1, 1)), ((0, 1), (1, 0)))


def test_a_pair_with_no_slide_is_a_typed_error() -> None:
    for p, q in NO_SLIDE_PAIRS:
        message = f"no slide available for positions {p} and {q}"
        with pytest.raises(NoSlide, match=re.escape(message)):
            reduce_module._slide(NO_SLIDE_MATRIX, p, q)
    # each of the four pairs raises under python -O too, which strips asserts
    code = (
        "from binomext.extension import ScrollBlock, ScrollMatrix\n"
        "from binomext.reduce import NoSlide, _slide\n"
        f"m = {NO_SLIDE_MATRIX!r}\n"
        f"for p, q in {NO_SLIDE_PAIRS!r}:\n"
        "    try:\n"
        "        _slide(m, p, q)\n"
        "    except NoSlide:\n"
        "        print('NoSlide')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["NoSlide"] * len(NO_SLIDE_PAIRS)


def test_rewrite_rejects_two_endpoints(greduit) -> None:
    m = scroll_matrix(greduit.ext, 0)
    with pytest.raises(BothXVariables):
        modB_normal_pair(m, vid(greduit, "b"), vid(greduit, "c"), greduit.ring)
    with pytest.raises(BothXVariables):
        modB_normal_pair(m, vid(greduit, "a"), vid(greduit, "b"), greduit.ring)


def test_rewrite_rejects_foreign_and_repeated_variables(cycles_pair) -> None:
    m = scroll_matrix(cycles_pair.ext, 0)
    ring = cycles_pair.ring
    with pytest.raises(NotInMatrix):
        modB_normal_pair(m, vid(cycles_pair, "d"), vid(cycles_pair, "y"), ring)
    with pytest.raises(NotInMatrix):
        modB_normal_pair(m, vid(cycles_pair, "y"), vid(cycles_pair, "y"), ring)


def test_rewrite_rejects_runs_that_share_a_variable() -> None:
    ring = Ring(("a", "b", "c"), PrimeField())
    m = ScrollMatrix(0, (ScrollBlock((0, 1)), ScrollBlock((1, 2))))
    with pytest.raises(ValueError, match="two runs"):
        modB_normal_pair(m, 0, 2, ring)


# ---------------------------------------------------------------------------
# rewriter on blocks with several points


def _exhaustive_rewrites(ext, ring, l: int):
    """Yield the trace of every in-matrix pair that has an inner variable."""
    m = scroll_matrix(ext, l)
    run_vars = sorted({v for b in m.blocks for v in b.run})
    for u, v in combinations(run_vars, 2):
        try:
            yield modB_normal_pair(m, u, v, ring)
        except BothXVariables:
            continue


def test_same_block_point_pairs_terminate() -> None:
    base = validate_complex([["a", "b", "c"]])
    star = ProperStar(0, base.id_of("a"), (base.id_of("b"), base.id_of("c")))
    ext = build_extension_complex(
        base, [FacetExtension(star, ((), ("p1", "p2", "p3")))]
    )
    ring = ext.ring(PrimeField(32003))
    p1, p2, p3, c = (ring.names.index(n) for n in ("p1", "p2", "p3", "c"))
    m = scroll_matrix(ext, 0)
    head = modB_normal_pair(m, p1, p2, ring)
    assert head.family == 3 and head.steps == ()
    slid = modB_normal_pair(m, p2, p3, ring)
    assert slid.family == 2
    assert len(slid.steps) == 1
    assert set(slid.final) == {p1, c}


def test_rewriter_sound_and_complete_on_random_scrolls() -> None:
    for seed in range(10):
        ext = random_scroll_extension(seed)
        ring = ext.ring(PrimeField(32003))
        gb = buchberger(facet_minors(ext, ring, 0), ring)
        m = scroll_matrix(ext, 0)
        bound = sum(len(b.run) for b in m.blocks) ** 2
        for trace in _exhaustive_rewrites(ext, ring, 0):
            assert 1 <= trace.family <= 5, f"seed {seed}"
            assert len(trace.steps) <= bound, f"seed {seed}"
            diff = pair_poly(ring, *trace.start).sub(pair_poly(ring, *trace.final))
            assert normal_form(diff, gb).is_zero(), f"seed {seed}: {trace}"
            for step in trace.steps:
                assert normal_form(step.minor, gb).is_zero(), f"seed {seed}"


# ---------------------------------------------------------------------------
# system of parameters


def test_sop_accepts_the_tetrahedron_vectors(greduit) -> None:
    b = binomial_extension_ideal(greduit.ext, greduit.ring)
    vecs = reduction_vectors(dtree_coloration(greduit.ext), greduit.ring)
    assert verify_sop(vecs, b)


def test_sop_wrong_count_is_reported(greduit) -> None:
    b = binomial_extension_ideal(greduit.ext, greduit.ring)
    vecs = reduction_vectors(dtree_coloration(greduit.ext), greduit.ring)
    with pytest.raises(WrongCount):
        verify_sop(ReductionVectors(vecs.forms[:-1]), b)


def test_sop_rejects_degenerate_forms(greduit) -> None:
    b = binomial_extension_ideal(greduit.ext, greduit.ring)
    bad = vectors_by_names(greduit, [{"a"}, {"b"}, {"c"}, {"d"}])
    assert not verify_sop(bad, b)
    with pytest.raises(NotSOP):
        reduction_number(bad, b)


def test_sop_over_the_rationals(cycles_pair) -> None:
    ring = cycles_pair.ext.ring(RationalField())
    b = binomial_extension_ideal(cycles_pair.ext, ring)
    col = dtree_coloration(cycles_pair.ext)
    assert verify_sop(reduction_vectors(col, ring), b)


def test_simplex_coordinates_are_parameters() -> None:
    base = validate_complex([["a", "b", "c"]])
    ext = build_extension_complex(base, [])
    ring = ext.ring(PrimeField(32003))
    b = binomial_extension_ideal(ext, ring)
    assert b.generators == ()
    vecs = ReductionVectors(tuple(ring.var(i) for i in range(3)))
    assert verify_sop(vecs, b)
    report = reduction_number(vecs, b)
    assert report.reduction_number == 1


# ---------------------------------------------------------------------------
# degree containment and reduction number


def test_containment_holds_at_one_on_the_tetrahedron(greduit) -> None:
    b = binomial_extension_ideal(greduit.ext, greduit.ring)
    vecs = reduction_vectors(dtree_coloration(greduit.ext), greduit.ring)
    ok, missing = degree_containment(vecs, b, 1)
    assert ok and missing == []
    for rho in (2, 3):
        ok, _ = degree_containment(vecs, b, rho)
        assert ok, f"containment lost at rho={rho}"


def test_containment_matches_ideal_membership(cycles_pair) -> None:
    ring = cycles_pair.ring
    b = binomial_extension_ideal(cycles_pair.ext, ring)
    vecs = reduction_vectors(dtree_coloration(cycles_pair.ext), ring)
    gb = buchberger(list(b.generators) + list(vecs.forms), ring)
    for mono in ring.monomials_of_degree(2):
        member = normal_form(Polynomial(ring, {mono: ring.field.one}), gb).is_zero()
        assert monomial_covered(vecs, b, mono) == member, ring.mono_str(mono)


def test_containment_starts_in_degree_two(greduit) -> None:
    b = binomial_extension_ideal(greduit.ext, greduit.ring)
    vecs = reduction_vectors(dtree_coloration(greduit.ext), greduit.ring)
    with pytest.raises(ValueError, match="at least 1"):
        degree_containment(vecs, b, 0)
    with pytest.raises(ValueError, match="degree 1"):
        monomial_covered(vecs, b, greduit.ring.product((0,)))
    with pytest.raises(ValueError, match="degree 0"):
        monomial_covered(vecs, b, greduit.ring.product(()))


def test_containment_rejects_inhomogeneous_generators() -> None:
    # the graded coverage's table of one degree holds only monomials of that
    # degree; the check comes before any table is built, so a lookup never
    # fails on a monomial of another degree
    ring = Ring(("x", "y"), PrimeField())
    b = IdealPresentation(ring, (ring.monomial((2, 0)).sub(ring.var(1)),))
    vecs = ReductionVectors((ring.var(0),))
    with pytest.raises(ValueError, match="not homogeneous"):
        degree_containment(vecs, b, 1)
    with run_scope():
        for m in (ring.product((0, 1)), ring.product((1, 1, 1))):
            with pytest.raises(ValueError, match="not homogeneous"):
                monomial_covered(vecs, b, m)


@pytest.mark.parametrize(
    "field",
    [PrimeField(32003), PrimeField(4294967311), RationalField()],
    ids=["gf32003", "gf4294967311", "rational"],
)
@pytest.mark.parametrize("order", ["degrevlex", "lex", "deglex"])
def test_the_degree_table_matches_one_normal_form_per_monomial(order, field) -> None:
    # random homogeneous monomials and binomials for B, and seeded linear
    # forms, from none up to one per variable: with few forms, most
    # monomials are standard and their normal forms long combinations
    rng = random.Random(f"{order} {field.name}")
    ring = Ring(("a", "b", "c", "d", "e"), field, MonomialOrder(order))
    one = field.one

    def monomial(degree: int) -> int:
        return ring.product(sorted(rng.randrange(ring.nvars) for _ in range(degree)))

    standard = covered = 0
    for _ in range(6):
        gens = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(2, 3)
            terms = {monomial(d): one}
            if rng.random() < 0.6:
                terms[monomial(d)] = field.of(rng.choice([-1, 2, -3]))
            gens.append(Polynomial(ring, terms))
        forms = tuple(
            ring.linear(sorted(rng.sample(range(ring.nvars), rng.randint(1, 3)))).add(
                ring.var(rng.randrange(ring.nvars)).mul_term(0, rng.choice([2, -1]))
            )
            for _ in range(rng.randint(0, ring.nvars))
        )
        b = IdealPresentation(ring, tuple(gens))
        vecs = ReductionVectors(tuple(f for f in forms if f.terms))
        gb = buchberger(list(b.generators) + list(vecs.forms), ring)
        for rho in (1, 2, 3):
            monos = ring.monomials_of_degree(rho + 1)
            want = {
                m for m in monos if normal_form(Polynomial(ring, {m: one}), gb).is_zero()
            }
            with run_scope():
                reduce_module._basis_with_forms(vecs, b)
                forms_before = counters["normal_forms"]
                cols, got = reduce_module._graded_coverage(vecs, b, rho)
                # the table counts one normal form per monomial
                assert counters["normal_forms"] == forms_before + len(monos)
            assert cols == tuple(monos)
            assert got == want, (rho, [str(g) for g in gb])
            standard += len(monos) - len(want)
            covered += len(want)
    assert standard and covered


def test_reduction_number_one_on_the_tetrahedron(greduit) -> None:
    b = binomial_extension_ideal(greduit.ext, greduit.ring)
    vecs = reduction_vectors(dtree_coloration(greduit.ext), greduit.ring)
    report = reduction_number(vecs, b)
    assert report.is_sop
    assert report.reduction_number == 1
    assert report.verdicts == ((1, True),)
    assert report.witnesses == ()
    assert not report.bound_exceeded


def test_two_step_reduction_on_the_four_cycle_complex(cycles_full) -> None:
    b = binomial_extension_ideal(cycles_full.ext, cycles_full.ring)
    vecs = vectors_by_names(cycles_full, [{"a", "c", "d"}, {"b", "e"}, {"f", "v", "y"}])
    ok1, missing = degree_containment(vecs, b, 1)
    assert not ok1 and missing
    ok2, _ = degree_containment(vecs, b, 2)
    assert ok2
    report = reduction_number(vecs, b)
    assert report.reduction_number == 2
    assert report.verdicts == ((1, False), (2, True))
    assert len(report.witnesses) == 1 and report.witnesses[0][0] == 1
    uncovered = report.witnesses[0][1]
    assert missing == list(uncovered)
    mono = next(
        m for m in cycles_full.ring.monomials_of_degree(2)
        if cycles_full.ring.mono_str(m) == uncovered[0]
    )
    assert not monomial_covered(vecs, b, mono)


def test_reduction_bound_can_be_exhausted(cycles_full) -> None:
    b = binomial_extension_ideal(cycles_full.ext, cycles_full.ring)
    vecs = vectors_by_names(cycles_full, [{"a", "c", "d"}, {"b", "e"}, {"f", "v", "y"}])
    report = reduction_number(vecs, b, rho_max=1)
    assert report.reduction_number is None
    assert report.bound_exceeded
    assert report.verdicts == ((1, False),)


def test_reduction_number_rejects_a_bound_below_one(greduit, cycles_full) -> None:
    b = binomial_extension_ideal(greduit.ext, greduit.ring)
    vecs = reduction_vectors(dtree_coloration(greduit.ext), greduit.ring)
    for rho_max in (0, -3):
        message = f"^rho_max must be at least 1, got {rho_max}$"
        with run_scope():
            with pytest.raises(ValueError, match=message):
                reduction_number(vecs, b, rho_max)
            # raised before any basis is computed
            assert not counters
        # the fallback passes its bound through
        with pytest.raises(ValueError, match=message):
            fallback_reduction(cycles_full.ext, cycles_full.ring, rho_max)
    # the same under python -O, which strips asserts
    code = (
        "from binomext import binomial_extension_ideal, dtree_coloration\n"
        "from binomext import reduction_number, reduction_vectors\n"
        "from binomext.cli import build_model, parse_input\n"
        f"m = build_model(parse_input({str(FIXTURES / 'greduit.json')!r}))\n"
        "b = binomial_extension_ideal(m.ext, m.ring)\n"
        "vecs = reduction_vectors(dtree_coloration(m.ext), m.ring)\n"
        "for rho_max in (0, -3):\n"
        "    try:\n"
        "        reduction_number(vecs, b, rho_max)\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError", "ValueError"]


def test_the_fallback_finds_two_on_the_four_cycle_complex(cycles_full) -> None:
    ext, ring = cycles_full.ext, cycles_full.ring
    b = binomial_extension_ideal(ext, ring)
    cert = fallback_reduction(ext, ring)
    col, vecs, report = cert.coloration, cert.vectors, cert.reduction
    # no coloration is good, so the search's first binomial coloration serves
    assert (col, cert.method) == find_coloration(ext, require_good=False)
    assert cert.method == "search"
    assert vecs == reduction_vectors(col, ring)
    assert report == reduction_number(vecs, b)
    assert report.reduction_number == 2
    assert report.verdicts == ((1, False), (2, True))
    assert cert.facet_conditions is None and cert.failure is None


def test_the_fallback_names_an_empty_class(empty_class_document) -> None:
    model = build_model(parse_document(empty_class_document))
    cert = fallback_reduction(model.ext, model.ring)
    assert cert.method == "dtree" and cert.coloration.num_classes == 4
    assert cert.vectors is None and cert.reduction is None
    assert cert.failure == "EmptyClass: class 3 is empty"


def test_a_run_builds_each_graded_coverage_once(greduit) -> None:
    ring = greduit.ring
    vecs = reduction_vectors(dtree_coloration(greduit.ext), ring)
    monos = ring.monomials_of_degree(2)
    with run_scope():
        ok, _ = degree_containment(vecs, binomial_extension_ideal(greduit.ext, ring), 1)
        # the verdict reads leading monomials: the coverage is built on the
        # first membership question, one normal form per monomial
        forms = counters["normal_forms"]
        b = binomial_extension_ideal(greduit.ext, ring)
        covered = [monomial_covered(vecs, b, m) for m in monos]
        assert all(covered) == ok
        assert counters["normal_forms"] == forms + len(monos)
        # an equal presentation built again is the same request
        b = binomial_extension_ideal(greduit.ext, ring)
        assert [monomial_covered(vecs, b, m) for m in monos] == covered
        assert counters["normal_forms"] == forms + len(monos)
        # other forms (another coloration) are another request
        other = vectors_by_names(greduit, [{"a"}, {"b"}, {"c"}, {"d"}])
        monomial_covered(other, b, monos[0])
        assert counters["normal_forms"] > forms + len(monos)


def test_equal_values_built_apart_share_one_coverage(greduit) -> None:
    # the coverage memo is keyed on the values of the forms and of B, each
    # hashed once per object, so copies rebuilt from fresh polynomials are
    # the same request
    ring = greduit.ring
    vecs = reduction_vectors(dtree_coloration(greduit.ext), ring)
    b = binomial_extension_ideal(greduit.ext, ring)

    def rebuilt(p: Polynomial) -> Polynomial:
        return Polynomial(ring, dict(p.terms))

    b_copy = IdealPresentation(ring, tuple(map(rebuilt, b.generators)), b.label)
    vecs_copy = ReductionVectors(tuple(map(rebuilt, vecs.forms)))
    assert b_copy == b and b_copy is not b and hash(b_copy) == hash(b)
    assert vecs_copy == vecs and vecs_copy is not vecs and hash(vecs_copy) == hash(vecs)
    monos = ring.monomials_of_degree(2)
    with run_scope():
        covered = [monomial_covered(vecs, b, m) for m in monos]
        work = dict(counters)
        assert [monomial_covered(vecs_copy, b_copy, m) for m in monos] == covered
        assert counters == work


def test_containment_rejects_forms_that_are_not_linear(greduit) -> None:
    # (B + G) in degree rho+1 is B + G*m^rho only for linear forms
    ring = greduit.ring
    b = binomial_extension_ideal(greduit.ext, ring)
    vecs = ReductionVectors((ring.var(0).mul(ring.var(1)),))
    with pytest.raises(ValueError, match="not linear"):
        degree_containment(vecs, b, 1)
    with pytest.raises(ValueError, match="not linear"):
        monomial_covered(vecs, b, ring.product((0, 1)))


@pytest.mark.parametrize(
    "field",
    [PrimeField(32003), PrimeField(4294967311), RationalField()],
    ids=["gf32003", "gf4294967311", "rational"],
)
@pytest.mark.parametrize("order", ["degrevlex", "lex", "deglex"])
@pytest.mark.parametrize(
    "make", [random_small_extension, random_dtree_extension], ids=["small", "dtree"]
)
def test_containment_from_the_basis_matches_the_rank_coverage(make, order, field) -> None:
    # the certifier reads the verdict off the leading monomials of GB(B + G)
    # and each monomial's membership off its normal form; the oracle's rank
    # coverage builds the rows of B_(rho+1) + G*m^rho and reduces them. The
    # class sums nearly always give rho = 1, so the same forms less the last
    # one, which are no system of parameters, give the failing verdicts
    verdicts = set()
    for seed in range(8):
        ext = make(seed)
        ring = ext.ring(field, order)
        col, _ = find_coloration(ext, require_good=False)
        if col is None:
            continue
        try:
            forms = reduction_vectors(col, ring).forms
        except EmptyClass:
            continue
        b = binomial_extension_ideal(ext, ring)
        for vecs in (ReductionVectors(forms), ReductionVectors(forms[:-1])):
            for rho in (1, 2):
                with run_scope():
                    cols, covered = rank_coverage(vecs, b, rho)
                    ok, missing = degree_containment(vecs, b, rho)
                    assert ok == (len(covered) == len(cols)), (seed, rho)
                    assert missing == [ring.mono_str(m) for m in cols if m not in covered]
                    for mono in ring.monomials_of_degree(rho + 1):
                        assert monomial_covered(vecs, b, mono) == (mono in covered)
                verdicts.add(ok)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# end-to-end verifier


def test_verifier_on_the_tetrahedron(greduit) -> None:
    report = verify_main_theorem(greduit.ext, greduit.ring)
    assert report.method == "dtree"
    assert report.reduction.reduction_number == 1
    assert [c.route for c in report.facet_conditions] == ["private-origin"]


def test_verifier_raises_on_a_coloration_that_is_not_good(greduit, monkeypatch) -> None:
    # a report is built only for a good coloration, so it carries no flag
    monkeypatch.setattr(reduce_module, "is_good_coloration", lambda graph, col: False)
    with pytest.raises(HypothesisFailed, match="not good on G'"):
        verify_main_theorem(greduit.ext, greduit.ring)


def test_verifier_on_the_band(greduit1) -> None:
    report = verify_main_theorem(greduit1.ext, greduit1.ring)
    assert report.method == "search"
    assert report.reduction.reduction_number == 1
    assert all(
        c.route in ("trivial", "single-edge", "private-origin", "degree-2-span")
        for c in report.facet_conditions
    )


def test_verifier_on_the_glued_pair(cycles_pair) -> None:
    report = verify_main_theorem(cycles_pair.ext, cycles_pair.ring)
    assert report.method == "dtree"
    assert report.reduction.reduction_number == 1
    assert [c.route for c in report.facet_conditions] == [
        "private-origin",
        "private-origin",
    ]


def ring_document(n: int) -> dict:
    """n triangles (c_i, c_i+1, t_i) around a cycle, each extended from t_i
    by one point on each of its two proper edges."""
    return {
        "facets": [[f"c{i}", f"c{(i + 1) % n}", f"t{i}"] for i in range(n)],
        "extensions": [
            {
                "facet": i,
                "origin": f"t{i}",
                "edges": [
                    {"target": f"c{i}", "points": [f"a{i}"]},
                    {"target": f"c{(i + 1) % n}", "points": [f"b{i}"]},
                ],
            }
            for i in range(n)
        ],
    }


@pytest.mark.parametrize(
    "doc",
    [ring_document(5), ring_document(6), strip_document(8)],
    ids=["ring5", "ring6", "strip8"],
)
def test_reduce_answers_one_at_the_frontier(doc) -> None:
    # each took seconds to minutes while the dimension was a minimal
    # hitting set and the containment a rank computation
    report = run("reduce", parse_document(doc))
    assert report["verdict"] is True
    assert report["reduction"]["reduction_number"] == 1


def test_verifier_falls_back_when_a_dtree_skeleton_has_no_leaf_order() -> None:
    # the skeleton of three triangles around a triangle is a 2-tree, but the
    # inner triangle c0c1c2 is not a facet, so the construction has no order
    doc = parse_document(ring_document(3))
    model = build_model(doc)
    with pytest.raises(NotADTree):
        dtree_coloration(model.ext)
    report = verify_main_theorem(model.ext, model.ring)
    assert report.method == "search"
    assert report.reduction.reduction_number == 1
    assert not report.reduction.bound_exceeded
    reduce_report = run("reduce", doc)
    assert reduce_report["verdict"] is True
    assert reduce_report["coloration"]["method"] == "search"
    assert run("oracle", doc)["oracle"]["diffs"] == []


def test_verifier_reports_a_failed_sop_as_a_hypothesis(greduit, monkeypatch) -> None:
    def not_sop(*args, **kwargs):
        raise NotSOP("forms do not generate a zero-dimensional quotient with B")

    monkeypatch.setattr(reduce_module, "reduction_number", not_sop)
    with pytest.raises(HypothesisFailed, match="^reduction vectors are not a system of parameters$"):
        verify_main_theorem(greduit.ext, greduit.ring)


def test_verifier_reports_uncovered_monomials_as_containment_failure(greduit, monkeypatch) -> None:
    def uncovered(vectors, b, rho_max=10):
        assert rho_max == 1
        return ReductionReport(vectors, True, ((1, False),), ((1, ("a*b", "c^2")),), None, True)

    monkeypatch.setattr(reduce_module, "reduction_number", uncovered)
    with pytest.raises(ContainmentFailed, match=r"^uncovered degree-2 monomials: a\*b, c\^2$"):
        verify_main_theorem(greduit.ext, greduit.ring)


def test_an_empty_color_class_fails_the_hypothesis(empty_class_document) -> None:
    doc = empty_class_document
    model = build_model(parse_document(doc))
    with pytest.raises(HypothesisFailed, match="class 3 is empty"):
        verify_main_theorem(model.ext, model.ring)
    report = run("reduce", parse_document(doc))
    assert report["verdict"] is False
    assert report["reduction"]["failure"].startswith("HypothesisFailed: reduction vectors")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_reduce_verdicts_agree_across_fields(seed: int) -> None:
    doc = extension_document(random_small_extension(seed))
    answers = []
    for field in (32003, 4294967311, "rational"):
        report = run("reduce", parse_document({**doc, "field": field, "options": {"rho_max": 3}}))
        reduction = report["reduction"]
        answers.append(
            (report["verdict"], reduction.get("reduction_number"), reduction.get("bound_exceeded"))
        )
    assert answers[0] == answers[1] == answers[2]


def test_verifier_rejects_the_four_cycle_complex(cycles_full) -> None:
    with pytest.raises(NoColorationFound):
        verify_main_theorem(cycles_full.ext, cycles_full.ring)


def test_verifier_routes_trivial_and_single_edge() -> None:
    base = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    star = ProperStar(0, base.id_of("a"), (base.id_of("b"),))
    ext = build_extension_complex(base, [FacetExtension(star, (("p",),))])
    ring = ext.ring(PrimeField(32003))
    report = verify_main_theorem(ext, ring)
    assert report.reduction.reduction_number == 1
    assert [c.route for c in report.facet_conditions] == ["single-edge", "trivial"]


def test_verifier_on_an_unextended_complex(cycles_pair) -> None:
    base = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    ext = build_extension_complex(base, [])
    ring = ext.ring(PrimeField(32003))
    report = verify_main_theorem(ext, ring)
    assert report.method == "dtree"
    assert report.reduction.reduction_number == 1
    assert [c.route for c in report.facet_conditions] == ["trivial", "trivial"]


# ---------------------------------------------------------------------------
# certify: the theorem's certificate, else the fallback's with the reasons


def certify_against_its_parts(ext, ring, rho_max: int = 10) -> str:
    """Check certify against verify_main_theorem and fallback_reduction
    called directly, and name the outcome."""
    cert = certify(ext, ring, rho_max)
    try:
        theorem = verify_main_theorem(ext, ring)
    except THEOREM_FAILURES as exc:
        failure = f"{type(exc).__name__}: {exc}"
    else:
        assert cert == theorem
        assert cert.failure is None and cert.facet_conditions is not None
        return "theorem"
    fallback = fallback_reduction(ext, ring, rho_max)
    assert fallback.facet_conditions is None
    if fallback.failure is not None:
        failure += f"; then {fallback.failure}"
    assert cert == fallback._replace(failure=failure)
    if cert.coloration is None:
        return "no coloration"
    return "fallback" if cert.reduction is not None else "fallback stopped"


@pytest.mark.parametrize("name", ALL_FIXTURE_NAMES)
def test_certify_is_the_theorem_or_the_fallback_on_the_fixtures(name: str) -> None:
    model = load_model(name)
    outcome = certify_against_its_parts(model.ext, model.ring)
    assert outcome == ("fallback" if name == "cycles_full" else "theorem")


def test_certify_is_the_theorem_or_the_fallback_on_random_extensions() -> None:
    outcomes = set()
    for seed in range(160):
        ext = random_small_extension(seed)
        outcomes.add(certify_against_its_parts(ext, ext.ring(PrimeField(32003))))
    # seed 155 has no binomial coloration, and some seeds stop the fallback
    assert outcomes == {"theorem", "fallback", "fallback stopped", "no coloration"}


def test_certify_composes_the_failure(cycles_full, empty_class_document) -> None:
    cert = certify(cycles_full.ext, cycles_full.ring)
    assert cert.failure == "NoColorationFound: no binomial coloration exists"
    assert cert.reduction.reduction_number == 2
    model = build_model(parse_document(empty_class_document))
    cert = certify(model.ext, model.ring)
    assert cert.failure == (
        "HypothesisFailed: reduction vectors: class 3 is empty; then EmptyClass: class 3 is empty"
    )
    assert cert.vectors is None and cert.reduction is None
    ext = random_small_extension(155)
    cert = certify(ext, ext.ring(PrimeField(32003)))
    assert (cert.coloration, cert.vectors, cert.reduction) == (None, None, None)
    assert cert.failure == "NoColorationFound: no binomial coloration exists"
