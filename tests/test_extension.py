"""Scroll matrices, minors, component ideals, the sum ideal, reduced graphs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomext.cli as cli_module
from binomext import (
    DuplicatePointName,
    DuplicateVertexInFacet,
    EmptyExtension,
    EmptyFacet,
    FacetExtendedTwice,
    FacetExtension,
    FacetOutOfRange,
    FacetRoles,
    InputError,
    MonomialOverflow,
    NotAProperEdge,
    OrderMismatch,
    OriginMismatch,
    ProperStar,
    PrimeField,
    RationalField,
    ScrollBlock,
    binomial_extension_generators,
    binomial_extension_ideal,
    build_extension_complex,
    buchberger,
    column_minor,
    component_ideals,
    facet_minors,
    facet_roles,
    hilbert_data,
    ideal_intersection_many,
    reduced_graph,
    scroll_matrix,
    scroll_minors,
    stanley_reisner_generators,
    validate_complex,
)
from binomext.cli import EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, SchemaError, UnknownName, main
from conftest import (
    ALL_FIXTURE_NAMES,
    FIXTURES,
    ideal_membership,
    load_model,
    random_dtree_extension,
    random_scroll_extension,
    random_small_extension,
)


def name_edges(ext, g) -> set[tuple[str, str]]:
    return {tuple(sorted((ext.var_names[u], ext.var_names[v]))) for u, v in g.edges}


# ---------------------------------------------------------------------------
# construction errors


def test_origin_must_lie_in_the_facet() -> None:
    base = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    star = ProperStar(0, base.id_of("d"), (base.id_of("b"),))
    with pytest.raises(OriginMismatch):
        build_extension_complex(base, [FacetExtension(star, ((),))])


def test_shared_edge_is_not_proper() -> None:
    base = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    star = ProperStar(0, base.id_of("b"), (base.id_of("c"),))
    with pytest.raises(NotAProperEdge):
        build_extension_complex(base, [FacetExtension(star, ((),))])


def test_facet_index_must_exist() -> None:
    base = validate_complex([["a", "b", "c"]])
    star = ProperStar(1, base.id_of("a"), (base.id_of("b"),))
    with pytest.raises(FacetOutOfRange, match="facet index 1 out of range"):
        build_extension_complex(base, [FacetExtension(star, ((),))])


def test_facet_is_extended_at_most_once() -> None:
    base = validate_complex([["a", "b", "c"]])
    star = ProperStar(0, base.id_of("a"), (base.id_of("b"),))
    with pytest.raises(FacetExtendedTwice, match="facet 0 extended twice"):
        build_extension_complex(base, [FacetExtension(star, ((),)), FacetExtension(star, ((),))])


def test_construction_errors_are_input_errors() -> None:
    assert issubclass(FacetOutOfRange, InputError)
    assert issubclass(FacetExtendedTwice, InputError)


BAD_INPUT = (
    EmptyFacet,
    DuplicateVertexInFacet,
    NotAProperEdge,
    OriginMismatch,
    DuplicatePointName,
    FacetOutOfRange,
    FacetExtendedTwice,
    SchemaError,
    UnknownName,
)
ENGINE_ERRORS = (EmptyExtension, MonomialOverflow, OrderMismatch)


@pytest.mark.parametrize("error", BAD_INPUT + ENGINE_ERRORS, ids=lambda e: e.__name__)
def test_main_exits_by_the_error_class(error, monkeypatch, capsys) -> None:
    # an input error exits 2 with its message; the engine's own errors are
    # faults of the program, not of the document, and exit 3
    def raise_it(data):
        raise error("bad")

    monkeypatch.setattr(cli_module, "parse_document", raise_it)
    code = main(["validate", "--input", str(FIXTURES / "greduit.json")])
    err = capsys.readouterr().err
    if error in BAD_INPUT:
        assert issubclass(error, InputError)
        assert (code, err) == (EXIT_INPUT_ERROR, "error: bad\n")
    else:
        assert not issubclass(error, InputError)
        assert (code, err) == (EXIT_INTERNAL_ERROR, f"internal error: {error.__name__}: bad\n")


def test_construction_errors_survive_optimized_mode() -> None:
    # python -O strips asserts; these checks must not depend on them
    code = (
        "from binomext import (FacetExtendedTwice, FacetExtension, FacetOutOfRange,\n"
        "    ProperStar, build_extension_complex, validate_complex)\n"
        "base = validate_complex([['a', 'b', 'c']])\n"
        "star = ProperStar(0, 0, (1,))\n"
        "for exts in ([FacetExtension(ProperStar(1, 0, (1,)), ((),))],\n"
        "             [FacetExtension(star, ((),)), FacetExtension(star, ((),))]):\n"
        "    try:\n"
        "        build_extension_complex(base, exts)\n"
        "    except (FacetOutOfRange, FacetExtendedTwice) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["FacetOutOfRange", "FacetExtendedTwice"]


def test_origin_is_private_needs_an_extension() -> None:
    ext = build_extension_complex(validate_complex([["a", "b", "c"]]), [])
    with pytest.raises(EmptyExtension, match="facet 0 has no extension"):
        ext.origin_is_private(0)


def test_origin_is_private_needs_an_extension_under_python_O() -> None:
    # a typed error, not an assert, so python -O raises it too
    code = (
        "from binomext import EmptyExtension, build_extension_complex, validate_complex\n"
        "ext = build_extension_complex(validate_complex([['a', 'b', 'c']]), [])\n"
        "try:\n"
        "    ext.origin_is_private(0)\n"
        "except EmptyExtension as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "facet 0 has no extension, so no origin\n"


def test_facet_extension_needs_one_point_list_per_target() -> None:
    with pytest.raises(ValueError, match="1 point lists for 2 targets"):
        FacetExtension(ProperStar(0, 0, (1, 2)), (("p",),))


def test_point_names_must_be_fresh() -> None:
    base = validate_complex([["a", "b", "c"]])
    star = ProperStar(0, base.id_of("a"), (base.id_of("b"),))
    with pytest.raises(DuplicatePointName):
        build_extension_complex(base, [FacetExtension(star, (("c",),))])
    star2 = ProperStar(0, base.id_of("a"), (base.id_of("b"), base.id_of("c")))
    with pytest.raises(DuplicatePointName):
        build_extension_complex(base, [FacetExtension(star2, (("p",), ("p",)))])


def test_trivial_facet_has_no_matrix(cycles_pair) -> None:
    base = validate_complex([["a", "b", "c"]])
    ext = build_extension_complex(base, [])
    with pytest.raises(EmptyExtension):
        scroll_matrix(ext, 0)
    assert facet_minors(ext, ext.ring(PrimeField()), 0) == []


# ---------------------------------------------------------------------------
# scroll matrices and minors


def test_tetrahedron_matrix_layout(greduit) -> None:
    ext = greduit.ext
    m = scroll_matrix(ext, 0)
    runs = [[ext.var_names[v] for v in blk.run] for blk in m.blocks]
    assert runs == [["a", "x", "b"], ["y", "c"], ["z", "d"]]
    assert len(m.columns) == 4


def test_tetrahedron_minors_are_the_six_known_ones(greduit) -> None:
    ext, ring = greduit.ext, greduit.ring
    minors = facet_minors(ext, ring, 0)
    var = {n: ring.var(i) for i, n in enumerate(ring.names)}

    def product(s: str):
        u, v = s.split("*")
        return var[u].mul(var[v])

    expected = [
        product("a*b").sub(product("x*x")),
        product("a*c").sub(product("x*y")),
        product("a*d").sub(product("x*z")),
        product("x*c").sub(product("b*y")),
        product("x*d").sub(product("b*z")),
        product("y*d").sub(product("c*z")),
    ]
    assert minors == expected


def test_scroll_block_needs_two_distinct_variables() -> None:
    for run in ((1,), (1, 2, 1)):
        with pytest.raises(ValueError, match="two distinct variables"):
            ScrollBlock(run)


def test_column_minor_needs_increasing_columns(greduit) -> None:
    m = scroll_matrix(greduit.ext, 0)
    with pytest.raises(ValueError, match="increasing order"):
        column_minor(m, greduit.ring, 1, 0)


def test_empty_first_edge_gives_a_single_origin_column(greduit1) -> None:
    ext = greduit1.ext
    m = scroll_matrix(ext, 0)
    runs = [[ext.var_names[v] for v in blk.run] for blk in m.blocks]
    assert runs == [["a", "b"], ["y", "c"]]
    minors = facet_minors(ext, greduit1.ring, 0)
    assert [str(p) for p in minors] == ["a*c - b*y"]


def test_band_has_one_minor_per_facet(greduit1) -> None:
    ext, ring = greduit1.ext, greduit1.ring
    strs = [[str(p) for p in facet_minors(ext, ring, l)] for l in range(4)]
    assert strs == [["a*c - b*y"], ["b*f - c*z"], ["d*e - f*x"], ["e*g - a*w"]]


def test_paired_triangles_minors(cycles_full) -> None:
    ext, ring = cycles_full.ext, cycles_full.ring
    assert [str(p) for p in facet_minors(ext, ring, 0)] == [
        "a*b - x^2",
        "a*c - x*y",
        "c*x - b*y",
    ]
    assert [str(p) for p in facet_minors(ext, ring, 1)] == [
        "b*d - u^2",
        "c*d - u*v",
        "c*u - b*v",
    ]
    assert facet_minors(ext, ring, 2) == []


def test_minor_count_matches_column_pairs(greduit) -> None:
    m = scroll_matrix(greduit.ext, 0)
    minors = scroll_minors(m, greduit.ring)
    c = len(m.columns)
    assert len(minors) == c * (c - 1) // 2


def _support(p) -> set[int]:
    ring = p.ring
    return {v for mono in p.terms for v, e in enumerate(ring.exponents(mono)) if e}


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(2)], ids=lambda f: f.name)
@settings(max_examples=40, deadline=None)
@given(
    make=st.sampled_from(
        (random_small_extension, random_dtree_extension, random_scroll_extension)
    ),
    seed=st.integers(0, 10_000),
)
def test_minors_need_no_deduplication(field, make, seed) -> None:
    # the matrix entries are distinct variables, so the C(k, 2) minors of
    # a facet are distinct and nonzero, over GF(2) too, where a minor's two
    # terms have the same sign; each holds a point of its own facet, so no
    # two facets share one
    ext = make(seed)
    ring = ext.ring(field)
    for l in range(len(ext.base.facets)):
        if ext.is_trivial(l):
            continue
        m = scroll_matrix(ext, l)
        minors = scroll_minors(m, ring)
        k = len(m.columns)
        assert len(minors) == k * (k - 1) // 2
        assert len(set(minors)) == len(minors)
        assert not any(p.is_zero() for p in minors)
        points = set(ext.facet_points(l))
        assert all(_support(p) & points for p in minors)
    minors, _ = binomial_extension_generators(ext, ring)
    assert len(set(minors)) == len(minors)


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(2)], ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(
    make=st.sampled_from(
        (random_small_extension, random_dtree_extension, random_scroll_extension)
    ),
    seed=st.integers(0, 10_000),
)
def test_component_basis_is_the_minors_basis_and_the_outside_variables(
    field, make, seed
) -> None:
    # the minors use only the extended facet's variables, so a polynomial in
    # those lies in J_l exactly when it lies in the ideal of the minors: the
    # oracle's rewriter check reads GB(J_l) for that reason
    ext = make(seed)
    ring = ext.ring(field)
    for l, comp in enumerate(component_ideals(ext, ring)):
        if ext.is_trivial(l):
            continue
        outside = [ring.var(v) for v in range(ext.nvars) if v not in ext.extended_facet(l)]
        want = set(buchberger(facet_minors(ext, ring, l), ring)) | set(outside)
        assert set(buchberger(list(comp.generators), ring)) == want, comp.label


# ---------------------------------------------------------------------------
# component ideals and the sum ideal


def test_lone_facet_component_has_no_linear_part(greduit) -> None:
    comps = component_ideals(greduit.ext, greduit.ring)
    assert len(comps) == 1
    assert comps[0].label == "J_0"
    assert len(comps[0].generators) == 6


def test_component_adds_outside_variables(greduit1) -> None:
    ext, ring = greduit1.ext, greduit1.ring
    comps = component_ideals(ext, ring)
    assert [c.label for c in comps] == ["J_0", "J_1", "J_2", "J_3"]
    j0 = comps[0]
    linear = sorted(str(p) for p in j0.generators if p.degree() == 1)
    assert linear == ["d", "e", "f", "g", "w", "x", "z"]
    assert len(j0.generators) == 8


def test_sum_ideal_gathers_minors_and_non_faces(cycles_pair) -> None:
    ext, ring = cycles_pair.ext, cycles_pair.ring
    b = binomial_extension_ideal(ext, ring)
    assert b.label == "B"
    strs = [str(p) for p in b.generators]
    assert strs[:2] == ["a*c - b*y", "c*d - b*v"]
    assert sorted(strs[2:]) == ["a*d", "a*v", "d*y", "y*v"]


def test_sum_ideal_cross_monomials(cycles_full) -> None:
    ext, ring = cycles_full.ext, cycles_full.ring
    b = binomial_extension_ideal(ext, ring)
    monos = {str(p) for p in b.generators if len(p.terms) == 1}
    assert len(monos) == 21
    ids = {n: i for i, n in enumerate(ring.names)}
    # the two extended facets see each other only through b and c
    for left in ("a", "x", "y"):
        for right in ("d", "u", "v"):
            u, v = sorted((left, right), key=ids.get)
            assert f"{u}*{v}" in monos


def test_all_empty_extension_reduces_to_the_non_face_ideal() -> None:
    base = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    star = ProperStar(0, base.id_of("a"), (base.id_of("b"), base.id_of("c")))
    ext = build_extension_complex(base, [FacetExtension(star, ((), ()))])
    ring = ext.ring(PrimeField())
    assert ext.is_trivial(0)
    b = binomial_extension_ideal(ext, ring)
    sr = stanley_reisner_generators(ext.extended_complex())
    assert len(b.generators) == len(sr) == 1
    assert str(b.generators[0]) == "a*d"


# ---------------------------------------------------------------------------
# decomposition equality


@pytest.mark.parametrize("order", ["lex", "deglex", "degrevlex"])
def test_reduced_basis_of_b_is_the_same_over_every_field(order) -> None:
    # B is generated by pure-difference binomials and square-free monomials,
    # so its reduced basis has coefficients +-1 over every field (Eisenbud &
    # Sturmfels, "Binomial ideals", Duke 1996); over Q they stay ints
    exts = [load_model(name).ext for name in ALL_FIXTURE_NAMES]
    exts += [random_small_extension(seed) for seed in range(16)]
    exts += [random_dtree_extension(seed) for seed in range(16)]
    disagree = []
    for k, ext in enumerate(exts):
        printed = []
        for field in (RationalField(), PrimeField(32003), PrimeField(4294967311)):
            ring = ext.ring(field, order)
            gb = buchberger(list(binomial_extension_ideal(ext, ring).generators), ring)
            if isinstance(field, RationalField):
                coeffs = [c for g in gb for c in g.terms.values()]
                assert all(type(c) is int and c in (1, -1) for c in coeffs), k
            printed.append([str(g) for g in gb])
        if any(p != printed[0] for p in printed[1:]):
            disagree.append(k)
    assert not disagree


@pytest.mark.parametrize("name", ["greduit", "cycles_pair"])
def test_sum_equals_intersection_on_fixtures(name, request) -> None:
    model = request.getfixturevalue(name)
    ext, ring = model.ext, model.ring
    b = binomial_extension_ideal(ext, ring)
    comps = component_ideals(ext, ring)
    gb = buchberger(list(b.generators), ring)
    inter = ideal_intersection_many([list(c.generators) for c in comps], ring)
    assert gb == inter


def test_sum_generators_lie_in_every_component(greduit1) -> None:
    ext, ring = greduit1.ext, greduit1.ring
    b = binomial_extension_ideal(ext, ring)
    for comp in component_ideals(ext, ring):
        gb = buchberger(list(comp.generators), ring)
        for g in b.generators:
            assert ideal_membership(g, gb)


@pytest.mark.parametrize("seed", [3, 14])
def test_sum_equals_intersection_on_random_models(seed: int) -> None:
    ext = random_small_extension(seed)
    ring = ext.ring(PrimeField())
    b = binomial_extension_ideal(ext, ring)
    comps = component_ideals(ext, ring)
    gb = buchberger(list(b.generators), ring)
    inter = ideal_intersection_many([list(c.generators) for c in comps], ring)
    assert gb == inter


# ---------------------------------------------------------------------------
# quotient dimensions


def test_component_dimension_tracks_facet_size(greduit1) -> None:
    ext, ring = greduit1.ext, greduit1.ring
    for l, comp in enumerate(component_ideals(ext, ring)):
        gb = buchberger(list(comp.generators), ring)
        expected = 1 + (len(ext.base.facets[l]) - 1)
        assert hilbert_data(gb, ring).dimension == expected


def test_sum_dimension_tracks_complex_dimension(cycles_pair) -> None:
    ext, ring = cycles_pair.ext, cycles_pair.ring
    b = binomial_extension_ideal(ext, ring)
    gb = buchberger(list(b.generators), ring)
    assert hilbert_data(gb, ring).dimension == 1 + ext.base.dim


# ---------------------------------------------------------------------------
# coloration roles


def test_roles_of_the_tetrahedron(greduit) -> None:
    ext = greduit.ext
    ids = {n: i for i, n in enumerate(ext.var_names)}
    a, b, c, d, y, z = (ids[n] for n in "abcdyz")
    roles = facet_roles(ext, 0)
    assert (roles.origin, roles.targets, roles.firsts) == (a, (b, c, d), (y, z))
    assert roles.members == {a, b, c, d, y, z}
    assert roles.pairs == ((a, c), (y, d))
    assert roles.last == z


def test_roles_of_bare_edges_single_edges_and_pointless_facets() -> None:
    base = validate_complex([["a", "b", "c", "d"], ["c", "d", "e"], ["d", "e", "f"]])
    a, b, c, d, e, f = (base.id_of(n) for n in "abcdef")
    ext = build_extension_complex(
        base,
        [
            FacetExtension(ProperStar(0, a, (b, c, d)), (("p",), (), ("q",))),
            FacetExtension(ProperStar(1, c, (e,)), (("r",),)),
            FacetExtension(ProperStar(2, f, (d, e)), ((), ())),
        ],
    )
    q = ext.var_names.index("q")
    roles = facet_roles(ext, 0)
    assert roles.firsts == (None, q)
    assert roles.members == {a, b, c, d, q}
    assert roles.pairs == ((a, c),)  # the bare edge to c gives no chain pair
    assert roles.last == q
    single = facet_roles(ext, 1)
    assert (single.firsts, single.pairs, single.last) == ((), (), None)
    assert single.members == base.facets[1]
    assert facet_roles(ext, 2) == FacetRoles(None, (), (), base.facets[2])


# ---------------------------------------------------------------------------
# reduced graph


def test_reduced_graph_of_the_tetrahedron(greduit) -> None:
    ext = greduit.ext
    red = reduced_graph(ext)
    assert {ext.var_names[v] for v in red.vertex_ids} == {"a", "b", "c", "d", "y", "z"}
    assert name_edges(ext, red) == {
        ("a", "b"),
        ("b", "c"),
        ("b", "d"),
        ("c", "d"),
        ("a", "y"),
        ("c", "y"),
        ("a", "z"),
        ("c", "z"),
    }


def test_reduced_graph_keeps_first_edges(cycles_pair) -> None:
    ext = cycles_pair.ext
    red = reduced_graph(ext)
    edges = name_edges(ext, red)
    assert ("a", "b") in edges  # first edges are never dropped
    assert ("a", "c") not in edges
    assert ("c", "d") not in edges
    assert {("a", "y"), ("c", "y"), ("d", "v"), ("c", "v")} <= edges


def test_trivial_extension_leaves_the_skeleton_alone() -> None:
    base = validate_complex([["a", "b", "c"], ["b", "c", "d"]])
    star = ProperStar(0, base.id_of("a"), (base.id_of("b"), base.id_of("c")))
    ext = build_extension_complex(base, [FacetExtension(star, ((), ()))])
    red = reduced_graph(ext)
    assert {ext.var_names[v] for v in red.vertex_ids} == {"a", "b", "c", "d"}
    assert name_edges(ext, red) == {
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
        ("b", "d"),
        ("c", "d"),
    }
