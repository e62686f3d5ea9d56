"""Input parsing, model construction, report assembly, and the entry point."""

from __future__ import annotations

import copy
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomext.extension as extension_module
import binomext.oracle as oracle_module
import binomext.reduce as reduce_module
from binomext import (
    DuplicatePointName,
    OrderMismatch,
    ReductionVectors,
    Ring,
    binomial_extension_ideal,
    color,
)
from binomext.cli import (
    COMMANDS,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_VERDICT_FALSE,
    SchemaError,
    UnknownName,
    build_model,
    main,
    parse_document,
    parse_input,
    render_report,
    run,
)
from conftest import (
    ALL_FIXTURE_NAMES,
    FIXTURES,
    extension_document,
    perfbench_dtree,
    random_dtree_extension,
    random_scroll_extension,
    random_small_extension,
)
from test_reduce import ring_document

REPORT_KEYS = {
    "command",
    "input",
    "verdict",
    "complex",
    "generators",
    "components",
    "hilbert",
    "coloration",
    "reduction",
    "oracle",
    "timing",
}


def minimal_doc() -> dict:
    return {
        "facets": [["a", "b", "c"]],
        "extensions": [
            {
                "facet": 0,
                "origin": "a",
                "edges": [{"target": "b", "points": ["p"]}],
            }
        ],
    }


# ---------------------------------------------------------------------------
# parsing and round trips


@pytest.mark.parametrize("name", ALL_FIXTURE_NAMES)
def test_fixture_documents_round_trip(name: str) -> None:
    doc = parse_input(str(FIXTURES / f"{name}.json"))
    again = parse_document(json.loads(json.dumps(doc)))
    assert again == doc


def test_defaults_are_materialized() -> None:
    doc = parse_document({"facets": [["a", "b"]]})
    assert doc == {
        "facets": [["a", "b"]],
        "extensions": [],
        "field": 32003,
        "order": "degrevlex",
        "options": {"rho_max": 10, "seed": 0},
    }


def test_parse_accepts_rational_field_and_declared_vertices() -> None:
    doc = parse_document(
        {
            "facets": [["a", "b"]],
            "vertices": ["b", "a"],
            "field": "rational",
            "order": "lex",
            "options": {"rho_max": 3, "seed": 7},
        }
    )
    assert doc["field"] == "rational"
    assert doc["vertices"] == ["b", "a"]
    assert doc["order"] == "lex"
    assert doc["options"] == {"rho_max": 3, "seed": 7}


BAD_DOCUMENTS = [
    ("top level not an object", ["a"]),
    ("missing facets", {"extensions": []}),
    ("empty facet list", {"facets": []}),
    ("facet not a list", {"facets": ["ab"]}),
    ("facet entry not a string", {"facets": [["a", 3]]}),
    ("unknown top-level key", {"facets": [["a", "b"]], "extra": 1}),
    ("comment not a string", {"facets": [["a", "b"]], "comment": 5}),
    ("duplicate declared vertices", {"facets": [["a", "b"]], "vertices": ["a", "a", "b"]}),
    ("composite field", {"facets": [["a", "b"]], "field": 32001}),
    ("even field", {"facets": [["a", "b"]], "field": 4}),
    ("field beyond the primality range", {"facets": [["a", "b"]], "field": 2**89 - 1}),
    ("boolean field", {"facets": [["a", "b"]], "field": True}),
    ("unknown field name", {"facets": [["a", "b"]], "field": "gf2"}),
    ("unknown order", {"facets": [["a", "b"]], "order": "grevlex"}),
    ("options not an object", {"facets": [["a", "b"]], "options": []}),
    ("unknown option", {"facets": [["a", "b"]], "options": {"rho": 1}}),
    ("zero rho_max", {"facets": [["a", "b"]], "options": {"rho_max": 0}}),
    ("boolean rho_max", {"facets": [["a", "b"]], "options": {"rho_max": True}}),
    ("string seed", {"facets": [["a", "b"]], "options": {"seed": "x"}}),
]


@pytest.mark.parametrize("label,data", BAD_DOCUMENTS, ids=[b[0] for b in BAD_DOCUMENTS])
def test_malformed_documents_are_rejected(label: str, data) -> None:
    with pytest.raises(SchemaError):
        parse_document(data)


BAD_EXTENSION_SHAPES = [
    ("extension not an object", [1]),
    ("unknown extension key", [{"facet": 0, "origin": "a", "edges": [], "x": 1}]),
    ("facet not an int", [{"facet": "0", "origin": "a", "edges": [{"target": "b"}]}]),
    ("boolean facet", [{"facet": False, "origin": "a", "edges": [{"target": "b"}]}]),
    ("origin missing", [{"facet": 0, "edges": [{"target": "b"}]}]),
    ("edges empty", [{"facet": 0, "origin": "a", "edges": []}]),
    ("edge not an object", [{"facet": 0, "origin": "a", "edges": ["b"]}]),
    ("unknown edge key", [{"facet": 0, "origin": "a", "edges": [{"target": "b", "pts": []}]}]),
    ("edge target missing", [{"facet": 0, "origin": "a", "edges": [{"points": []}]}]),
    ("point not a string", [{"facet": 0, "origin": "a", "edges": [{"target": "b", "points": [1]}]}]),
    ("extensions an integer", 5),
    ("extensions null", None),
    ("extensions an object", {}),
]


@pytest.mark.parametrize(
    "label,exts", BAD_EXTENSION_SHAPES, ids=[b[0] for b in BAD_EXTENSION_SHAPES]
)
def test_malformed_extensions_are_rejected(label: str, exts) -> None:
    with pytest.raises(SchemaError):
        parse_document({"facets": [["a", "b", "c"]], "extensions": exts})


def test_parse_input_reports_missing_file_and_bad_json(tmp_path) -> None:
    with pytest.raises(SchemaError, match="cannot read"):
        parse_input(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}\n")
    with pytest.raises(SchemaError, match="line 2"):
        parse_input(str(bad))


# ---------------------------------------------------------------------------
# model construction


def test_build_model_resolves_names() -> None:
    model = build_model(parse_document(minimal_doc()))
    assert model.ext.var_names == ("a", "b", "c", "p")
    assert model.ring.nvars == 4


def test_extension_index_out_of_range() -> None:
    data = minimal_doc()
    data["extensions"][0]["facet"] = 1
    with pytest.raises(SchemaError, match="out of range"):
        build_model(parse_document(data))


def test_extension_on_a_dropped_facet() -> None:
    data = {
        "facets": [["a", "b", "c"], ["a", "b"]],
        "extensions": [
            {"facet": 1, "origin": "a", "edges": [{"target": "b", "points": []}]}
        ],
    }
    with pytest.raises(SchemaError, match="dropped"):
        build_model(parse_document(data))


def test_duplicate_extensions_for_one_facet() -> None:
    data = minimal_doc()
    data["extensions"].append(
        {"facet": 0, "origin": "a", "edges": [{"target": "c", "points": []}]}
    )
    with pytest.raises(SchemaError, match="already has an extension"):
        build_model(parse_document(data))


def test_unknown_origin_and_target_names() -> None:
    data = minimal_doc()
    data["extensions"][0]["origin"] = "q"
    with pytest.raises(UnknownName, match="origin"):
        build_model(parse_document(data))
    data = minimal_doc()
    data["extensions"][0]["edges"][0]["target"] = "q"
    with pytest.raises(UnknownName, match="target"):
        build_model(parse_document(data))


def test_declared_vertices_must_cover_and_be_used() -> None:
    with pytest.raises(UnknownName, match="vertex list"):
        build_model(
            parse_document({"facets": [["a", "b"]], "vertices": ["a", "c"]})
        )
    with pytest.raises(SchemaError, match="appears in no facet"):
        build_model(
            parse_document({"facets": [["a", "b"]], "vertices": ["a", "b", "c"]})
        )


def test_declared_vertices_fix_variable_order() -> None:
    model = build_model(
        parse_document({"facets": [["a", "b"]], "vertices": ["b", "a"]})
    )
    assert model.ext.var_names == ("b", "a")


def test_point_name_collisions_surface_from_construction() -> None:
    data = minimal_doc()
    data["extensions"][0]["edges"][0]["points"] = ["c"]
    with pytest.raises(DuplicatePointName):
        build_model(parse_document(data))


# ---------------------------------------------------------------------------
# reports


@pytest.mark.parametrize("command", ["validate", "ideal", "hilbert", "color", "reduce"])
def test_report_has_the_stable_key_set(command: str) -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    report = run(command, doc)
    assert set(report.keys()) == REPORT_KEYS
    assert report["command"] == command
    assert report["verdict"] is True
    assert isinstance(report["timing"], dict)


def test_reports_are_byte_identical_across_runs() -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    for command in ("validate", "ideal", "decompose", "hilbert", "color", "reduce"):
        first = render_report(run(command, doc))
        second = render_report(run(command, doc))
        assert first == second, command


# JSON text: str keys and values with non-ASCII, control and lone surrogate
# characters; ints beyond 64 bits, bools, None and floats; empty and nested
# containers, tuples, and lists of strings that end in another value, which
# the renderer cannot print as one join
_json_text = st.text(st.characters(exclude_categories=()))
_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**200)
    | st.floats() | _json_text
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(_json_text)
    | st.tuples(st.lists(_json_text, min_size=1), inner).map(lambda t: [*t[0], t[1]])
    | st.dictionaries(_json_text, inner),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(value=_json_values | st.dictionaries(_json_text, _json_values))
def test_render_report_prints_the_bytes_of_json_dumps(value) -> None:
    assert render_report(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_render_report_rejects_what_json_dumps_rejects() -> None:
    for bad in ({"a": {1, 2}}, {"a": [object()]}, {"a": b"bytes"}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            render_report(bad)


def test_validate_report_content() -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    section = run("validate", doc)["complex"]
    assert section["dim"] == 3
    assert section["is_generalized_dtree"] is True
    assert section["variables"] == ["a", "b", "c", "d", "x", "y", "z"]
    assert section["scroll_matrices"][0]["blocks"] == [
        ["a", "x", "b"],
        ["y", "c"],
        ["z", "d"],
    ]
    assert ["a", "z"] in section["reduced_graph"]["edges"]
    assert ["a", "c"] not in section["reduced_graph"]["edges"]


def test_ideal_report_counts_generators() -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    section = run("ideal", doc)["generators"]
    assert section["label"] == "B"
    assert section["count"] == 6
    assert len(section["polynomials"]) == 6


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    make=st.sampled_from(
        [random_small_extension, random_dtree_extension, random_scroll_extension]
    ),
    order=st.sampled_from(["lex", "deglex", "degrevlex"]),
    field=st.sampled_from([32003, "rational"]),
)
def test_ideal_report_prints_the_packed_generators(seed, make, order, field) -> None:
    # the report prints non-faces from vertex tuples; the packed ideal that
    # the algebra commands use is the oracle
    doc = parse_document(extension_document(make(seed)) | {"order": order, "field": field})
    model = build_model(doc)
    packed = [str(p) for p in binomial_extension_ideal(model.ext, model.ring).generators]
    section = run("ideal", doc)["generators"]
    assert section["polynomials"] == packed
    assert section["count"] == len(packed)


def test_decompose_report_on_the_glued_pair() -> None:
    doc = parse_input(str(FIXTURES / "cycles_pair.json"))
    report = run("decompose", doc)
    assert report["verdict"] is True
    section = report["components"]
    assert [c["label"] for c in section["ideals"]] == ["J_0", "J_1"]
    assert section["intersection_equals_ideal"] is True
    assert section["groebner_size"] == section["intersection_size"]


def test_hilbert_report_on_the_tetrahedron() -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    report = run("hilbert", doc)
    section = report["hilbert"]
    assert report["verdict"] is True
    assert section["dimension"] == 4
    assert section["codimension"] == 3
    assert section["degree"] == 4
    assert section["components"] == [
        {"label": "J_0", "dimension": 4, "expected": 4}
    ]


def test_color_report_on_the_four_cycle_complex() -> None:
    doc = parse_input(str(FIXTURES / "cycles_full.json"))
    report = run("color", doc)
    assert report["verdict"] is False
    assert report["coloration"]["found"] is False
    assert report["coloration"]["method"] == "search"


def test_reduce_report_falls_back_on_the_four_cycle_complex() -> None:
    doc = parse_input(str(FIXTURES / "cycles_full.json"))
    report = run("reduce", doc)
    assert report["verdict"] is True
    section = report["reduction"]
    assert section["theorem_applies"] is False
    assert section["failure"].startswith("NoColorationFound")
    assert section["reduction_number"] == 2
    assert report["coloration"]["binomial_ok"] is True
    assert report["coloration"]["good_on_g_prime"] is False


def test_reduce_fallback_attempts_the_dtree_coloration_once(monkeypatch) -> None:
    # the theorem fails on cycles_full, so the fallback asks for a coloration
    # again; the run answers it with the first d-tree attempt
    calls = []
    attempt = color.dtree_coloration

    def counted(ext):
        calls.append(ext)
        return attempt(ext)

    monkeypatch.setattr(color, "dtree_coloration", counted)
    report = run("reduce", parse_input(str(FIXTURES / "cycles_full.json")))
    assert report["reduction"]["theorem_applies"] is False
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name,command,with_oracle",
    [
        ("dtree-2-6-7", "reduce", False),
        ("dtree-2-6-7", "reduce", True),
        ("greduit", "reduce", True),
        ("greduit", "decompose", True),
        ("cycles_full", "reduce", True),
        ("cycles_full", "decompose", True),
    ],
)
def test_a_run_builds_the_binomial_extension_ideal_once(
    name: str, command: str, with_oracle: bool, monkeypatch
) -> None:
    # the theorem, the fallback certificate, the command and the oracle all
    # read the one B the run built; on the d-tree the theorem fails after
    # its coloration is found
    if name.startswith("dtree"):
        doc = parse_document(perfbench_dtree(2, 6, 7))
    else:
        doc = parse_input(str(FIXTURES / f"{name}.json"))
    calls = []
    build = extension_module.binomial_extension_generators

    def counted(ext, ring):
        calls.append(ext)
        return build(ext, ring)

    monkeypatch.setattr(extension_module, "binomial_extension_generators", counted)
    report = run(command, doc, with_oracle=with_oracle)
    if name.startswith("dtree"):
        assert report["reduction"]["failure"].startswith("HypothesisFailed")
    assert len(calls) == 1


def test_a_color_run_builds_the_reduced_graph_once(monkeypatch) -> None:
    # the search's candidates, the binomial conditions, G' and the report
    # section all read the one graph the run built
    calls = []
    build = color.reduced_graph

    def counted(ext):
        calls.append(ext)
        return build(ext)

    monkeypatch.setattr(color, "reduced_graph", counted)
    report = run("color", parse_document(ring_document(20)))
    assert report["coloration"]["found"] is True
    assert len(calls) == 1


def test_reduce_fallback_does_not_turn_engine_faults_into_verdicts(monkeypatch) -> None:
    def fault(*args, **kwargs):
        raise OrderMismatch("polynomials from different rings")

    monkeypatch.setattr(reduce_module, "reduction_number", fault)
    path = str(FIXTURES / "cycles_full.json")
    with pytest.raises(OrderMismatch):
        run("reduce", parse_input(path))
    assert main(["reduce", "--input", path]) == EXIT_INTERNAL_ERROR


@pytest.mark.parametrize("name", ALL_FIXTURE_NAMES)
def test_the_engine_builds_no_exponent_tuple(name: str, monkeypatch) -> None:
    # exponent tuples are met only at the edges of poly: every command, and
    # reduce with the oracle, runs on packed monomials alone
    doc = parse_input(str(FIXTURES / f"{name}.json"))
    for attr in ("pack", "monomial", "exponents"):

        def edge(*args, attr=attr, **kwargs):
            pytest.fail(f"Ring.{attr} called")

        monkeypatch.setattr(Ring, attr, edge)
    for command in COMMANDS:
        run(command, doc)
    run("reduce", doc, with_oracle=True)


def test_a_diverging_rewriter_is_an_internal_error_under_python_O() -> None:
    # the rewriter's step bound is a typed error, so it still fires when
    # python -O strips asserts, and main maps it to exit code 3
    code = (
        "import sys\n"
        "import binomext.reduce as r\n"
        "from binomext.cli import main\n"
        "r._family = lambda m, p, q: None\n"
        "r._slide = lambda m, p, q: (p, q, 0, 1)\n"
        f"sys.exit(main(['oracle', '--input', {str(FIXTURES / 'greduit.json')!r}]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == EXIT_INTERNAL_ERROR, out.stderr
    assert out.stderr.startswith("internal error: RewriterDiverged: no canonical family after")
    assert out.stdout == ""


def test_a_monomial_overflow_is_an_internal_error_under_python_O() -> None:
    # the guard bits are tested by code, not by assert, so an exponent or
    # degree past MAX_EXPONENT still raises under python -O; main maps the
    # typed error to exit code 3
    code = (
        "import sys\n"
        "import binomext.cli as c\n"
        "from binomext.extension import IdealPresentation\n"
        "from binomext.poly import MAX_EXPONENT\n"
        "def powers(ext, ring):\n"
        "    x, y = [0] * ring.nvars, [0] * ring.nvars\n"
        "    x[0] = y[1] = MAX_EXPONENT\n"
        "    return IdealPresentation(ring, (ring.monomial(tuple(x)), ring.monomial(tuple(y))))\n"
        "c.binomial_extension_ideal = powers\n"
        f"sys.exit(c.main(['hilbert', '--input', {str(FIXTURES / 'greduit.json')!r}]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == EXIT_INTERNAL_ERROR, out.stderr
    assert out.stderr.startswith("internal error: MonomialOverflow: degree")
    assert out.stdout == ""


def test_oracle_skips_containment_when_a_class_is_empty(tmp_path, capsys) -> None:
    # the d-tree coloration of this simplex leaves class 3 without a vertex,
    # so there are no reduction vectors to cross-check
    doc = {
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
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--input", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in report["oracle"]["checks"]}
    assert checks["containment"] == {
        "name": "containment",
        "ok": True,
        "detail": "skipped: the dtree coloration leaves a class empty",
    }
    assert report["oracle"]["diffs"] == []
    assert main(["reduce", "--oracle", "--input", str(path)]) == EXIT_VERDICT_FALSE
    capsys.readouterr()


def test_reduce_is_exact_for_a_prime_above_two_to_the_32() -> None:
    doc = parse_input(str(FIXTURES / "cycles_full.json"))
    doc = {**doc, "field": 4294967311, "options": {**doc["options"], "rho_max": 2}}
    report = run("reduce", doc)
    assert report["verdict"] is True
    assert report["reduction"]["verdicts"] == [[1, False], [2, True]]
    assert report["reduction"]["reduction_number"] == 2


def test_reduce_and_oracle_never_import_numpy() -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from binomext.cli import parse_input, run\n"
        f"doc = parse_input({str(FIXTURES / 'greduit.json')!r})\n"
        "run('reduce', doc)\n"
        "run('oracle', doc)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["decompose", "reduce", "oracle"])
def test_consecutive_runs_render_identical_reports(command: str) -> None:
    # each run starts from an empty memo, so `timing` repeats too
    doc = parse_input(str(FIXTURES / "greduit.json"))
    first = render_report(run(command, doc))
    assert render_report(run(command, doc)) == first
    run("oracle", doc)
    assert render_report(run(command, doc)) == first


def test_reduce_report_on_the_tetrahedron() -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    section = run("reduce", doc)["reduction"]
    assert section["theorem_applies"] is True
    assert section["reduction_number"] == 1
    assert section["vectors"] == ["a + c", "b", "d + y", "z"]
    assert [fc["route"] for fc in section["facet_conditions"]] == ["private-origin"]


def test_oracle_merges_into_another_command() -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    report = run("hilbert", doc, with_oracle=True)
    assert report["verdict"] is True
    assert report["oracle"]["diffs"] == []
    assert {c["name"] for c in report["oracle"]["checks"]} == {
        "intersection",
        "dimensions",
        "rewriter",
        "sop",
        "containment",
        "membership",
    }


@pytest.mark.parametrize("name", ["greduit", "cycles_full"])
def test_the_oracle_asks_once_per_monomial_it_counts(name: str, monkeypatch) -> None:
    # the containment detail counts the monomials cross-checked, each one
    # membership question; on cycles_full they span rho = 1 and rho = 2
    calls = []
    covered = oracle_module.monomial_covered

    def counted(vectors, b, m):
        calls.append(m)
        return covered(vectors, b, m)

    monkeypatch.setattr(oracle_module, "monomial_covered", counted)
    report = run("oracle", parse_input(str(FIXTURES / f"{name}.json")))
    detail = {c["name"]: c["detail"] for c in report["oracle"]["checks"]}["containment"]
    checked = int(detail.split()[0])
    assert detail.startswith(f"{checked} monomials cross-checked")
    assert checked > 0 and len(calls) == checked
    assert report["oracle"]["diffs"] == []


def test_a_system_of_parameters_of_the_wrong_size_is_a_sop_diff(monkeypatch) -> None:
    # the check compares the accepted forms with the oracle's own dim R/B
    fallback = oracle_module.fallback_reduction

    def one_form_too_many(ext, ring, rho_max=10):
        cert = fallback(ext, ring, rho_max)
        forms = cert.vectors.forms
        return cert._replace(vectors=ReductionVectors(forms + forms[:1]))

    monkeypatch.setattr(oracle_module, "fallback_reduction", one_form_too_many)
    report = run("oracle", parse_input(str(FIXTURES / "greduit.json")))
    sop = {c["name"]: c for c in report["oracle"]["checks"]}["sop"]
    assert sop == {"name": "sop", "ok": False, "detail": "5 forms for dimension 4"}
    assert "sop" in report["oracle"]["diffs"]


def test_a_rank_coverage_that_misses_a_monomial_is_a_containment_diff(monkeypatch) -> None:
    rank = oracle_module.rank_coverage

    def dropped(vectors, b, rho):
        cols, covered = rank(vectors, b, rho)
        return cols, covered - {min(covered)}

    monkeypatch.setattr(oracle_module, "rank_coverage", dropped)
    report = run("oracle", parse_input(str(FIXTURES / "greduit.json")))
    assert report["oracle"]["diffs"] == ["containment"]


def test_rho_max_bound_is_respected() -> None:
    doc = parse_input(str(FIXTURES / "cycles_full.json"))
    report = run("reduce", {**doc, "options": {**doc["options"], "rho_max": 1}})
    assert report["verdict"] is False
    assert report["reduction"]["reduction_number"] is None
    assert report["reduction"]["bound_exceeded"] is True


# ---------------------------------------------------------------------------
# entry point


def test_main_writes_a_report_and_exits_zero(tmp_path, capsys) -> None:
    out = tmp_path / "report.json"
    code = main(
        ["validate", "--input", str(FIXTURES / "greduit.json"), "--out", str(out)]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["command"] == "validate"
    err = capsys.readouterr().err
    assert "verdict=pass" in err and "wall=" in err


def test_main_prints_to_stdout_without_out(capsys) -> None:
    code = main(["validate", "--input", str(FIXTURES / "cycles_pair.json")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] is True


def test_main_exit_one_on_failed_verdict(capsys) -> None:
    code = main(["color", "--input", str(FIXTURES / "cycles_full.json")])
    assert code == EXIT_VERDICT_FALSE
    assert json.loads(capsys.readouterr().out)["verdict"] is False


def test_main_exit_two_on_input_errors(tmp_path, capsys) -> None:
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == EXIT_INPUT_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text('{"facets": [["a", "a"]]}\n')
    assert main(["validate", "--input", str(bad)]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_main_exit_two_on_a_file_that_is_not_utf8(tmp_path, capsys) -> None:
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"facets": [["\u00e9"]]}'.encode("latin-1"))
    assert main(["validate", "--input", str(bad)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: not UTF-8 at byte 14: invalid continuation byte\n"


def test_main_exit_two_on_deeply_nested_json(tmp_path, capsys) -> None:
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    assert main(["validate", "--input", str(bad)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: JSON nested too deeply to decode\n"


def test_main_exit_two_on_an_unwritable_out(tmp_path, capsys) -> None:
    # a report that cannot be written is an input error, not a failed verdict
    out = tmp_path / "missing" / "report.json"
    code = main(["validate", "--input", str(FIXTURES / "greduit.json"), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"


def test_main_rejects_bad_overrides(capsys) -> None:
    # an override is validated by parse_document, like the document itself,
    # so the message is the parser's
    path = str(FIXTURES / "greduit.json")
    for override, message in (
        (["--field", "4"], "field: field characteristic must be prime, got 4"),
        (["--field", "x"], "field: unknown field name 'x'"),
        (["--rho-max", "0"], "options.rho_max: expected a positive integer"),
    ):
        assert main(["hilbert", "--input", path, *override]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_main_overrides_are_echoed_in_the_report(capsys) -> None:
    code = main(
        [
            "hilbert",
            "--input",
            str(FIXTURES / "greduit.json"),
            "--field",
            "rational",
            "--order",
            "deglex",
            "--rho-max",
            "4",
            "--seed",
            "9",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["field"] == "rational"
    assert report["input"]["order"] == "deglex"
    assert report["input"]["options"] == {"rho_max": 4, "seed": 9}
    assert report["verdict"] is True


def test_main_oracle_flag(capsys) -> None:
    code = main(
        ["validate", "--input", str(FIXTURES / "greduit.json"), "--oracle"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"] is not None
    assert report["oracle"]["diffs"] == []


# The command line as argparse parsed it, pinned from its output: the same
# options and forms, the same messages, the same exit codes. COLUMNS is set
# to 80 wherever the text is compared, the width argparse wrapped it to.
USAGE = """\
usage: binomext [-h] --input INPUT [--out OUT] [--field FIELD]
                [--order {lex,deglex,degrevlex}] [--rho-max RHO_MAX]
                [--seed SEED] [--oracle]
                {validate,ideal,decompose,hilbert,color,reduce,oracle}
"""

HELP = USAGE + """
Binomial extension ideals of simplicial complexes.

positional arguments:
  {validate,ideal,decompose,hilbert,color,reduce,oracle}

options:
  -h, --help            show this help message and exit
  --input INPUT         path to a JSON input document
  --out OUT             write the JSON report here instead of stdout
  --field FIELD         override the document field (prime or 'rational')
  --order {lex,deglex,degrevlex}
                        override the monomial order
  --rho-max RHO_MAX     override the containment search bound
  --seed SEED           override the document seed
  --oracle              add Groebner cross-checks
"""

_G = str(FIXTURES / "greduit.json")

# (argv, the argv spelled out in full that must print the same report)
ARGV_SAME_AS = [
    (["validate", f"--input={_G}"], ["validate", "--input", _G]),
    (
        ["hilbert", f"--input={_G}", "--field=rational", "--order=deglex", "--rho-max=4", "--seed=9"],
        ["hilbert", "--input", _G, "--field", "rational", "--order", "deglex", "--rho-max", "4", "--seed", "9"],
    ),
    (["reduce", "--input", _G, "--rho", "3"], ["reduce", "--input", _G, "--rho-max", "3"]),
    (
        ["reduce", "--in", _G, "--rho=3", "--se", "-1", "--f", "32003", "--ord", "lex"],
        ["reduce", "--input", _G, "--rho-max", "3", "--seed", "-1", "--field", "32003", "--order", "lex"],
    ),
    (
        ["reduce", "--input", "missing.json", "--input", _G, "--rho-max", "1", "--rho-max", "3"],
        ["reduce", "--input", _G, "--rho-max", "3"],
    ),
    (["--input", _G, "reduce", "--oracle", "--oracle"], ["reduce", "--input", _G, "--oracle"]),
    (["--seed", "-1", "--in", _G, "validate"], ["validate", "--input", _G, "--seed", "-1"]),
    (["reduce", "--input", _G, "--rho-max", " +3 "], ["reduce", "--input", _G, "--rho-max", "3"]),
]

# (argv, the error line argparse printed under the usage)
ARGV_ERRORS = [
    (["reduce", "--input", _G, "--o", "x"], "ambiguous option: --o could match --out, --order, --oracle"),
    (["reduce", "--input", _G, "--foo"], "unrecognized arguments: --foo"),
    (["reduce", "--input", _G, "--foo=1", "-x"], "unrecognized arguments: --foo=1 -x"),
    (["reduce", "--input", _G, "extra"], "unrecognized arguments: extra"),
    (["reduce", "--input", _G, "--", "x"], "unrecognized arguments: -- x"),
    (["reduce"], "the following arguments are required: --input"),
    ([], "the following arguments are required: command, --input"),
    (["--", "reduce", "--input", _G], "the following arguments are required: --input"),
    (["reduce", "--input"], "argument --input: expected one argument"),
    (["reduce", "--input", _G, "--seed"], "argument --seed: expected one argument"),
    (["reduce", "--input", _G, "--seed", "-x"], "argument --seed: expected one argument"),
    (
        ["explode", "--input", _G],
        "argument command: invalid choice: 'explode' (choose from 'validate', 'ideal', "
        "'decompose', 'hilbert', 'color', 'reduce', 'oracle')",
    ),
    (
        ["reduce", "--input", _G, "--order", "lex", "--order", "revlex"],
        "argument --order: invalid choice: 'revlex' (choose from 'lex', 'deglex', 'degrevlex')",
    ),
    (["reduce", "--input", _G, "--rho-max", "x"], "argument --rho-max: invalid int value: 'x'"),
    (["reduce", "--input", _G, "--rho-max="], "argument --rho-max: invalid int value: ''"),
    (["reduce", "--input", _G, "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    (["reduce", "--input", _G, "--oracle=1"], "argument --oracle: ignored explicit argument '1'"),
    (["reduce", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["reduce", "--rho-max", "x", "--help"], "argument --rho-max: invalid int value: 'x'"),
    (["--help", "--o"], "ambiguous option: --o could match --out, --order, --oracle"),
]


def _exit_of(argv: list[str], capsys) -> tuple[int, str, str]:
    # main returns the exit code; argparse, which these cases were pinned
    # against, raised it as SystemExit
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, same_as", ARGV_SAME_AS)
def test_every_argv_form_prints_the_report_of_the_full_form(argv, same_as, capsys) -> None:
    code, expected, _ = _exit_of(same_as, capsys)
    assert code == EXIT_OK
    got_code, got, err = _exit_of(argv, capsys)
    assert (got_code, got) == (code, expected)
    assert err.startswith(f"{same_as[0]}: verdict=pass")


def test_the_out_option_takes_both_forms(tmp_path, capsys) -> None:
    code, expected, _ = _exit_of(["validate", "--input", _G], capsys)
    for argv in (["--out", str(tmp_path / "a.json")], [f"--out={tmp_path / 'b.json'}"]):
        assert _exit_of(["validate", "--input", _G, *argv], capsys)[:2] == (code, "")
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text() == expected


def test_a_value_of_two_dashes_is_taken_as_given(tmp_path, monkeypatch, capsys) -> None:
    # argparse dropped the "--" of `--input=--` and stored an empty list,
    # which main met as an internal error (exit 3); it is a file name here
    monkeypatch.chdir(tmp_path)
    code, out, err = _exit_of(["validate", "--input=--"], capsys)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == f"error: cannot read --: {FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), '--')}\n"


def test_a_negative_seed_is_a_value(capsys) -> None:
    code, out, _ = _exit_of(["validate", "--input", _G, "--seed", "-1"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["input"]["options"]["seed"] == -1


@pytest.mark.parametrize("argv, message", ARGV_ERRORS)
def test_a_bad_argv_prints_the_usage_and_exits_two(argv, message, capsys, monkeypatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_of(argv, capsys)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == f"{USAGE}binomext: error: {message}\n"


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["reduce", "--h"], ["-hh"], ["reduce", "--foo", "--help", "--rho-max", "x"]]
)
def test_help_prints_to_stdout_and_exits_zero(argv, capsys, monkeypatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_of(argv, capsys) == (EXIT_OK, HELP, "")


def test_field_override_changes_the_model() -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    rational = {**doc, "field": "rational"}
    gf = render_report(run("hilbert", doc))
    qq = render_report(run("hilbert", rational))
    assert json.loads(gf)["hilbert"] == json.loads(qq)["hilbert"]


def test_run_rejects_unknown_command() -> None:
    doc = parse_document({"facets": [["a", "b"]]})
    with pytest.raises(ValueError, match="unknown command"):
        run("explode", doc)


def test_documents_are_immutable_inputs() -> None:
    data = minimal_doc()
    snapshot = copy.deepcopy(data)
    parse_document(data)
    assert data == snapshot


def test_the_parsed_document_shares_nothing_with_its_input() -> None:
    data = minimal_doc() | {"vertices": ["a", "b", "c", "d"], "options": {"seed": 3}}
    data["facets"].append(["c", "d"])
    doc = parse_document(data)
    snapshot = copy.deepcopy(doc)
    data["vertices"].append("e")
    data["facets"][0].append("e")
    data["facets"].append(["e"])
    data["extensions"][0]["origin"] = "b"
    edge = data["extensions"][0]["edges"][0]
    edge["target"] = "c"
    edge["points"].append("q")
    data["extensions"][0]["edges"].append({"target": "c"})
    data["extensions"].append({"facet": 1, "origin": "c", "edges": [{"target": "d"}]})
    data["options"]["rho_max"] = 2
    assert doc == snapshot


@pytest.mark.parametrize("command", COMMANDS)
def test_run_leaves_its_document_unchanged(command: str) -> None:
    doc = parse_input(str(FIXTURES / "greduit.json"))
    snapshot = copy.deepcopy(doc)
    report = run(command, doc, with_oracle=command == "reduce")
    assert doc == snapshot
    assert report["input"] == doc
