"""The value classes: immutable records with value equality and hashing,
defined as `collections.namedtuple` subclasses, so that a cold start
neither imports `dataclasses` nor runs `typing.NamedTuple`'s metaclass; and
the modules a cold CLI run loads."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binomext import (
    Certificate,
    DTreeVerdict,
    FacetCondition,
    FacetExtension,
    Graph,
    MonomialOrder,
    PrimeField,
    ProperStar,
    RationalField,
    Ring,
    ScrollBlock,
    Vertex,
    binomial_extension_ideal,
    find_coloration,
    graph,
    facet_roles,
    hilbert_data,
    is_generalized_d_tree,
    modB_normal_pair,
    reduction_vectors,
    scroll_matrix,
    skeleton_graph,
)
from binomext.cli import build_model, parse_input
from binomext.extension import IdealPresentation
from binomext.poly import PRIME_LIMIT
from binomext.reduce import BothXVariables, certify
from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_cli_import_loads_neither_dataclasses_nor_inspect() -> None:
    """A fresh interpreter's `import binomext.cli` adds neither module.

    Only the modules the import adds are counted: they are compared against
    the interpreter's own set before it, so a module that `site` loads (a
    .pth file can load anything) is not the package's cost."""
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import binomext.cli\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    added = set(proc.stdout.split())
    assert "binomext.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added & {"dataclasses", "inspect"})


# modules that no cold run of a command over a prime field may load:
# argparse with the gettext and locale its parser imports, and fractions
# with its decimal
COLD_START_COSTS = {"argparse", "gettext", "locale", "fractions", "decimal"}


def _cold_run_modules(*argv: str) -> set[str]:
    """The modules that `python -m binomext.cli argv...` adds to what the
    interpreter, `site` and runpy (the machinery of -m) load before it."""
    script = (
        "import runpy, sys\n"
        "bare = set(sys.modules)\n"
        "try:\n"
        "    runpy.run_module('binomext.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stderr.write(f'{code} ' + ' '.join(sorted(set(sys.modules) - bare)) + '\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    code, *added = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(added)


def test_a_cold_reduce_loads_neither_argparse_fractions_nor_the_oracle() -> None:
    added = _cold_run_modules("reduce", "--input", str(FIXTURES / "greduit.json"))
    assert {"binomext", "binomext.poly", "binomext.reduce"} <= added
    loaded = added & (COLD_START_COSTS | {"binomext.oracle"})
    assert not loaded, sorted(loaded)
    # cli.py runs as __main__ and is not imported a second time
    assert "binomext.cli" not in added


@pytest.mark.parametrize(
    "argv", [["oracle"], ["reduce", "--oracle"]], ids=["oracle", "reduce --oracle"]
)
def test_the_oracle_alone_loads_its_module(argv: list[str]) -> None:
    added = _cold_run_modules(*argv, "--input", str(FIXTURES / "greduit.json"))
    assert "binomext.oracle" in added
    assert "binomext.cli" not in added
    assert not added & COLD_START_COSTS, sorted(added & COLD_START_COSTS)


def test_a_rational_run_loads_fractions() -> None:
    added = _cold_run_modules(
        "reduce", "--input", str(FIXTURES / "greduit.json"), "--field", "rational"
    )
    assert "fractions" in added
    assert not added & {"argparse", "binomext.oracle"}


def _two_builds(name: str):
    """The same fixture built twice, so that nothing is shared by identity."""
    first, second = (build_model(parse_input(str(FIXTURES / f"{name}.json"))) for _ in range(2))
    assert first.ext is not second.ext and first.ring is not second.ring
    return first, second


@pytest.mark.parametrize("name", ["greduit", "cycles_pair"])
def test_memo_keys_built_twice_compare_and_hash_equal(name: str) -> None:
    """The run memo finds an answer by value: an ExtensionComplex, a Ring, an
    IdealPresentation or a ReductionVectors built again from one document
    must equal and hash as the first.

    A NamedTuple record also equals a plain tuple of the same items, and two
    record types of one length can equal each other. No memo key can meet
    such a twin: every key is a tuple that starts with its own string tag
    ("groebner", "coverage", ...), and each position after the tag holds one
    type."""
    first, second = _two_builds(name)
    b1 = binomial_extension_ideal(first.ext, first.ring)
    b2 = binomial_extension_ideal(second.ext, second.ring)
    col1, _ = find_coloration(first.ext)
    col2, _ = find_coloration(second.ext)
    v1, v2 = reduction_vectors(col1, first.ring), reduction_vectors(col2, second.ring)
    pairs = [(first.ext, second.ext), (first.ring, second.ring), (b1, b2), (v1, v2)]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert len({b1, b2}) == 1
    assert first.ring != Ring(first.ring.names, PrimeField(7), first.ring.order)


def test_records_are_immutable() -> None:
    """Assigning or deleting a field raises AttributeError."""
    model = build_model(parse_input(str(FIXTURES / "greduit.json")))
    ext, ring = model.ext, model.ring
    l = next(l for l, fe in enumerate(ext.extensions) if fe is not None)
    b = binomial_extension_ideal(ext, ring)
    cert = certify(ext, ring)
    records = [
        (Vertex(0, "a"), "name"),
        (ProperStar(0, 0, (1,)), "targets"),
        (ext.base, "facets"),
        (graph([0, 1], [(0, 1)]), "edges"),
        (ext, "base"),
        (ext.extensions[l], "points"),
        (scroll_matrix(ext, l), "blocks"),
        (scroll_matrix(ext, l).blocks[0], "run"),
        (b, "generators"),
        (cert, "failure"),
        (cert.coloration, "pairs"),
        (cert.vectors, "forms"),
        (cert.reduction, "reduction_number"),
        (hilbert_data(list(b.generators), ring), "degree"),
        (model, "ring"),
        (ring, "names"),
        (ring, "key"),
        (PrimeField(5), "p"),
        (MonomialOrder("lex"), "kind"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    for record, field in ((ring, "names"), (PrimeField(5), "p")):
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        RationalField().name = "rational"


# the records that keep a __dict__, for their cached properties
CACHING_RECORDS = {"SimplicialComplex", "IdealPresentation", "ReductionVectors"}


def _record_classes() -> dict[str, type]:
    """Every tuple class the package defines, by name."""
    found = {}
    for name in ("cli", "color", "complexes", "extension", "oracle", "poly", "reduce"):
        module = importlib.import_module(f"binomext.{name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, tuple)
                and value.__module__ == module.__name__
            ):
                found[value.__name__] = value
    return found


def test_records_refuse_new_attributes() -> None:
    """No record but the three caching ones has a __dict__: each class in
    its line below tuple declares empty __slots__, and setting a new
    attribute on an instance of each raises AttributeError."""
    classes = _record_classes()
    assert len(classes) == 21, sorted(classes)
    for name, cls in classes.items():
        slotted = all(
            vars(c).get("__slots__") == () for c in cls.__mro__ if c not in (tuple, object)
        )
        assert slotted == (name not in CACHING_RECORDS), name

    model = build_model(parse_input(str(FIXTURES / "greduit.json")))
    ext, ring = model.ext, model.ring
    l = next(l for l, fe in enumerate(ext.extensions) if fe is not None)
    mtx = scroll_matrix(ext, l)
    cert = certify(ext, ring)
    traces = []
    entries = sorted({v for block in mtx.blocks for v in block.run})
    for i, u in enumerate(entries):
        for v in entries[i + 1 :]:
            try:
                traces.append(modB_normal_pair(mtx, u, v, ring))
            except BothXVariables:
                pass
    trace = next(t for t in traces if t.steps)
    pure = [
        Vertex(0, "a"),
        graph([0, 1], [(0, 1)]),
        is_generalized_d_tree(skeleton_graph(ext.base), ext.base.dim),
        ext.extensions[l].star,
        ext.extensions[l],
        ext,
        mtx.blocks[0],
        mtx,
        facet_roles(ext, l),
        cert.coloration,
        MonomialOrder("lex"),
        hilbert_data(list(binomial_extension_ideal(ext, ring).generators), ring),
        trace.steps[0],
        trace,
        cert.reduction,
        cert.facet_conditions[0],
        cert,
        model,
    ]
    assert {type(r).__name__ for r in pure} == set(classes) - CACHING_RECORDS
    for record in pure:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.note = 1


def test_the_caching_records_keep_their_cached_properties() -> None:
    model = build_model(parse_input(str(FIXTURES / "greduit.json")))
    base, ring = model.ext.base, model.ring
    assert base.id_of(base.vertices[1].name) == 1
    assert base.holders is base.holders and "holders" in vars(base)
    b = binomial_extension_ideal(model.ext, ring)
    col, _ = find_coloration(model.ext)
    vectors = reduction_vectors(col, ring)
    for record in (b, vectors):
        assert "_hash" not in vars(record)
        assert hash(record) == vars(record)["_hash"] == hash(type(record)(*record))


def test_defaults_and_replace_keep_the_record_type() -> None:
    assert DTreeVerdict(True) == (True, (), None)
    assert FacetCondition(0, "trivial").details == ()
    cert = Certificate("dtree", None, None, None)
    assert cert.facet_conditions is None and cert.failure is None
    assert type(cert._replace(failure="x")) is Certificate
    assert IdealPresentation(Ring(("x",), PrimeField(5)), ()).label == ""
    order = MonomialOrder("lex")._replace(inner="lex")
    assert type(order) is MonomialOrder and order == ("lex", "lex")


def test_bad_input_still_raises_value_error() -> None:
    bad = [
        lambda: PrimeField(4),
        lambda: PrimeField(PRIME_LIMIT),
        lambda: MonomialOrder("revlex"),
        lambda: MonomialOrder("elim", "elim"),
        lambda: graph([0, 1], [(0, 2)]),
        lambda: Graph(frozenset({0, 1}), frozenset({(1, 0)})),
        lambda: ScrollBlock((0,)),
        lambda: ScrollBlock((0, 1, 0)),
        lambda: FacetExtension(ProperStar(0, 0, (1, 2)), (("p",),)),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()


def test_reprs_and_defaults_are_pinned() -> None:
    """Every record prints as Name(field=value, ...), the slots classes too."""
    assert repr(Vertex(0, "a")) == "Vertex(id=0, name='a')"
    assert repr(PrimeField()) == "PrimeField(p=32003)"
    assert repr(RationalField()) == "RationalField()"
    assert repr(MonomialOrder()) == "MonomialOrder(kind='degrevlex', inner='degrevlex')"
    assert repr(Ring(("x", "y"), PrimeField(5))) == (
        "Ring(names=('x', 'y'), field=PrimeField(p=5), "
        "order=MonomialOrder(kind='degrevlex', inner='degrevlex'))"
    )
    assert repr(ScrollBlock((0, 1))) == "ScrollBlock(run=(0, 1))"
    assert RationalField() == RationalField() and hash(RationalField()) == hash(RationalField())
    assert PrimeField(5) != PrimeField(7) and PrimeField(5) != RationalField()
