"""The value classes: immutable records with value equality and hashing,
defined without `dataclasses`, so that a cold start neither imports it nor
generates code for them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from binomext import (
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
    hilbert_data,
    reduction_vectors,
    scroll_matrix,
)
from binomext.cli import build_model, parse_input
from binomext.poly import PRIME_LIMIT
from binomext.reduce import certify
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
