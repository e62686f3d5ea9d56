"""Pinned work counters of the Groebner-heavy commands.

The counters (S-pairs reduced, normal forms, rank rows) and the
basis sizes are fixed by the S-pair sequence and by the run memo, which
computes each basis and graded coverage once per run, so any change to pair
selection, to the pair criteria or to what a run recomputes shows up here
even when every answer stays right. A change that alters a count on purpose updates this table and says
why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from binomext.cli import parse_document, parse_input, run
from conftest import FIXTURES, extended_dtree_document

DTREE = Path(__file__).resolve().parent / "data" / "dtree-2-16.json"


def strip_document(n: int) -> dict:
    """n triangles (v_i, v_i+1, v_i+2), facet i extended from v_i by one
    point on the edge (v_i, v_i+2)."""
    return {
        "facets": [[f"v{i}", f"v{i + 1}", f"v{i + 2}"] for i in range(n)],
        "extensions": [
            {"facet": i, "origin": f"v{i}", "edges": [{"target": f"v{i + 2}", "points": [f"p{i}"]}]}
            for i in range(n)
        ],
    }


# Set when Buchberger's pair loop became the Gebauer-Moeller installation:
# s_pairs counts only the pairs whose S-polynomial is reduced, and the pairs
# that criteria M, F and B_k drop no longer cost a normal form; every report
# stayed byte-identical outside `timing`. The `reduce` rows were set again
# when the certifier began to read containment off GB(B + G): `rank_rows`
# left them, and a graded coverage now costs one normal form per monomial
# of its degree, built only for witnesses (cycles_full at rho = 1) or for
# the per-facet hypothesis (greduit1); the `oracle` rows did not change.
# The `decompose` and `oracle` rows of greduit1 and cycles_full, the
# four-facet fixtures, were set again when `ideal_intersection_many` became a
# balanced fold: (J_0 cap J_1) cap (J_2 cap J_3) makes fewer S-pairs than the
# sequential fold, and every report stayed byte-identical outside `timing`.
# The plain `reduce` rows were set again when `verify_sop` began to bound
# dim R/B below by one facet's component and stopped computing GB(B) when
# that bound reaches the number of forms: only GB(B + G) and that facet's
# few minors are reduced. greduit keeps its row, as its one facet's
# component is B itself; the `oracle` rows, which compute GB(B) anyway,
# did not change, and every report stayed byte-identical outside `timing`.
# The plain `reduce` rows of greduit, greduit1, cycles_pair and strip3 were
# set again when `verify_sop` began to read dim R/B off the complex as
# dim Delta + 1: the basis of the largest facet's minors, GB(B) itself on
# greduit, is no longer reduced, so GB(B + G) is the only basis a run
# builds; cycles_full and dtree-2-16 keep their rows, as the facet read
# there had no minors, and every report stayed byte-identical outside
# `timing`.
# The `oracle` rows of greduit1, cycles_pair, cycles_full and strip3 were
# set again when the rewriter check began to read GB(J_l), which the
# dimension and membership checks build anyway, instead of a basis of the
# facet's minors alone: those bases are no longer reduced, and every report
# stayed byte-identical outside `timing`. greduit keeps its row, as its one
# facet's minors are B.
GOLDEN = {
    ("decompose", "greduit"): {
        "normal_forms": 20, "s_pairs": 8, "groebner_size": 6, "intersection_size": 6
    },
    ("hilbert", "greduit"): {"normal_forms": 20, "s_pairs": 8},
    ("reduce", "greduit"): {"normal_forms": 20},
    ("oracle", "greduit"): {"normal_forms": 89, "rank_rows": 34, "s_pairs": 8},
    ("decompose", "greduit1"): {
        "normal_forms": 360, "s_pairs": 133, "groebner_size": 36, "intersection_size": 36
    },
    ("hilbert", "greduit1"): {"normal_forms": 164, "s_pairs": 28},
    ("reduce", "greduit1"): {"normal_forms": 152, "s_pairs": 8},
    ("oracle", "greduit1"): {"normal_forms": 716, "rank_rows": 37, "s_pairs": 141},
    ("decompose", "cycles_pair"): {
        "normal_forms": 50, "s_pairs": 16, "groebner_size": 6, "intersection_size": 6
    },
    ("hilbert", "cycles_pair"): {"normal_forms": 28, "s_pairs": 4},
    ("reduce", "cycles_pair"): {"normal_forms": 21, "s_pairs": 3},
    ("oracle", "cycles_pair"): {"normal_forms": 116, "rank_rows": 20, "s_pairs": 19},
    ("decompose", "cycles_full"): {
        "normal_forms": 357, "s_pairs": 166, "groebner_size": 27, "intersection_size": 27
    },
    ("hilbert", "cycles_full"): {"normal_forms": 152, "s_pairs": 38},
    ("reduce", "cycles_full"): {"normal_forms": 142, "s_pairs": 27},
    ("oracle", "cycles_full"): {"normal_forms": 887, "rank_rows": 168, "s_pairs": 195},
    ("decompose", "strip3"): {
        "normal_forms": 154, "s_pairs": 58, "groebner_size": 15, "intersection_size": 15
    },
    ("hilbert", "strip3"): {"normal_forms": 72, "s_pairs": 12},
    ("reduce", "strip3"): {"normal_forms": 36},
    ("oracle", "strip3"): {"normal_forms": 297, "rank_rows": 27, "s_pairs": 58},
    # a 16-facet extended 2-tree: losing a pair criterion shows here as a
    # count, where elsewhere it shows only as a slower run
    ("hilbert", "dtree-2-16"): {"normal_forms": 2550, "s_pairs": 646},
    # GB(B + G) of the same d-tree, where the old dimension search ran for
    # minutes; GB(B), the `hilbert` row's 646 S-pairs, is not computed
    ("reduce", "dtree-2-16"): {"normal_forms": 1146, "s_pairs": 210},
}


@pytest.mark.parametrize("command,instance", sorted(GOLDEN))
def test_work_counters_are_pinned(command: str, instance: str) -> None:
    if instance == "strip3":
        doc = parse_document(strip_document(3))
    elif instance == "dtree-2-16":
        doc = parse_input(str(DTREE))
    else:
        doc = parse_input(str(FIXTURES / f"{instance}.json"))
    report = run(command, doc)
    got = dict(report["timing"])
    if command == "decompose":
        got["groebner_size"] = report["components"]["groebner_size"]
        got["intersection_size"] = report["components"]["intersection_size"]
    assert got == GOLDEN[command, instance]


def test_the_committed_dtree_is_the_generated_one() -> None:
    # CI also runs `hilbert` and `reduce` on it under python -O; it must
    # stay what the generator gives, so it can be rebuilt
    data = json.loads(DTREE.read_text(encoding="utf-8"))
    data.pop("comment")
    assert data == extended_dtree_document(2, 16, seed=7)
