"""Pinned work counters of the Groebner-heavy commands.

The counters (S-pairs taken from the queue, normal forms, rank rows) and the
basis sizes are fixed by the S-pair sequence and by the run memo, which
computes each basis and graded coverage once per run, so any change to pair
selection, to the pair criteria or to what a run recomputes shows up here
even when every answer stays right. A change that alters a count on purpose updates this table and says
why.
"""

from __future__ import annotations

import pytest

from binomext.cli import parse_document, parse_input, run
from conftest import FIXTURES


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


GOLDEN = {
    ("decompose", "greduit"): {
        "normal_forms": 20, "s_pairs": 15, "groebner_size": 6, "intersection_size": 6
    },
    ("hilbert", "greduit"): {"normal_forms": 20, "s_pairs": 15},
    ("reduce", "greduit"): {"normal_forms": 48, "rank_rows": 34, "s_pairs": 60},
    ("oracle", "greduit"): {"normal_forms": 97, "rank_rows": 34, "s_pairs": 60},
    ("decompose", "greduit1"): {
        "normal_forms": 871, "s_pairs": 2634, "groebner_size": 36, "intersection_size": 36
    },
    ("hilbert", "greduit1"): {"normal_forms": 303, "s_pairs": 742},
    ("reduce", "greduit1"): {"normal_forms": 485, "rank_rows": 37, "s_pairs": 1371},
    ("oracle", "greduit1"): {"normal_forms": 1395, "rank_rows": 37, "s_pairs": 3459},
    ("decompose", "cycles_pair"): {
        "normal_forms": 63, "s_pairs": 73, "groebner_size": 6, "intersection_size": 6
    },
    ("hilbert", "cycles_pair"): {"normal_forms": 32, "s_pairs": 21},
    ("reduce", "cycles_pair"): {"normal_forms": 46, "rank_rows": 20, "s_pairs": 51},
    ("oracle", "cycles_pair"): {"normal_forms": 138, "rank_rows": 20, "s_pairs": 112},
    ("decompose", "cycles_full"): {
        "normal_forms": 793, "s_pairs": 2147, "groebner_size": 27, "intersection_size": 27
    },
    ("hilbert", "cycles_full"): {"normal_forms": 222, "s_pairs": 449},
    ("reduce", "cycles_full"): {"normal_forms": 323, "rank_rows": 168, "s_pairs": 786},
    ("oracle", "cycles_full"): {"normal_forms": 1417, "rank_rows": 168, "s_pairs": 2658},
    ("decompose", "strip3"): {
        "normal_forms": 238, "s_pairs": 437, "groebner_size": 15, "intersection_size": 15
    },
    ("hilbert", "strip3"): {"normal_forms": 100, "s_pairs": 135},
    ("reduce", "strip3"): {"normal_forms": 146, "rank_rows": 27, "s_pairs": 258},
    ("oracle", "strip3"): {"normal_forms": 427, "rank_rows": 27, "s_pairs": 610},
}


@pytest.mark.parametrize("command,instance", sorted(GOLDEN))
def test_work_counters_are_pinned(command: str, instance: str) -> None:
    if instance == "strip3":
        doc = parse_document(strip_document(3))
    else:
        doc = parse_input(str(FIXTURES / f"{instance}.json"))
    report = run(command, doc)
    got = dict(report["timing"])
    if command == "decompose":
        got["groebner_size"] = report["components"]["groebner_size"]
        got["intersection_size"] = report["components"]["intersection_size"]
    assert got == GOLDEN[command, instance]
