"""Pinned work counters of the Groebner-heavy commands.

The counters (S-pairs taken from the queue, normal forms, rank rows) and the
basis sizes are fixed by the S-pair sequence, so any change to pair
selection or to the pair criteria shows up here even when every answer stays
right. A change that alters a count on purpose updates this table and says
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
        "normal_forms": 40, "s_pairs": 30, "groebner_size": 6, "intersection_size": 6
    },
    ("hilbert", "greduit"): {"normal_forms": 40, "s_pairs": 30},
    ("reduce", "greduit"): {"normal_forms": 96, "rank_rows": 68, "s_pairs": 120},
    ("oracle", "greduit"): {"normal_forms": 205, "rank_rows": 1020, "s_pairs": 165},
    ("decompose", "greduit1"): {
        "normal_forms": 942, "s_pairs": 2634, "groebner_size": 36, "intersection_size": 36
    },
    ("hilbert", "greduit1"): {"normal_forms": 303, "s_pairs": 742},
    ("reduce", "greduit1"): {"normal_forms": 1048, "rank_rows": 148, "s_pairs": 2742},
    ("oracle", "greduit1"): {"normal_forms": 2045, "rank_rows": 2516, "s_pairs": 4858},
    ("decompose", "cycles_pair"): {
        "normal_forms": 69, "s_pairs": 73, "groebner_size": 6, "intersection_size": 6
    },
    ("hilbert", "cycles_pair"): {"normal_forms": 32, "s_pairs": 21},
    ("reduce", "cycles_pair"): {"normal_forms": 110, "rank_rows": 40, "s_pairs": 102},
    ("oracle", "cycles_pair"): {"normal_forms": 214, "rank_rows": 460, "s_pairs": 166},
    ("decompose", "cycles_full"): {
        "normal_forms": 866, "s_pairs": 2147, "groebner_size": 27, "intersection_size": 27
    },
    ("hilbert", "cycles_full"): {"normal_forms": 222, "s_pairs": 449},
    ("reduce", "cycles_full"): {"normal_forms": 323, "rank_rows": 168, "s_pairs": 786},
    ("oracle", "cycles_full"): {"normal_forms": 1831, "rank_rows": 31356, "s_pairs": 3472},
    ("decompose", "strip3"): {
        "normal_forms": 261, "s_pairs": 437, "groebner_size": 15, "intersection_size": 15
    },
    ("hilbert", "strip3"): {"normal_forms": 100, "s_pairs": 135},
    ("reduce", "strip3"): {"normal_forms": 292, "rank_rows": 54, "s_pairs": 516},
    ("oracle", "strip3"): {"normal_forms": 606, "rank_rows": 1026, "s_pairs": 878},
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
