"""Pinned report bytes of the combinatorial commands.

`validate`, `ideal` and `color` print the complex, its Stanley-Reisner
generators, the d-tree certificate and the coloration. Each rendered report
(`timing` included) is pinned by its sha256, so a faster printer, non-face
enumeration or d-tree recognizer must keep every byte. The digests were
captured before those paths were rewritten; a change that alters a report on
purpose updates this table and says why.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from binomext.cli import parse_document, parse_input, render_report, run
from conftest import FIXTURES
from test_golden_counters import strip_document


def extended_dtree_document(d: int, nfacets: int, seed: int) -> dict:
    """A generalized d-tree glued facet by facet along full d-faces, with
    about two thirds of its facets extended along random proper edges by
    0-2 points per edge."""
    rng = random.Random(seed)
    facets = [tuple(range(d + 1))]
    while len(facets) < nfacets:
        face = sorted(rng.sample(rng.choice(facets), d))
        facets.append((*face, d + len(facets)))
    uses: dict[tuple[int, int], int] = {}
    for f in facets:
        for e in combinations(f, 2):
            uses[e] = uses.get(e, 0) + 1
    extensions = []
    points = 0
    for l, f in enumerate(facets):
        if rng.random() < 0.35:
            continue
        origin = rng.choice(f)
        proper = [t for t in f if t != origin and uses[(min(origin, t), max(origin, t))] == 1]
        if not proper:
            continue
        edges = []
        for t in sorted(rng.sample(proper, rng.randint(1, len(proper)))):
            count = rng.randint(0, 2)
            edges.append({"target": f"v{t}", "points": [f"p{points + k}" for k in range(count)]})
            points += count
        extensions.append({"facet": l, "origin": f"v{origin}", "edges": edges})
    return {
        "facets": [[f"v{v}" for v in f] for f in facets],
        "extensions": extensions,
    }


def document(instance: str):
    if instance == "strip3":
        return parse_document(strip_document(3))
    if instance == "dtree-3-32":
        return parse_document(extended_dtree_document(3, 32, seed=7))
    return parse_input(str(FIXTURES / f"{instance}.json"))


GOLDEN = {
    ("validate", "greduit"): "357146eeee5f7e5fa30258d9b07c68497c93470747d876864df6818807d1d7bf",
    ("ideal", "greduit"): "4d7b3bb02d8e81e1a9e22f02f9ef405afe9ee65985e0dc0a2e1571aa8400347d",
    ("color", "greduit"): "795b7f0249394519cb088df420a1d0a41ca0253731ab2dc1fe842f3b572e08ce",
    ("validate", "greduit1"): "995944fe1e60e3c7bac78463bdbc188e188b250d4747ab9353929a2e3198f67f",
    ("ideal", "greduit1"): "db5159e314bc0ee5cf0a3b28a824e7a569de7c14dc291329f4bb6f89c89cbe8e",
    ("color", "greduit1"): "4681c928d2de6cb8023adcfd9fed2b8110d458aafc0410c9e095b503bf7315c8",
    ("validate", "cycles_pair"): "a60341710426da8db0aa086df6595c28a0ee70010674a411a77278869d16ff7e",
    ("ideal", "cycles_pair"): "1b90a2355cf6ef9bf2d1ac31a66038e5c3ac9afaaf9b9a9f80b380158ed55c2e",
    ("color", "cycles_pair"): "d5a3240e44a52880753e106739fee64e6b565edb50172d586a50b52ba6676d4f",
    ("validate", "cycles_full"): "5d3a5f092ea41b43ff2ef2beb00aa1c371ea943cc5ee710f574ff1cba7291dfc",
    ("ideal", "cycles_full"): "09df7d292b558753e27c25da017d7d208ac3bf6831be2bcf7b6f1f9de2bb42ce",
    ("color", "cycles_full"): "380538a22e899cdac4dc9208225b397782d62e931bfdd3a453b68632ebc33428",
    ("validate", "strip3"): "5d30a2361c211f9d4c626f49f0797307898c17d10ded17ff972372e0eb3c4b43",
    ("ideal", "strip3"): "349f164c125eadaad31bc0e1f2426935010adb6538317555303c154b8dfeb207",
    ("color", "strip3"): "dc4491108502ea96a0df796dd5e0f3e4b090716edd3a179c8ac1bc5039c29314",
    ("validate", "dtree-3-32"): "eb9e76014b003591c614a1a4c48cf927cd64c17c1234e8a13697222616981b29",
    ("ideal", "dtree-3-32"): "aa9a3adfaefeb8bb9eca05109bdd38508577c93321253b57af1431a7aa70c6a6",
    ("color", "dtree-3-32"): "b52b3d828834a927f8f18aec8f5c96f20864620753a15219b0a64a977b6e79eb",
}


def report_digest(command: str, instance: str) -> str:
    text = render_report(run(command, document(instance)))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,instance", sorted(GOLDEN))
def test_report_bytes_are_pinned(command: str, instance: str) -> None:
    assert report_digest(command, instance) == GOLDEN[(command, instance)]


def test_the_generated_dtree_is_large_and_extended() -> None:
    doc = extended_dtree_document(3, 32, seed=7)
    assert len(doc["facets"]) >= 30
    assert sum(len(e["points"]) for x in doc["extensions"] for e in x["edges"]) > 0
    report = run("validate", parse_document(doc))
    assert report["complex"]["is_generalized_dtree"] is True
