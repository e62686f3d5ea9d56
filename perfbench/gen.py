"""Seeded instance generator for the binomext benchmark (standard library only).

Every document is a plain JSON-ready dict in the CLI's input schema; the
program under test only ever receives these documents.

Instance families (vertices ``v*``/``c*``/``t*``, points ``p*``/``a*``/``b*``):

* ``stripN``: facets (v_i, v_i+1, v_i+2) for i < N; facet i is extended from
  origin v_i by one point on the edge (v_i, v_i+2).
* ``ringN``: N triangles (c_i, c_i+1, t_i) around a chordless N-cycle; origin
  t_i with one point on each of its two edges. ``ringN-bare`` has no points.
* ``dtree-d-F``: the clique complex of a generalized d-tree with F facets,
  each new facet glued to a random host along a full d-face. 70% of the
  facets are extended from a random origin along a random set of its proper
  edges; a third of those carry no point, a third one and a third two,
  spread at random over the chosen edges (0-2 per edge). The family depends
  on the seed; its size does not.
* ``greduit``, ``cycles_pair``, ``cycles_full``: the repository
  fixtures, copied under ``docs/`` so the inputs stay fixed across commits.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from math import comb
from pathlib import Path

DOCS = Path(__file__).resolve().parent / "docs"
FIXTURES = ("greduit", "cycles_pair", "cycles_full")


def _doc(facets, extensions, comment: str) -> dict:
    return {
        "comment": comment,
        "facets": [list(f) for f in facets],
        "extensions": extensions,
        "field": 32003,
        "order": "degrevlex",
        "options": {"rho_max": 10, "seed": 0},
    }


def strip(n: int) -> dict:
    facets = [(f"v{i}", f"v{i + 1}", f"v{i + 2}") for i in range(n)]
    exts = [
        {"facet": i, "origin": f"v{i}", "edges": [{"target": f"v{i + 2}", "points": [f"p{i}"]}]}
        for i in range(n)
    ]
    return _doc(facets, exts, f"strip of {n} triangles, one point per facet")


def ring(n: int, bare: bool = False) -> dict:
    facets = [(f"c{i}", f"c{(i + 1) % n}", f"t{i}") for i in range(n)]
    exts = [] if bare else [
        {
            "facet": i,
            "origin": f"t{i}",
            "edges": [
                {"target": f"c{i}", "points": [f"a{i}"]},
                {"target": f"c{(i + 1) % n}", "points": [f"b{i}"]},
            ],
        }
        for i in range(n)
    ]
    return _doc(facets, exts, f"ring of {n} triangles" + (", no points" if bare else ""))


def dtree(d: int, nfacets: int, rng: random.Random) -> tuple[dict, dict]:
    """A random extended generalized d-tree and its expected answers.

    The answers follow from the construction alone: the base complex is a
    clique complex and every point lies in one facet, so the extended complex
    is flag and its minimal non-faces are exactly its non-edges.
    """
    facets = [tuple(range(d + 1))]
    edges = set(combinations(range(d + 1), 2))
    n = d + 1
    while len(facets) < nfacets:
        face = sorted(rng.sample(rng.choice(facets), d))
        facets.append((*face, n))
        edges.update((u, n) for u in face)
        n += 1
    in_facets: dict[tuple[int, int], int] = {}
    for f in facets:
        for e in combinations(sorted(f), 2):
            in_facets[e] = in_facets.get(e, 0) + 1

    stars = {}
    for l, f in enumerate(facets):
        for o in sorted(f):
            proper = [t for t in sorted(f) if t != o and in_facets[(min(o, t), max(o, t))] == 1]
            if proper:
                stars.setdefault(l, {})[o] = proper
    # A fixed number of extended facets, a third of them with 0, 1 and 2
    # points, keeps the instance size (and so the cost of a pass) the same
    # for every seed.
    chosen = sorted(rng.sample(sorted(stars), min(len(stars), round(0.7 * nfacets))))
    totals = [0, 1, 2] * (len(chosen) // 3) + [1] * (len(chosen) % 3)
    rng.shuffle(totals)
    exts = []
    ext_edges = {(("v", u), ("v", v)) for u, v in edges}
    n_points = 0
    n_minors = 0
    for l, total in zip(chosen, totals):
        origin = rng.choice(sorted(stars[l]))
        targets = sorted(rng.sample(stars[l][origin], rng.randint(1, len(stars[l][origin]))))
        counts = [0] * len(targets)
        for _ in range(total):
            counts[rng.choice([j for j, c in enumerate(counts) if c < 2])] += 1
        # the scroll matrix has 1 + total columns, one minor per column pair
        n_minors += comb(1 + total, 2)
        points = []
        for c in counts:
            points.append(list(range(n_points, n_points + c)))
            n_points += c
        members = [("v", v) for v in facets[l]] + [("p", p) for ps in points for p in ps]
        ext_edges.update(combinations(sorted(members), 2))
        exts.append(
            {
                "facet": l,
                "origin": f"v{origin}",
                "edges": [
                    {"target": f"v{t}", "points": [f"p{p}" for p in ps]}
                    for t, ps in zip(targets, points)
                ],
            }
        )
    names = [tuple(f"v{v}" for v in f) for f in facets]
    doc = _doc(names, exts, f"generalized {d}-tree with {nfacets} facets")
    expected = {
        "validate": {
            "verdict": True,
            "is_generalized_dtree": True,
            "stanley_reisner_count": comb(n, 2) - len(edges),
        },
        "ideal": {
            "verdict": True,
            "count": n_minors + comb(n + n_points, 2) - len(ext_edges),
        },
        "color": {"verdict": True, "found": True, "num_classes": d + 1},
    }
    return doc, expected


def instance(name: str, seed: int) -> tuple[dict, dict | None]:
    """Document for an instance name, with expected answers when the
    construction determines them (the seeded d-trees), else None."""
    if name in FIXTURES:
        return json.loads((DOCS / f"{name}.json").read_text()), None
    if name.startswith("strip"):
        return strip(int(name[5:])), None
    if name.startswith("ring"):
        n, _, bare = name[4:].partition("-")
        return ring(int(n), bare == "bare"), None
    if name.startswith("dtree-"):
        d, f = (int(x) for x in name.split("-")[1:])
        return dtree(d, f, random.Random(f"{seed}:{name}"))
    raise ValueError(f"unknown instance {name!r}")


def with_overrides(doc: dict, overrides: dict) -> dict:
    out = dict(doc, **{k: v for k, v in overrides.items() if k != "options"})
    out["options"] = dict(doc.get("options", {}), **overrides.get("options", {}))
    return out


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
