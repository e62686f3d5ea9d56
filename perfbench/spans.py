"""Spans around binomext's public functions, installed from outside the package.

``cli`` and ``reduce`` bind engine functions with ``from .poly import ...`` and
``poly`` calls ``buchberger`` through its own globals, so ``Tracer.install``
rebinds every ``binomext.*`` module attribute that *is* a listed function;
patching only the defining module would miss the calls made from ``cli``.

Spans stay in memory as ``[name, op, parent, start, end]`` lists and are
written once, when the run ends. A span's self time is its duration minus the
durations of its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import sys
from time import perf_counter

TRACED = {
    "cli": ("parse_document", "build_model", "run", "render_report"),
    "complexes": ("validate_complex", "is_generalized_d_tree", "stanley_reisner_generators"),
    "extension": (
        "build_extension_complex",
        "binomial_extension_ideal",
        "component_ideals",
        "reduced_graph",
    ),
    "color": (
        "dtree_coloration",
        "search_binomial_coloration",
        "coloration_valid",
        "is_good_coloration",
        "is_binomial_coloration",
        "reduction_vectors",
    ),
    "poly": (
        "buchberger",
        "ideal_intersection_many",
        "normal_form",
        "hilbert_data",
        "krull_dimension_lt",
        "rref_rows",
    ),
    "reduce": (
        "verify_main_theorem",
        "verify_sop",
        "reduction_number",
        "degree_containment",
        "monomial_covered",
        "modB_normal_pair",
    ),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

_CLI = tuple(f"cli.{f}" for f in TRACED["cli"])
# Per workload, the traced functions it is the mechanism workload for
# (README.md, "Which end-to-end metric each layer metric should move"); every
# workload runs all of ``cli``. A traced run fails when one of its functions
# records no call, so a wrapper that did not take is caught.
MECHANISM = {
    "algebra": _CLI + (
        "poly.buchberger",
        "poly.ideal_intersection_many",
        "poly.normal_form",
        "poly.hilbert_data",
        "extension.component_ideals",
    ),
    "certify": _CLI + (
        "poly.krull_dimension_lt",
        "reduce.verify_main_theorem",
        "reduce.verify_sop",
        "reduce.reduction_number",
        "reduce.degree_containment",
        "color.reduction_vectors",
        "extension.binomial_extension_ideal",
    ),
    "combinatorics": _CLI + (
        "complexes.validate_complex",
        "complexes.is_generalized_d_tree",
        "complexes.stanley_reisner_generators",
        "extension.build_extension_complex",
        "extension.reduced_graph",
        "color.dtree_coloration",
        "color.search_binomial_coloration",
        "color.coloration_valid",
        "color.is_good_coloration",
        "color.is_binomial_coloration",
    ),
    "crosscheck": _CLI + (
        "poly.rref_rows",
        "reduce.monomial_covered",
        "reduce.modB_normal_pair",
    ),
}


def _note_normal_form(notes, args, result):
    notes["poly.normal_form.zeros"] += result.is_zero()


def _note_rref_rows(notes, args, result):
    notes["poly.rref_rows.rows"] += sum(1 for r in args[0] if r)
    notes["poly.rref_rows.cols"] += args[1]
    notes["poly.rref_rows.rank"] += result[0]


def _note_coloration_valid(notes, args, result):
    notes["color.coloration_valid.true"] += bool(result)


# outcome counts taken from a call's arguments and result, for the ratios
NOTE_KEYS = (
    "poly.normal_form.zeros",
    "poly.rref_rows.rows",
    "poly.rref_rows.cols",
    "poly.rref_rows.rank",
    "color.coloration_valid.true",
)
NOTES = {
    "poly.normal_form": _note_normal_form,
    "poly.rref_rows": _note_rref_rows,
    "color.coloration_valid": _note_coloration_valid,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes = dict.fromkeys(NOTE_KEYS, 0)
        self._open: list[int] = []
        self.op = ""

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.op, parent, perf_counter(), 0.0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][4] = perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            if note is not None:
                note(self.notes, args, result)
            return result

        return traced

    def install(self):
        """Rebind every listed function in every loaded binomext module;
        returns a callable that restores the originals."""
        pkg = sys.modules["binomext"]
        wrappers = {}
        for mod, names in TRACED.items():
            for fname in names:
                fn = getattr(sys.modules[f"binomext.{mod}"], fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        patched = []
        modules = [pkg] + [m for k, m in sys.modules.items() if k.startswith("binomext.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                # the originals stay alive, so an id match is identity
                hit = wrappers.get(id(value))
                if hit is not None:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))

        def restore():
            for module, attr, value in patched:
                setattr(module, attr, value)

        return restore

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time)."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, op, parent, start, end), c in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - c)
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        ops = sorted({s[1] for s in self.spans})
        ni = {n: i for i, n in enumerate(names)}
        oi = {o: i for i, o in enumerate(ops)}
        return {
            "fields": ["name", "op", "parent", "start", "end"],
            "names": names,
            "ops": ops,
            "spans": [[ni[n], oi[o], p, s, e] for n, o, p, s, e in self.spans],
        }
