"""Command-line interface: JSON input documents, JSON reports, stable output.

Commands: validate, ideal, decompose, hilbert, color, reduce, oracle.
Exit codes: 0 success, 1 verification failed, 2 input error, 3 internal error.
"""

from __future__ import annotations

import json
import json.encoder
import re
import sys
import time
from bisect import bisect_right
from collections import namedtuple

from . import poly
from .color import (
    Coloration,
    find_coloration,
    g_prime_graph,
    is_binomial_coloration,
    is_good_coloration,
)
from .complexes import (
    InputError,
    ProperStar,
    is_generalized_d_tree,
    skeleton_graph,
    stanley_reisner_generators,
    validate_complex,
)
from .extension import (
    ExtensionComplex,
    FacetExtension,
    binomial_extension_generators,
    binomial_extension_ideal,
    build_extension_complex,
    component_ideals,
    reduced_graph,
    scroll_matrix,
)
from .poly import (
    field_by_name,
    groebner_basis,
    hilbert_data,
    ideal_intersection_many,
)
from .reduce import Certificate, certify

COMMANDS = ("validate", "ideal", "decompose", "hilbert", "color", "reduce", "oracle")
ORDERS = ("lex", "deglex", "degrevlex")

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

class SchemaError(InputError):
    """Input document violates the expected structure."""


class UnknownName(InputError):
    """A vertex name in the document does not resolve."""


# ---------------------------------------------------------------------------
# input documents


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {what}")


def _str_list(value, where: str) -> list[str]:
    _expect(isinstance(value, list), where, "expected a list of strings")
    for i, n in enumerate(value):
        _expect(isinstance(n, str) and n, f"{where}[{i}]", "expected a non-empty string")
    return list(value)


def parse_document(data) -> dict:
    """Validate a decoded JSON object and return its canonical form: the
    defaults materialized, and every list built anew, so the result shares
    nothing with data. Reports echo it as `input`."""
    _expect(isinstance(data, dict), "document", "top level must be an object")
    known = {"comment", "vertices", "facets", "extensions", "field", "order", "options"}
    for k in data:
        _expect(k in known, "document", f"unknown field {k!r}")
    doc: dict = {}

    comment = data.get("comment")
    if comment is not None:
        _expect(isinstance(comment, str), "comment", "expected a string")
        doc["comment"] = comment

    if "vertices" in data:
        vertices = _str_list(data["vertices"], "vertices")
        _expect(len(set(vertices)) == len(vertices), "vertices", "names must be unique")
        doc["vertices"] = vertices

    _expect("facets" in data, "document", "missing required field 'facets'")
    raw_facets = data["facets"]
    _expect(isinstance(raw_facets, list) and raw_facets, "facets", "expected a non-empty list")
    doc["facets"] = [_str_list(f, f"facets[{i}]") for i, f in enumerate(raw_facets)]

    raw_extensions = data.get("extensions", [])
    _expect(isinstance(raw_extensions, list), "extensions", "expected a list")
    doc["extensions"] = []
    for i, raw in enumerate(raw_extensions):
        where = f"extensions[{i}]"
        _expect(isinstance(raw, dict), where, "expected an object")
        for k in raw:
            _expect(k in {"facet", "origin", "edges"}, where, f"unknown field {k!r}")
        _expect(
            isinstance(raw.get("facet"), int) and not isinstance(raw.get("facet"), bool),
            f"{where}.facet",
            "expected an integer facet index",
        )
        _expect(isinstance(raw.get("origin"), str), f"{where}.origin", "expected a vertex name")
        raw_edges = raw.get("edges")
        _expect(
            isinstance(raw_edges, list) and raw_edges,
            f"{where}.edges",
            "expected a non-empty list",
        )
        edges = []
        for j, e in enumerate(raw_edges):
            ewhere = f"{where}.edges[{j}]"
            _expect(isinstance(e, dict), ewhere, "expected an object")
            for k in e:
                _expect(k in {"target", "points"}, ewhere, f"unknown field {k!r}")
            _expect(isinstance(e.get("target"), str), f"{ewhere}.target", "expected a vertex name")
            points = _str_list(e.get("points", []), f"{ewhere}.points")
            edges.append({"target": e["target"], "points": points})
        doc["extensions"].append(
            {"facet": raw["facet"], "origin": raw["origin"], "edges": edges}
        )

    field_spec = data.get("field", 32003)
    if isinstance(field_spec, bool) or not isinstance(field_spec, (int, str)):
        raise SchemaError("field: expected a prime integer or 'rational'")
    if isinstance(field_spec, str) and field_spec != "rational":
        raise SchemaError(f"field: unknown field name {field_spec!r}")
    if isinstance(field_spec, int):
        try:
            field_by_name(field_spec)
        except ValueError as exc:
            raise SchemaError(f"field: {exc}") from exc
    doc["field"] = field_spec

    order = data.get("order", "degrevlex")
    _expect(order in ORDERS, "order", f"expected one of {', '.join(ORDERS)}")
    doc["order"] = order

    options = data.get("options", {})
    _expect(isinstance(options, dict), "options", "expected an object")
    for k in options:
        _expect(k in {"rho_max", "seed"}, "options", f"unknown field {k!r}")
    rho_max = options.get("rho_max", 10)
    _expect(
        isinstance(rho_max, int) and not isinstance(rho_max, bool) and rho_max >= 1,
        "options.rho_max",
        "expected a positive integer",
    )
    seed = options.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool), "options.seed", "expected an integer")
    doc["options"] = {"rho_max": rho_max, "seed": seed}
    return doc


def parse_input(path: str) -> dict:
    """Read and validate a JSON input document from a file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to decode") from None
    return parse_document(data)


# ---------------------------------------------------------------------------
# model construction


class Model(namedtuple("Model", "doc ext ring")):
    """A document and what it builds: doc (dict, as parse_document returns
    it), ext (ExtensionComplex) and ring (Ring)."""

    __slots__ = ()


def build_model(doc: dict) -> Model:
    """Resolve names, normalize the complex, and attach extensions."""
    facets, vertices = doc["facets"], doc.get("vertices")
    if vertices is not None:
        declared = set(vertices)
        for i, f in enumerate(facets):
            for n in f:
                if n not in declared:
                    raise UnknownName(f"facets[{i}]: vertex {n!r} is not in the vertex list")
        used = {n for f in facets for n in f}
        for n in vertices:
            if n not in used:
                raise SchemaError(f"vertices: {n!r} appears in no facet")
    base = validate_complex(facets, vertices)
    known = {v.name for v in base.vertices}
    kept_index = {f: i for i, f in enumerate(base.facets)}

    exts: list[FacetExtension] = []
    seen: set[int] = set()
    for i, e in enumerate(doc["extensions"]):
        where = f"extensions[{i}]"
        facet, origin = e["facet"], e["origin"]
        if not 0 <= facet < len(facets):
            raise SchemaError(f"{where}.facet: index {facet} out of range")
        fs = frozenset(base.id_of(n) for n in facets[facet])
        if fs not in kept_index:
            raise SchemaError(
                f"{where}.facet: facet {facet} was dropped as contained in another facet"
            )
        l = kept_index[fs]
        if l in seen:
            raise SchemaError(f"{where}.facet: facet {facet} already has an extension")
        seen.add(l)
        if origin not in known:
            raise UnknownName(f"{where}.origin: unknown vertex {origin!r}")
        targets = []
        for j, d in enumerate(e["edges"]):
            if d["target"] not in known:
                raise UnknownName(f"{where}.edges[{j}].target: unknown vertex {d['target']!r}")
            targets.append(base.id_of(d["target"]))
        star = ProperStar(l, base.id_of(origin), tuple(targets))
        exts.append(FacetExtension(star, tuple(tuple(d["points"]) for d in e["edges"])))

    ext = build_extension_complex(base, exts)
    ring = ext.ring(field_by_name(doc["field"]), doc["order"])
    return Model(doc, ext, ring)


# ---------------------------------------------------------------------------
# report sections


def _coloration_section(ext: ExtensionComplex, col: Coloration | None, method: str) -> dict:
    if col is None:
        return {
            "method": method,
            "found": False,
            "num_classes": None,
            "classes": None,
            "binomial_ok": False,
            "good_on_g_prime": False,
            "diagnostics": ["no coloration satisfies the binomial conditions and is good on G'"],
        }
    names = ext.var_names
    ok, diagnostics = is_binomial_coloration(ext, col)
    good = is_good_coloration(g_prime_graph(ext), col)
    return {
        "method": method,
        "found": True,
        "num_classes": col.num_classes,
        "classes": [sorted(names[v] for v in cls) for cls in col.classes],
        "binomial_ok": ok,
        "good_on_g_prime": good,
        "diagnostics": list(diagnostics),
    }


def _reduction_section(cert: Certificate) -> dict:
    section: dict = {"theorem_applies": cert.failure is None, "failure": cert.failure}
    rep, conditions = cert.reduction, cert.facet_conditions
    if rep is None:
        return section
    if conditions is not None:
        conditions = [
            {"facet": fc.facet, "route": fc.route, "details": list(fc.details)}
            for fc in conditions
        ]
    return section | {
        "facet_conditions": conditions,
        "vectors": [str(g) for g in rep.vectors.forms],
        "is_sop": rep.is_sop,
        "verdicts": [[rho, ok] for rho, ok in rep.verdicts],
        "witnesses": [[rho, list(ms)] for rho, ms in rep.witnesses],
        "reduction_number": rep.reduction_number,
        "bound_exceeded": rep.bound_exceeded,
    }


def _cmd_validate(model: Model) -> tuple[bool, dict]:
    ext, base = model.ext, model.ext.base
    red = reduced_graph(ext)
    verdict = is_generalized_d_tree(skeleton_graph(base), base.dim)
    sr = stanley_reisner_generators(base)
    matrices = []
    for l in range(len(base.facets)):
        entry: dict = {"facet": l, "trivial": ext.is_trivial(l)}
        if not ext.is_trivial(l):
            m = scroll_matrix(ext, l)
            entry["blocks"] = [[ext.var_names[v] for v in blk.run] for blk in m.blocks]
        matrices.append(entry)
    section = {
        "vertices": [v.name for v in base.vertices],
        "facets": [sorted(base.name_of(v) for v in f) for f in base.facets],
        "dim": base.dim,
        "variables": list(ext.var_names),
        "is_generalized_dtree": verdict.verdict,
        "dtree_reason": verdict.reason,
        "stanley_reisner_count": len(sr),
        "scroll_matrices": matrices,
        "reduced_graph": {
            "vertices": sorted(ext.var_names[v] for v in red.vertex_ids),
            "edges": sorted(
                sorted((ext.var_names[u], ext.var_names[v])) for u, v in red.edges
            ),
        },
    }
    return True, {"complex": section}


def _cmd_ideal(model: Model) -> tuple[bool, dict]:
    # the strings binomial_extension_ideal's generators print, without
    # packing a monomial per non-face; the non-faces come in order of size,
    # and a pair, nearly all of B at scale, is named by one concatenation
    minors, non_faces = binomial_extension_generators(model.ext, model.ring)
    names = model.ring.names
    prefix = [n + "*" for n in names]
    k = bisect_right(non_faces, 2, key=len)
    polynomials = [str(p) for p in minors]
    polynomials += [prefix[u] + names[v] for u, v in non_faces[:k]]
    polynomials += map(model.ring.join_names, non_faces[k:])
    return True, {
        "generators": {"label": "B", "count": len(polynomials), "polynomials": polynomials}
    }


def _cmd_decompose(model: Model) -> tuple[bool, dict]:
    ext, ring = model.ext, model.ring
    b = binomial_extension_ideal(ext, ring)
    comps = component_ideals(ext, ring)
    gb_b = groebner_basis(list(b.generators), ring)
    inter = ideal_intersection_many([list(c.generators) for c in comps], ring)
    equal = gb_b == inter
    section = [
        {
            "label": c.label,
            "count": len(c.generators),
            "polynomials": [str(p) for p in c.generators],
        }
        for c in comps
    ]
    return equal, {
        "components": {
            "ideals": section,
            "groebner_size": len(gb_b),
            "intersection_size": len(inter),
            "intersection_equals_ideal": equal,
        }
    }


def _cmd_hilbert(model: Model) -> tuple[bool, dict]:
    ext, ring = model.ext, model.ring
    b = binomial_extension_ideal(ext, ring)
    gb_b = groebner_basis(list(b.generators), ring)
    hd = hilbert_data(gb_b, ring)
    expected = 1 + ext.base.dim
    comps = []
    ok = hd.dimension == expected
    for c, facet in zip(component_ideals(ext, ring), ext.base.facets):
        gb_c = groebner_basis(list(c.generators), ring)
        dim_c = hilbert_data(gb_c, ring).dimension
        want = len(facet)
        ok = ok and dim_c == want
        comps.append({"label": c.label, "dimension": dim_c, "expected": want})
    section = {
        "dimension": hd.dimension,
        "codimension": hd.codimension,
        "degree": hd.degree,
        "numerator": list(hd.numerator),
        "expected_dimension": expected,
        "components": comps,
    }
    return ok, {"hilbert": section}


def _cmd_color(model: Model) -> tuple[bool, dict]:
    col, method = find_coloration(model.ext)
    section = _coloration_section(model.ext, col, method)
    return section["binomial_ok"] and section["good_on_g_prime"], {"coloration": section}


def _cmd_reduce(model: Model) -> tuple[bool, dict]:
    ext = model.ext
    cert = certify(ext, model.ring, model.doc["options"]["rho_max"])
    col, rep = cert.coloration, cert.reduction
    return rep is not None and rep.reduction_number is not None, {
        "coloration": None if col is None else _coloration_section(ext, col, cert.method),
        "reduction": _reduction_section(cert),
    }


def _cmd_oracle(model: Model) -> tuple[bool, dict]:
    # only `oracle` and `--oracle` load the module, and so compile it
    from .oracle import cross_checks

    return cross_checks(model)


# ---------------------------------------------------------------------------
# report assembly


def run(command: str, doc: dict, with_oracle: bool = False) -> dict:
    """Execute a command and assemble its report (deterministic for a given input).

    doc is a document as `parse_document` returns it; the report echoes it,
    unchanged, as `input`. The run is one `poly.run_scope`: each Groebner basis and graded coverage
    is computed once, and `timing` counts that work.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    report: dict = {
        "command": command,
        "input": doc,
        "verdict": None,
        "complex": None,
        "generators": None,
        "components": None,
        "hilbert": None,
        "coloration": None,
        "reduction": None,
        "oracle": None,
        "timing": None,
    }
    handlers = {
        "validate": _cmd_validate,
        "ideal": _cmd_ideal,
        "decompose": _cmd_decompose,
        "hilbert": _cmd_hilbert,
        "color": _cmd_color,
        "reduce": _cmd_reduce,
        "oracle": _cmd_oracle,
    }
    with poly.run_scope():
        model = build_model(doc)
        verdict, sections = handlers[command](model)
        report.update(sections)
        if with_oracle and command != "oracle":
            oracle_ok, oracle_section = _cmd_oracle(model)
            report.update(oracle_section)
            verdict = verdict and oracle_ok
        report["timing"] = dict(sorted(poly.counters.items()))
    report["verdict"] = verdict
    return report


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode


def render_report(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2, sort_keys=True) + "\n".

    With an indent, json.dumps runs its pure-Python encoder; this walks the
    report once, appending pieces from the C string encoder to one chunk
    list, and joins it once.
    """
    out: list[str] = []
    _render(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, newline: str, out: list[str]) -> None:
    # the type tests in json's own order: a bool is an int, a str may be a
    # subclass
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[" + inner)
        try:
            # a list of strings, such as B's generators, is one join
            out.append(("," + inner).join(map(_encode_str, value)))
        except TypeError:
            for i, item in enumerate(value):
                if i:
                    out.append("," + inner)
                _render(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out += (sep, _encode_str(key), ": ")
            sep = "," + inner
            _render(item, inner, out)
        out.append(newline + "}")
    else:
        # floats, and the TypeError json raises for anything else
        out.append(_encode_scalar(value))


# ---------------------------------------------------------------------------
# entry point


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

# every option string, in the order that ambiguity messages list them, and
# the option it names; help and oracle take no value
_OPTIONS = {
    "-h": "help",
    "--help": "help",
    "--input": "input",
    "--out": "out",
    "--field": "field",
    "--order": "order",
    "--rho-max": "rho_max",
    "--seed": "seed",
    "--oracle": "oracle",
}
_FLAGS = ("help", "oracle")
# argparse's test for an argument that is a value though it starts with "-"
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


class UsageError(ValueError):
    """The command line does not parse; main prints the usage and exits 2."""


def _option_name(dest: str) -> str:
    return "-h/--help" if dest == "help" else "--" + dest.replace("_", "-")


def _read_option(arg: str):
    """How argparse reads one argument: None for a value (the command or an
    option's value); otherwise (option, option string, the value given with
    it or None), where the option is None when no option is named. A long
    option may be any unique prefix of its name, with or without `=value`,
    and `-h` may run on into further letters."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in _OPTIONS:
        return _OPTIONS[arg], arg, None
    name, eq, value = arg.partition("=")
    if eq and name in _OPTIONS:
        return _OPTIONS[name], name, value
    if arg.startswith("--"):
        matches = [(o, value if eq else None) for o in _OPTIONS if o.startswith(name)]
    else:
        matches = [("-h", arg[2:])] if arg.startswith("-h") else []
    if len(matches) > 1:
        raise UsageError(
            f"ambiguous option: {arg} could match {', '.join(o for o, _ in matches)}"
        )
    if matches:
        (o, value), = matches
        return _OPTIONS[o], o, value
    if re.match(_NEGATIVE_NUMBER, arg) or " " in arg:
        return None
    return None, arg, None


def parse_argv(argv: list[str]) -> dict | None:
    """The options of a command line, or None when it asks for help: a
    dict of command, input, out, field, order, rho_max and seed, each None
    when not given, and oracle, a bool.

    The forms are those argparse reads: `--opt value` and `--opt=value`, a
    unique prefix of a long option, the command anywhere, the last of a
    repeated option, a negative number as a value, and `--` before
    arguments that are not options. Anything else raises UsageError with
    argparse's message, met in argparse's order: ambiguous prefixes first,
    then each argument from the left, then what is missing or left over.
    """
    # each argument read as an option, None for a value, "--" for the first
    # "--", after which nothing is an option
    kinds: list = []
    for i, arg in enumerate(argv):
        if arg == "--":
            kinds += ["--"] + [None] * (len(argv) - i - 1)
            break
        kinds.append(_read_option(arg))
    opts: dict = dict.fromkeys(("command", "input", "out", "field", "order", "rho_max", "seed"))
    opts["oracle"] = False
    extras: list[str] = []

    def take_command(value: str) -> None:
        if value not in COMMANDS:
            choices = ", ".join(map(repr, COMMANDS))
            raise UsageError(
                f"argument command: invalid choice: {value!r} (choose from {choices})"
            )
        opts["command"] = value

    last_option = max((i for i, k in enumerate(kinds) if isinstance(k, tuple)), default=-1)
    i = 0
    while i <= last_option:
        kind = kinds[i]
        i += 1
        if kind is None:
            # the first value before, between or after the options
            if opts["command"] is None:
                take_command(argv[i - 1])
            else:
                extras.append(argv[i - 1])
            continue
        dest, option, value = kind
        if dest is None:
            extras.append(option)
        elif dest in _FLAGS:
            if value is not None:
                # -hh... is -h given twice; any other value is refused
                rest = value.lstrip("h") if option == "-h" else value
                if rest or not value:
                    raise UsageError(
                        f"argument {_option_name(dest)}: ignored explicit argument {rest!r}"
                    )
            if dest == "help":
                return None
            opts["oracle"] = True
        else:
            if value is None:
                if i == len(argv) or kinds[i] is not None:
                    raise UsageError(f"argument {_option_name(dest)}: expected one argument")
                value = argv[i]
                i += 1
            if dest in ("rho_max", "seed"):
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(
                        f"argument {_option_name(dest)}: invalid int value: {value!r}"
                    ) from None
            elif dest == "order" and value not in ORDERS:
                choices = ", ".join(map(repr, ORDERS))
                raise UsageError(
                    f"argument --order: invalid choice: {value!r} (choose from {choices})"
                )
            opts[dest] = value
    if opts["command"] is None:
        # after the last option the command may stand between "--"s
        i += i < len(argv) and kinds[i] == "--"
        if i < len(argv):
            take_command(argv[i])
            i += 1 + (i + 1 < len(argv) and kinds[i + 1] == "--")
    extras += argv[i:]
    missing = [name for name in ("command", "input") if opts[name] is None]
    if missing:
        names = ", ".join("--input" if n == "input" else n for n in missing)
        raise UsageError(f"the following arguments are required: {names}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return opts


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"{USAGE}binomext: error: {exc}\n")
        return EXIT_INPUT_ERROR
    if args is None:
        sys.stdout.write(HELP)
        return EXIT_OK

    started = time.monotonic()
    try:
        # overrides go into the document, so parse_document validates them
        data = parse_input(args["input"])
        if args["field"] is not None:
            try:
                data["field"] = int(args["field"])
            except ValueError:
                data["field"] = args["field"]
        if args["order"] is not None:
            data["order"] = args["order"]
        if args["rho_max"] is not None:
            data["options"]["rho_max"] = args["rho_max"]
        if args["seed"] is not None:
            data["options"]["seed"] = args["seed"]
        report = run(args["command"], parse_document(data), with_oracle=args["oracle"])
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    text = render_report(report)
    if args["out"]:
        try:
            with open(args["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args['out']}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.write(text)
    elapsed = time.monotonic() - started
    print(
        f"{args['command']}: verdict={'pass' if report['verdict'] else 'fail'} "
        f"wall={elapsed:.3f}s",
        file=sys.stderr,
    )
    return EXIT_OK if report["verdict"] else EXIT_VERDICT_FALSE


if __name__ == "__main__":
    sys.exit(main())
