#!/usr/bin/env python3
"""binomext benchmark: four command mixes run as a closed loop by one client.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke

An op is one (command, document) pair: ``cli.parse_document``, ``cli.run`` and
``cli.render_report``, timed in-process with ``perf_counter``; the end-to-end
times are scaled to one host speed by a probe run between ops (see
``hostspeed.py``). One untimed warm-up pass precedes the timed passes; the seed builds the documents (see
``gen.py``) and the op order of every pass. Each answer is projected onto the
fields that define it and compared with ``references.json`` (or, for the
seeded d-trees, with the answer the generator derives from the construction).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with spans around the engine's public functions
(``spans.py``) and prints the per-layer metrics. The last stdout line is one
JSON object; a fuller record (op digests, tail percentile, spans) is written
to ``.perfbench_out/``. See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_INPUT = "perfbench/docs/greduit.json"
SETUP_REPS = 9
OP_TIMEOUT_S = 30.0

RATIONAL = {"field": "rational"}

# (command, instance, document overrides). Why each mix exists: README.md.
# Each mix is listed in order of cost and shaped the same way: the op in the
# middle of the list is well apart in cost from its neighbours, and the last
# two, the heavy ops, cost about the same and well above the rest. op_s.p50 is
# then the middle op's own median, not a sample on the edge between two ops.
# The middle op is one whose document does not depend on the seed, so that
# op_s.p50 does not move with the seed either.
# op_s.tail, the 11th-largest sample, lies among the heavy ops' samples once
# they have 11 together, so every run times at least MIN_PASSES passes,
# however slow the program.
WORKLOADS = {
    "algebra": [
        ("decompose", "greduit", {}),
        ("decompose", "cycles_pair", {}),
        ("decompose", "strip3", {}),
        ("hilbert", "cycles_full", {}),
        ("hilbert", "strip4", RATIONAL),
    ],
    "certify": [
        ("reduce", "cycles_pair", RATIONAL),
        ("reduce", "greduit", {}),
        ("reduce", "strip3", {}),
        ("reduce", "cycles_full", RATIONAL),
        ("reduce", "cycles_full", {}),
    ],
    "combinatorics": [
        ("color", "ring10", {}),
        ("validate", "ring20", {}),
        ("color", "ring20", {}),
        ("color", "dtree-3-30", {}),
        ("ideal", "ring20", {}),
        ("validate", "dtree-2-120", {}),
        ("color", "dtree-2-120", {}),
        ("ideal", "dtree-3-120", {}),
        ("ideal", "dtree-2-120", {}),
    ],
    "crosscheck": [
        ("oracle", "cycles_pair", RATIONAL),
        ("oracle", "greduit", {}),
        ("oracle", "strip3", {}),
        ("oracle", "ring4-bare", RATIONAL),
        ("oracle", "ring4-bare", {}),
    ],
}
HEAVY = 2
TAIL_BEYOND = 10
MIN_PASSES = -(-(TAIL_BEYOND + 1) // HEAVY)
MIN_COVERAGE = 0.99
# A run that cannot time its minimum passes within this budget fails rather
# than break the 180 s limit on a whole run; that is a slowdown of about 5x.
MEASURE_BUDGET_S = 130.0

# Ops whose answer was known to be wrong when the benchmark was added. They
# run once, untimed, in traced runs and are counted in ``defects.reproduced``;
# timing them would make every run of the workload fail.
DEFECT_PROBES = {
    "certify": [
        ("reduce", "cycles_full", {"field": 4294967311, "options": {"rho_max": 2}}),
        ("reduce", "ring3", {}),
    ],
}

SMOKE = {
    "algebra": [("decompose", "greduit", {})],
    "certify": [("reduce", "cycles_pair", {})],
    "combinatorics": [("color", "dtree-3-30", {})],
    "crosscheck": [("oracle", "strip2", {})],
}

# Metric names and units are declared once, in BENCHMARK.json.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


class OpTimeout(BaseException):
    """Raised from the interval timer; a BaseException so no engine handler
    that catches ValueError or RuntimeError can swallow it."""


class Aborted(Exception):
    """An op timed out, or the minimum passes did not fit the budget: the run
    stops so that it still ends in bounded time."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def op_id(command: str, name: str, overrides: dict) -> str:
    flat = {k: v for k, v in overrides.items() if k != "options"}
    flat.update(overrides.get("options", {}))
    return " ".join([command, name, *(f"{k}={v}" for k, v in sorted(flat.items()))])


def build_ops(specs, seed: int, refs: dict) -> list[dict]:
    ops = []
    for command, name, overrides in specs:
        doc, derived = gen.instance(name, seed)
        doc = gen.with_overrides(doc, overrides)
        oid = op_id(command, name, overrides)
        ops.append(
            {
                "id": oid,
                "command": command,
                "doc": doc,
                "digest": gen.digest(doc),
                "ref": derived[command] if derived is not None else refs[oid],
            }
        )
    return ops


def project(command: str, report: dict) -> dict:
    """The fields that define a command's answer; the ``timing`` counters are
    left out because legitimate optimisations change them."""
    out = {"verdict": report["verdict"]}
    if command == "decompose":
        c = report["components"]
        out.update(intersection_equals_ideal=c["intersection_equals_ideal"], groebner_size=c["groebner_size"])
    elif command == "hilbert":
        h = report["hilbert"]
        out.update(dimension=h["dimension"], degree=h["degree"], numerator=h["numerator"])
    elif command == "reduce":
        r = report["reduction"]
        out.update(reduction_number=r.get("reduction_number"), bound_exceeded=r.get("bound_exceeded"))
    elif command == "color":
        c = report["coloration"]
        out.update(found=c["found"], num_classes=c["num_classes"])
    elif command == "validate":
        c = report["complex"]
        out.update(is_generalized_dtree=c["is_generalized_dtree"], stanley_reisner_count=c["stanley_reisner_count"])
    elif command == "ideal":
        out.update(count=report["generators"]["count"])
    elif command == "oracle":
        out.update(diffs=report["oracle"]["diffs"])
    return out


def run_op(cli, op: dict, tracer=None):
    """Time one op; returns (seconds, report or None, error or None)."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    root = tracer.begin("op") if tracer else None
    t0 = perf_counter()
    try:
        report = cli.run(op["command"], cli.parse_document(op["doc"]))
        cli.render_report(report)
        error = None
    except OpTimeout:
        report, error = None, f"timeout after {OP_TIMEOUT_S:.0f} s"
    except Exception as exc:
        report, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        dt = perf_counter() - t0
        if tracer:
            tracer.end(root)
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, report, error


class Loop:
    """One client: runs the ops pass after pass, each pass in a seeded order."""

    def __init__(self, cli, ops, rng: random.Random) -> None:
        self.cli, self.ops, self.rng = cli, ops, rng
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None, tally: dict | None = None, probe: bool = False):
        """One pass in a new seeded order; returns its wall time and the op
        times as (op id, seconds, wall seconds). With ``probe``, the host's
        speed is probed between ops, and each op's seconds are its wall time
        scaled to the reference speed by the probes on either side of it.
        Each report is dropped once checked, so the process's peak memory is
        the program's and not the harness's; with ``tally``, the reports'
        ``timing`` counters are summed into it."""
        order = self.rng.sample(self.ops, len(self.ops))
        gc.collect()
        times = []
        t0 = perf_counter()
        before = hostspeed.probe_s() if probe else 0.0
        for op in order:
            if tracer:
                tracer.op = op["id"]
            wall, report, error = run_op(self.cli, op, tracer)
            dt = wall
            if probe:
                after = hostspeed.probe_s()
                dt = wall * 2 * hostspeed.PROBE_REF_S / (before + after)
                before = after
            times.append((op["id"], dt, wall))
            self.attempted += 1
            if report is not None:
                got = project(op["command"], report)
                if got != op["ref"]:
                    error = f"answer {got} != reference {op['ref']}"
                if tally is not None:
                    for k, v in (report.get("timing") or {}).items():
                        if f"poly.{k}" in tally:
                            tally[f"poly.{k}"] += v
                report = None  # not kept alive through the next op
            if error is not None:
                self.failures.append(f"{op['id']}: {error}")
                if error.startswith("timeout"):
                    raise Aborted(error)
        return perf_counter() - t0, times

    def passes(self, seconds: float, min_passes: int = 1, tracer=None, tally=None, probe=False):
        """Timed passes until ``seconds`` have elapsed and at least
        ``min_passes`` have run; returns each pass's wall time and op times."""
        walls: list[float] = []
        per_pass: list[list[tuple[str, float, float]]] = []
        start = perf_counter()
        while True:
            wall, times = self.one_pass(tracer, tally, probe)
            walls.append(wall)
            per_pass.append(times)
            elapsed = perf_counter() - start
            if elapsed >= seconds and len(walls) >= min_passes:
                break
            if elapsed + wall > max(seconds, MEASURE_BUDGET_S):
                raise Aborted(f"{len(walls)} of at least {min_passes} passes took {elapsed:.0f} s")
        return walls, per_pass


def cold_setup(command: str, reps: int) -> tuple[list[float], list[float], list[str]]:
    """Time of fresh CLI processes on the working tree's sources, scaled to
    the reference speed by host probes on either side; returns the scaled
    and the wall times. The benchmark and its children are held to one CPU
    meanwhile, so that the probes see the same CPU as the process they
    scale."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "binomext.cli", command, "--input", SETUP_INPUT]
    times, walls, errors = [], [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        before = hostspeed.probe_s()
        for _ in range(reps):
            t0 = perf_counter()
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120
            )
            walls.append(perf_counter() - t0)
            after = hostspeed.probe_s()
            times.append(walls[-1] * 2 * hostspeed.PROBE_REF_S / (before + after))
            before = after
            if proc.returncode != 0:
                errors.append(f"setup {command}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
    finally:
        os.sched_setaffinity(0, cpus)
    return times, walls, errors


def tail(by_op: dict[str, list[float]]) -> tuple[float, float, str]:
    """(value, percentile, op) of the highest percentile of all op samples
    with at least TAIL_BEYOND samples beyond it; with no more samples than
    that, the maximum at percentile 100."""
    s = sorted((t, oid) for oid, ts in by_op.items() for t in ts)
    n = len(s)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return s[k][0], 100.0 * (k + 1) / n, s[k][1]


COUNTERS = ("poly.s_pairs", "poly.normal_forms", "poly.rank_rows")


def probe_defects(cli, workload: str, refs: dict, seed: int) -> list[dict]:
    """Run each known-defect op once; reproduced means it still disagrees with
    its trusted answer (a null reference asks only for completion)."""
    out = []
    for op in build_ops(DEFECT_PROBES.get(workload, []), seed, refs):
        _, report, error = run_op(cli, op)
        if error is None and op["ref"] is not None:
            got = project(op["command"], report)
            if got != op["ref"]:
                error = f"answer {got} != trusted {op['ref']}"
        out.append({"id": op["id"], "digest": op["digest"], "reproduced": error is not None, "detail": error})
    return out


def per_layer(tracer, n_passes: int, untraced: list[float], traced: list[float], tally: dict, probes) -> dict:
    selfs = tracer.self_times()
    m: dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        calls, total = selfs.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls / n_passes
        m[f"{name}.self_s"] = total / n_passes
    nf_calls = selfs.get("poly.normal_form", (0, 0.0))[0]
    cv_calls = selfs.get("color.coloration_valid", (0, 0.0))[0]
    notes = tracer.notes
    m["poly.normal_form.zero_share"] = notes["poly.normal_form.zeros"] / nf_calls if nf_calls else 0.0
    m["poly.rref_rows.rows"] = notes["poly.rref_rows.rows"] / n_passes
    m["poly.rref_rows.cols"] = notes["poly.rref_rows.cols"] / n_passes
    rows = notes["poly.rref_rows.rows"]
    m["poly.rref_rows.rank_share"] = notes["poly.rref_rows.rank"] / rows if rows else 0.0
    m["color.coloration_valid.true_share"] = notes["color.coloration_valid.true"] / cv_calls if cv_calls else 0.0
    m.update({k: v / n_passes for k, v in tally.items()})
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    op_spans = sum(s[4] - s[3] for s in tracer.spans if s[0] == "op")
    m["trace.coverage"] = op_spans / sum(traced)
    m["defects.reproduced"] = sum(p["reproduced"] for p in probes)
    return m


def trace_errors(workload: str, m: dict) -> list[str]:
    """The spans must cover the traced passes, and every function a workload
    is the mechanism workload for must have been seen there: a wrapper that
    is not installed, or a gap between ops, fails the run."""
    errors = []
    if m["trace.coverage"] < MIN_COVERAGE:
        errors.append(f"trace.coverage {m['trace.coverage']:.4f} < {MIN_COVERAGE}")
    for name in spans.MECHANISM.get(workload, ()):
        if m[f"{name}.calls"] == 0:
            errors.append(f"{name}: no calls traced on its mechanism workload {workload}")
    return errors


def untraced_run(loop: Loop, seconds: float, record: dict) -> dict:
    """The end-to-end times, scaled to the reference speed. A pass's time is
    the sum of its op times, without the probes and checks between ops."""
    _, per_pass = loop.passes(seconds, MIN_PASSES, probe=True)
    pass_times = [sum(t for _, t, _ in times) for times in per_pass]
    by_op: dict[str, list[float]] = {}
    for times in per_pass:
        for oid, t, _ in times:
            by_op.setdefault(oid, []).append(t)
    op_times = [t for ts in by_op.values() for t in ts]
    value, pct, tail_op = tail(by_op)
    record.update(
        pass_times=pass_times,
        pass_walls=[sum(w for _, _, w in times) for times in per_pass],
        op_samples=len(op_times),
        tail_percentile=pct,
        tail_op=tail_op,
        op_times=by_op,
    )
    return {
        "batch_s": statistics.median(pass_times),
        "op_s.p50": statistics.median(op_times),
        "op_s.tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(cli, loop: Loop, seconds: float, refs: dict, record: dict) -> tuple[dict, list[str]]:
    """Half the time untraced, half traced with the same ops, then the
    known-defect probes; returns the per-layer metrics and trace errors."""
    untraced, _ = loop.passes(seconds / 2)
    tracer = spans.Tracer()
    tally = dict.fromkeys(COUNTERS, 0)
    restore = tracer.install()
    try:
        traced, _ = loop.passes(seconds / 2, tracer=tracer, tally=tally)
    finally:
        restore()
    probes = probe_defects(cli, record["workload"], refs, record["seed"])
    record.update(untraced_passes=untraced, traced_passes=traced, defect_probes=probes, spans=tracer.dump())
    m = per_layer(tracer, len(traced), untraced, traced, tally, probes)
    return m, trace_errors(record["workload"], m)


def measure(cli, workload: str, specs, seed: int, seconds: float, trace: bool, setup_reps: int) -> dict:
    refs = json.loads((HERE / "references.json").read_text())
    ops = build_ops(specs, seed, refs)
    loop = Loop(cli, ops, random.Random(f"{seed}:{workload}:order"))
    record: dict = {"workload": workload, "seed": seed, "trace": int(trace), "ops": [[o["id"], o["digest"]] for o in ops]}
    errors: list[str] = []
    metrics: dict[str, float] = {}

    if not trace:
        setup, walls, errors = cold_setup(specs[0][0], setup_reps)
        record.update(setup_samples=setup, setup_walls=walls)
        metrics["setup_s"] = statistics.median(setup)
    try:
        loop.one_pass()
        if trace:
            layer, trace_errs = traced_run(cli, loop, seconds, refs, record)
            metrics.update(layer)
            errors += trace_errs
        else:
            metrics.update(untraced_run(loop, seconds, record))
    except Aborted as exc:
        metrics = {}
        errors.append(f"run stopped: {exc}")
    errors += loop.failures
    result = {
        "correct": not errors,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    record.update(result=result, errors=errors)
    return record


def summarize(record: dict) -> None:
    r = record["result"]
    print(f"[{record['workload']} seed={record['seed']} trace={record['trace']}] "
          f"attempted={r['attempted']} failed={r['failed']} correct={r['correct']}", file=sys.stderr)
    for k, v in r["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
    if "pass_walls" in record:
        print(f"  wall times: setup_s = {statistics.median(record['setup_walls']):.6g} s, "
              f"batch_s = {statistics.median(record['pass_walls']):.6g} s", file=sys.stderr)
    if "tail_percentile" in record:
        print(f"  op_s.tail is p{record['tail_percentile']:.2f} ({record['tail_op']}) of {record['op_samples']} op samples "
              f"over {len(record['pass_times'])} passes", file=sys.stderr)
    for p in record.get("defect_probes", []):
        print(f"  known defect {'reproduced' if p['reproduced'] else 'not reproduced'}: {p['id']}: {p['detail']}",
              file=sys.stderr)
    for e in record["errors"][:10]:
        print(f"  error: {e}", file=sys.stderr)


def write_record(record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record))


def smoke(cli) -> int:
    """One tiny op per workload, both modes: each mode must print exactly the
    metrics BENCHMARK.json declares for it. One op cannot call every function
    its workload is there to measure, and runs no defect probes, so a smoke
    run goes by a name of its own."""
    ok = True
    for workload in WORKLOADS:
        for trace, declared in ((False, BENCH["end_to_end"]), (True, BENCH["per_layer"])):
            record = measure(cli, f"smoke-{workload}", SMOKE[workload], 0, 0.2, trace, setup_reps=1)
            summarize(record)
            got = record["result"]["metrics"]
            missing = {m["name"] for m in declared} ^ set(got)
            if missing:
                print(f"smoke: {workload}: metrics missing or undeclared: {sorted(missing)}", file=sys.stderr)
                ok = False
            ok &= record["result"]["correct"]
    print("smoke: ok" if ok else "smoke: FAILED", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one tiny op per workload; check metric names")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")

    if not (ROOT / "src" / "binomext" / "cli.py").is_file():
        print(f"error: no binomext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from binomext import cli

    signal.signal(signal.SIGALRM, _on_alarm)
    if args.smoke:
        return smoke(cli)
    record = measure(cli, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), SETUP_REPS)
    write_record(record)
    summarize(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
