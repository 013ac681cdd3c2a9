"""Benchmark of ``genpos.gp_auto`` on fixed instance suites.

    python3 perfbench/run.py --workload {diam2,exact,deadline} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; genpos is imported from ``src/``.
One process runs one workload, single-threaded. The seed draws the workload's
random graphs. Every timed operation is one ``gp_auto`` call, timed with
``perf_counter`` outside the call; the whole instance list is called once per
pass, and passes repeat until ``--seconds`` have gone by (at least one).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a traced one (see ``tracing.py``), prints the per-layer
metrics, and writes every span and per-instance record to
``perfbench/traces/<workload>-seed<N>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A call whose output is wrong (it raised, its witness is invalid,
its value differs from the reference, or its status is not exact without a
budget) makes the run exit with code 1. Code 2 means genpos could not be
found under ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import suite  # noqa: E402
import tracing  # noqa: E402

# setup_s is the median of this many full set-ups (import, build, generate).
SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ok_frac": "ratio",
    "value_sum": "count",
    "peak_rss_mb": "MB",
}


def timed_pass(s, solve) -> list[dict]:
    """One untraced call per instance."""
    out = []
    for inst in s.instances:
        budget = None if inst.max_ms is None else s.gp.Budget(max_ms=inst.max_ms)
        t0 = time.perf_counter()
        try:
            res = solve(inst.graph, budget)
        except Exception as exc:  # judged as a wrong output below
            res = exc
        out.append({"instance": inst, "result": res, "wall_ms": (time.perf_counter() - t0) * 1000.0})
    return out


def summary(s, passes: list[list[dict]]) -> tuple[list[str], dict[str, float]]:
    """Per-instance report lines, and the metrics taken from the passes.

    ``wall_s`` sums, over instances, the median wall time of an instance's
    calls. ``value_sum`` is the median over passes of the values a pass
    returned, and ``ok_frac`` of the share of its calls that are neither
    wrong nor late.
    """
    lines = []
    wall_ms = overshoot_ms = 0.0
    for i, inst in enumerate(s.instances):
        calls = [p[i] for p in passes]
        med = statistics.median(c["wall_ms"] for c in calls)
        wall_ms += med
        res = calls[-1]["result"]
        if isinstance(res, Exception):
            desc = f"raised {type(res).__name__}"
        else:
            desc = f"value {res.value} status {res.status} method {res.method} nodes {res.nodes_explored}"
        budget = ""
        if inst.max_ms is not None:
            overshoot_ms += med - inst.max_ms
            budget = f" max_ms {inst.max_ms:.0f} late {sum(c['late'] for c in calls)}/{len(calls)}"
        wrong = sorted({w for c in calls for w in c["wrong"]})
        lines.append(
            f"  {inst.name:16} n={inst.graph.n:<4} ref {inst.value} ({inst.ref_source}) {desc} "
            f"wall_ms {med:.1f}{budget}" + (f" WRONG: {'; '.join(wrong)}" if wrong else "")
        )
    ok = [sum(1 for c in p if not c["wrong"] and not c["late"]) / len(p) for p in passes]
    values = [sum(0 if isinstance(c["result"], Exception) else c["result"].value for c in p) for p in passes]
    metrics = {
        "wall_s": wall_ms / 1000.0,
        "ok_frac": statistics.median(ok),
        "value_sum": statistics.median(values),
    }
    lines.append(f"  failed_frac {1 - metrics['ok_frac']:.4f} (wrong or late calls / calls)")
    if any(inst.max_ms is not None for inst in s.instances):
        lines.append(f"  overshoot_ms {overshoot_ms:.1f} (sum of median wall - max_ms)")
    return lines, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, solve=None) -> int:
    """Run one workload; ``solve`` replaces ``gp_auto`` in the timed calls."""
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "genpos", "__init__.py")):
        print(f"error: no genpos package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        s = None  # free the previous set-up, so that one at a time counts in peak_rss_mb
        gc.collect()
        t0 = time.perf_counter()
        s = suite.setup(args.workload, args.seed, tracer.span if tracer else None)
        setup_times.append(time.perf_counter() - t0)
    suite.references(s)
    solve = solve or s.gp.gp_auto

    passes, traced, untraced_ms = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(timed_pass(s, solve))
        if tracer:
            untraced_ms.append(sum(c["wall_ms"] for c in passes[-1]))
            traced.append(tracing.traced_pass(s, tracer, len(traced)))
    calls = [c for p in passes + traced for c in p]
    for c in calls:
        c["wrong"], c["late"] = suite.check(s.gp, c["instance"], c["result"], c["wall_ms"])
    lines, metrics = summary(s, passes)

    if tracer:
        metrics = tracing.layer_metrics(tracer, traced, untraced_ms)
        units = tracing.LAYER_UNITS
        trace_path = write_trace(args, tracer, traced)
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        units = E2E_UNITS

    failed = sum(1 for c in calls if c["wrong"])
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(s.instances)} calls")
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    if tracer:
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def write_trace(args, tracer: tracing.Tracer, traced: list[list[dict]]) -> str:
    """Write the spans and per-instance layer numbers of a traced run; return the path."""
    per_instance = [
        {
            "pass": k,
            "instance": rec["instance"].name,
            "method": getattr(rec["result"], "method", None),
            "layers": rec.get("layers"),
        }
        for k, recs in enumerate(traced)
        for rec in recs
    ]
    out_dir = os.path.join(HERE, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans,
                   "instances": per_instance}, f)
    return path


if __name__ == "__main__":
    sys.exit(main())
