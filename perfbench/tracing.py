"""Spans around calls into genpos, and the per-layer metrics derived from them.

The traced pass times each module's public functions from outside: nothing
inside genpos is instrumented. For every instance it calls, in turn,
``solver.gp_auto`` (the timed operation itself), ``graph.diameter``,
``graph.distances``, ``solver.gp_exact`` with a zero node budget (which
returns right after the conflict masks are built), ``solver.gp_exact`` with
the call's budget, and ``invariants.rho`` and ``invariants.omega``.

Each span is marked on or off the route that ``gp_auto`` took, read from
``GpResult.method``: the ``diam2`` route runs diameter, rho and omega (omega
only when rho finished, with the budget rho left); the ``exact`` route runs
diameter and gp_exact (distances, precompute, search). Off the route, the
solver runs with the call's budget and the rho and omega searches with
OFF_ROUTE_NODES more as a cap, since rho on a long path or cycle never
finishes.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

OFF_ROUTE_NODES = 2000

# Every per-layer metric, with its unit, in the order it is reported.
LAYER_UNITS = {
    "constructions.build_ms": "ms",
    "graph.diameter_ms": "ms",
    "graph.distances_ms": "ms",
    "solver.precompute_ms": "ms",
    "solver.search_ms": "ms",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "invariants.rho_ms": "ms",
    "invariants.rho_nodes": "count",
    "invariants.omega_ms": "ms",
    "invariants.omega_nodes": "count",
    "solver.auto_ms": "ms",
    "solver.auto_nodes": "count",
    "solver.auto_unattributed_ms": "ms",
    "budget.elapsed_gap_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent and instance id.

    A span without an instance id inherits its parent's. Times are
    milliseconds since the tracer was made.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, instance: str | None = None, **attrs):
        parent = self._open[-1] if self._open else None
        if instance is None and parent is not None:
            instance = parent["instance"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "instance": instance,
            "start": (time.perf_counter() - self.t0) * 1000.0,
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = (time.perf_counter() - self.t0) * 1000.0
            self._open.pop()

    def self_times(self) -> None:
        """Set each span's ``self_ms``: its duration minus its children's.

        The benchmark is single-threaded, so children never overlap and the
        part of a span they cover is the sum of their durations.
        """
        for rec in self.spans:
            rec["self_ms"] = rec["end"] - rec["start"]
        for rec in self.spans:
            if rec["parent"] is not None:
                self.spans[rec["parent"]]["self_ms"] -= rec["end"] - rec["start"]


def _ms(rec: dict) -> float:
    return rec["end"] - rec["start"]


def traced_pass(s, tracer: Tracer, pass_no: int) -> list[dict]:
    """Run every layer call on every instance; return one record per instance.

    The record holds the ``gp_auto`` result (for the correctness checks) and
    the instance's share of each per-layer metric.
    """
    gp = s.gp
    span = tracer.span
    out = []
    for inst in s.instances:
        g = inst.graph
        budget = None if inst.max_ms is None else gp.Budget(max_ms=inst.max_ms)
        with span("bench.instance", inst.name, pass_no=pass_no):
            with span("solver.gp_auto", route="on") as auto:
                t0 = time.perf_counter()
                try:
                    res = gp.gp_auto(g, budget)
                except Exception as exc:  # judged as a wrong output by the caller
                    res = exc
                wall_ms = (time.perf_counter() - t0) * 1000.0
            if isinstance(res, Exception):
                out.append({"instance": inst, "result": res, "wall_ms": wall_ms})
                continue
            route = res.method
            auto.update(method=route, status=res.status, nodes=res.nodes_explored)
            on_exact = "on" if route == "exact" else "off"
            with span("graph.diameter", route="on") as diam:
                gp.diameter(g)
            with span("graph.distances", route=on_exact) as dist:
                gp.distances(g)
            with span("solver.gp_exact", route=on_exact, phase="precompute") as pre:
                gp.gp_exact(g, gp.Budget(max_nodes=0))
            with span("solver.gp_exact", route=on_exact, phase="full") as full:
                r = gp.gp_exact(g, budget)
            full.update(status=r.status, nodes=r.nodes_explored)

            omega_rec = None
            if route == "diam2":
                with span("invariants.rho", route="on") as rho_rec:
                    r = gp.rho(g, budget)
                if r.status == gp.EXACT:
                    left = None if budget is None else gp.Budget(max_ms=max(0.0, inst.max_ms - _ms(rho_rec)))
                    with span("invariants.omega", route="on") as omega_rec:
                        w = gp.omega(g, left)
            else:
                cap = gp.Budget(max_nodes=OFF_ROUTE_NODES, max_ms=inst.max_ms)
                with span("invariants.rho", route="off") as rho_rec:
                    r = gp.rho(g, cap)
                with span("invariants.omega", route="off") as omega_rec:
                    w = gp.omega(g, cap)
            rho_rec.update(status=r.status, nodes=r.nodes_explored)
            if omega_rec is not None:
                omega_rec.update(status=w.status, nodes=w.nodes_explored)

        diam_ms, pre_ms = _ms(diam), _ms(pre)
        layers = {
            "graph.diameter_ms": diam_ms,
            "graph.distances_ms": _ms(dist),
            "solver.precompute_ms": pre_ms - _ms(dist),
            "solver.search_ms": _ms(full) - pre_ms,
            "solver.nodes": full["nodes"],
            "invariants.rho_ms": _ms(rho_rec),
            "invariants.rho_nodes": rho_rec["nodes"],
            "invariants.omega_ms": 0.0 if omega_rec is None else _ms(omega_rec),
            "invariants.omega_nodes": 0 if omega_rec is None else omega_rec["nodes"],
            "solver.auto_ms": wall_ms,
            "solver.auto_nodes": res.nodes_explored,
            "budget.elapsed_gap_ms": wall_ms - res.elapsed_ms,
        }
        if route == "diam2":
            on_route = diam_ms + layers["invariants.rho_ms"] + layers["invariants.omega_ms"]
        else:
            on_route = diam_ms + _ms(full)
        layers["solver.auto_unattributed_ms"] = wall_ms - on_route
        out.append({"instance": inst, "result": res, "wall_ms": wall_ms, "layers": layers})
    return out


def layer_metrics(tracer: Tracer, passes: list[list[dict]], untraced_ms: list[float]) -> dict[str, float]:
    """Per-layer metrics: each summed over a pass's instances, median over passes.

    ``untraced_ms`` holds, per pass, the summed wall time of the untraced
    ``gp_auto`` calls made just before it; ``trace.overhead_pct`` compares
    the traced ``auto_ms`` with it.
    """
    tracer.self_times()
    build_ms = sum(r["self_ms"] for r in tracer.spans if r["name"].startswith("constructions."))
    per_pass = []
    for recs, base_ms in zip(passes, untraced_ms):
        sums = {name: 0.0 for name in LAYER_UNITS}
        for rec in recs:
            for name, value in rec.get("layers", {}).items():
                sums[name] += value
        sums["constructions.build_ms"] = build_ms
        search_s = sums["solver.search_ms"] / 1000.0
        sums["solver.nodes_per_s"] = sums["solver.nodes"] / search_s if search_s > 0 else 0.0
        sums["trace.overhead_pct"] = (sums["solver.auto_ms"] - base_ms) / base_ms * 100.0
        per_pass.append(sums)
    return {name: statistics.median(p[name] for p in per_pass) for name in LAYER_UNITS}
