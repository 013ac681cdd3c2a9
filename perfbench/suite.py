"""The benchmark's instances, their reference values, and the output checks.

An instance is built from a constructor spec: a nested tuple
``(function, *args)`` naming a function of :mod:`genpos.constructions`, where
an argument that is itself a tuple is built first. Seeded random graphs are
drawn here from the workload seed and handed to the solver as finished
``Graph`` objects, so the program never sees the seed.

Reference values come from the closed forms in :mod:`genpos.formulas` where
one applies, from pinned values for the trivial families, and for seeded
graphs from checks made outside the timed calls (see :func:`references`).
"""

from __future__ import annotations

import importlib
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass

WORKLOADS = ("diam2", "exact", "deadline")

# A deadline call fails when it returns later than max_ms plus this slack.
LATE_SLACK_MS = 50.0

SEEDED_GRAPHS = 6


def fold(fn: str, k: int, part: tuple) -> tuple:
    """Spec for k copies of ``part`` combined left to right with ``fn``."""
    spec = part
    for _ in range(k - 1):
        spec = (fn, spec, part)
    return spec


@dataclass
class Instance:
    name: str
    spec: tuple | None  # None for a seeded random graph
    ref: int | tuple | None  # pinned value, (formula, *args), or None
    ref_source: str
    max_ms: float | None = None
    graph: object = None
    value: int | None = None  # resolved reference value
    dm: object = None  # distance matrix, for the witness checks
    maximal: bool = False  # the witness must admit no further vertex


def instances(workload: str) -> list[Instance]:
    """The fixed (non-seeded) instances of a workload, in call order."""
    if workload == "diam2":
        return [
            Instance("K(8,3)", ("kneser", 8, 3), ("gp_kneser3", 8), "thm2.4"),
            Instance("K(10,2)", ("kneser", 10, 2), ("gp_kneser2", 10), "thm2.2"),
            Instance("L(K8)", ("line_graph", ("complete", 8)), ("gp_line_complete", 8), "thm4.4"),
            Instance(
                "K5xK5",
                ("cartesian_product", ("complete", 5), ("complete", 5)),
                ("hamming_lower", [5, 5]),
                "hamming",
            ),
        ]
    if workload == "exact":
        return [
            Instance("K(7,3)", ("kneser", 7, 3), ("gp_kneser3", 7), "thm2.4"),
            Instance("C6xC6", ("cartesian_product", ("cycle", 6), ("cycle", 6)), 6, "pinned"),
            Instance("Q6", fold("cartesian_product", 6, ("complete", 2)), 8, "pinned"),
            Instance("P10xP10", ("cartesian_product", ("path", 10), ("path", 10)), 4, "pinned"),
            # rho(P4) = 3: the edge {0,1} and the vertex 3 are independent cliques
            Instance("corona(C10,P4)", ("corona", ("cycle", 10), ("path", 4)), ("gp_corona", 10, 3), "thm4.3"),
            Instance("P150", ("path", 150), 2, "pinned"),
            Instance("C200", ("cycle", 200), 3, "pinned"),
            Instance("K120", ("complete", 120), 120, "pinned"),
            Instance("60K2", fold("disjoint_union", 60, ("complete", 2)), 120, "pinned"),
        ]
    if workload == "deadline":
        return [
            Instance("K(9,4)", ("kneser", 9, 4), None, "none", max_ms=2000.0),
            Instance("K(11,3)", ("kneser", 11, 3), ("gp_kneser3", 11), "thm2.4", max_ms=1000.0),
            Instance(
                "C8xC8xC3",
                ("cartesian_product", ("cartesian_product", ("cycle", 8), ("cycle", 8)), ("cycle", 3)),
                None,
                "none",
                max_ms=500.0,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def seeded_instances(gp, workload: str, seed: int, span=None) -> list[Instance]:
    """G(n, p) graphs drawn from the seed, redrawn until the diameter fits.

    ``diam2`` keeps graphs of diameter exactly 2, so ``gp_auto`` takes the
    rho route; ``exact`` keeps graphs of any other diameter.
    """
    if workload == "deadline":
        return []
    span = span or _no_span
    n, p, want2 = (60, 0.5, True) if workload == "diam2" else (50, 0.2, False)
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i in range(SEEDED_GRAPHS):
        name = f"G({n},{p})#{i}"
        with span("bench.generate", name):
            while True:
                edges = random_edges(rng, n, p)
                with span("graph.Graph.from_edges", name):
                    g = gp.Graph.from_edges(n, edges)
                with span("graph.diameter", name):
                    diam = gp.diameter(g)
                if (diam == 2) == want2:
                    break
        source = "gp_exact" if want2 else "witness"
        out.append(Instance(name, None, None, source, graph=g, maximal=not want2))
    return out


def _no_span(name, instance=None, **attrs):
    return nullcontext()


def build(cons, spec: tuple, instance: str, span=None):
    """Build a spec with :mod:`genpos.constructions`, one span per call."""
    span = span or _no_span
    fn, *args = spec
    with span(f"constructions.{fn}", instance):
        built = [build(cons, a, instance, span) if isinstance(a, tuple) else a for a in args]
        return getattr(cons, fn)(*built)


def import_genpos():
    """Import genpos afresh, so that repeated set-ups each pay the import."""
    for name in [m for m in sys.modules if m == "genpos" or m.startswith("genpos.")]:
        del sys.modules[name]
    return importlib.import_module("genpos")


@dataclass
class Setup:
    gp: object  # the genpos module
    instances: list[Instance]


def setup(workload: str, seed: int, span=None) -> Setup:
    """Import genpos and build every input of the workload."""
    gp = import_genpos()
    insts = instances(workload)
    for inst in insts:
        inst.graph = build(gp.constructions, inst.spec, inst.name, span)
    insts += seeded_instances(gp, workload, seed, span)
    return Setup(gp, insts)


def references(s: Setup) -> None:
    """Resolve every reference value and distance matrix, outside any timing.

    A seeded diameter-2 graph takes its reference from ``gp_exact``, the mask
    branch and bound, so the timed ``gp_auto`` call on the rho route is
    checked against an independent search. A seeded graph of another
    diameter has no reference value; its witness must be maximal instead.
    """
    gp = s.gp
    for inst in s.instances:
        inst.dm = gp.distances(inst.graph)
        if isinstance(inst.ref, tuple):
            fn, *args = inst.ref
            inst.value = getattr(gp, fn)(*args).value
        elif isinstance(inst.ref, int):
            inst.value = inst.ref
        elif inst.ref_source == "gp_exact":
            r = gp.gp_exact(inst.graph)
            if r.status != gp.EXACT:
                raise RuntimeError(f"reference search for {inst.name} did not finish")
            inst.value = r.value


def check(gp, inst: Instance, result, wall_ms: float) -> tuple[list[str], bool]:
    """Judge one call. Returns (reasons the output is wrong, returned late).

    ``result`` is the call's GpResult, or the exception it raised. A wrong
    output is a raise, an invalid witness, a value that differs from the
    reference, a non-exact status on a call without a budget, or, where the
    witness must be maximal, a witness that admits one more vertex. A late
    return is one more than LATE_SLACK_MS after the call's max_ms.
    """
    late = inst.max_ms is not None and wall_ms > inst.max_ms + LATE_SLACK_MS
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"], late
    wrong = []
    w = tuple(result.witness)
    if len(w) != result.value:
        wrong.append(f"witness has {len(w)} vertices but value is {result.value}")
    try:
        if not gp.is_general_position(inst.dm, w):
            wrong.append("witness is not in general position")
    except gp.InputError as exc:
        wrong.append(f"witness is not a vertex set of the graph: {exc}")
    exact = result.status == gp.EXACT
    if inst.max_ms is None and not exact:
        wrong.append(f"status {result.status!r} without a budget")
    if inst.value is not None:
        if exact and result.value != inst.value:
            wrong.append(f"value {result.value} != reference {inst.value}")
        elif result.value > inst.value:
            wrong.append(f"lower bound {result.value} > reference {inst.value}")
    if inst.maximal and exact and not wrong:
        inside = set(w)
        for v in range(inst.graph.n):
            if v not in inside and gp.is_general_position(inst.dm, w + (v,)):
                wrong.append(f"witness is not maximal: vertex {v} can be added")
                break
    return wrong, late
