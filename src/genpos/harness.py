"""Verification sweeps: prediction vs. exact search over parameter grids.

Each registered theorem id maps to a runner that builds the graph(s) for one
grid point, evaluates the closed-form prediction, runs the solver, and
returns both for comparison, with the searches (ω, η, ρ, factor gp) the
prediction was computed from. Grids live in ``data/grids.json`` (a quick grid
and a stretch grid per theorem) so scripted runs and long runs share one
manifest.

Verdicts: ``match`` (exact solve equals an exact prediction), ``within-bound``
(value inside a predicted interval — sound even when the search timed out,
because an incumbent is itself a valid lower bound), ``mismatch``,
``timeout`` (budget exhausted, nothing disproved), ``not-applicable``
(formula silent at this point). When any input search is unfinished, the
prediction is only a lower bound: an exact value below it is a
``mismatch``, anything else a ``timeout``.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable

from . import constructions as cons
from .budget import EXACT, Budget, GpResult
from .errors import InputError
from .formulas import (
    Prediction,
    ekr_bound,
    gp_cartesian_lower,
    gp_corona,
    gp_join,
    gp_kneser2,
    gp_kneser3,
    gp_line_complete,
    hamming_lower,
    kneser_condition,
)
from .graph import Graph, diameter, is_connected
from .invariants import alpha, eta, omega, rho
from .solver import gp_exact

MATCH = "match"
WITHIN_BOUND = "within-bound"
MISMATCH = "mismatch"
TIMEOUT = "timeout"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True, slots=True)
class TheoremReport:
    theorem_id: str
    params: dict
    predicted: Prediction
    computed: GpResult | None
    verdict: str
    elapsed_ms: float
    note: str = ""


_FAMILIES: dict[str, Callable[..., Graph]] = {
    "complete": cons.complete,
    "edgeless": cons.edgeless,
    "path": cons.path,
    "cycle": cons.cycle,
    "kneser": cons.kneser,
    "cartesian_product": cons.cartesian_product,
    "join": cons.join,
    "corona": cons.corona,
    "disjoint_union": cons.disjoint_union,
    "line_graph": cons.line_graph,
}


def build_graph_spec(spec: Any) -> Graph:
    """Build a graph from a recursive {"family": ..., "args": [...]} spec."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise InputError(f"graph spec must be an object with a 'family' key, got {spec!r}")
    name = str(spec["family"]).replace("-", "_")
    fn = _FAMILIES.get(name)
    if fn is None:
        raise InputError(f"unknown graph family {spec['family']!r}; known: {sorted(_FAMILIES)}")
    args = spec.get("args", [])
    if not isinstance(args, list):
        raise InputError(f"'args' must be a list in {spec!r}")
    try:
        built = [build_graph_spec(a) if isinstance(a, dict) else a for a in args]
    except RecursionError:
        raise InputError("graph spec is nested too deeply") from None
    try:
        return fn(*built)
    except (TypeError, AttributeError) as e:  # wrong arity, or a number where a graph belongs
        raise InputError(f"bad arguments for {spec['family']!r}: {e}") from None


def _hamming(ns: list[int]) -> Graph:
    g = cons.complete(ns[0])
    for n in ns[1:]:
        g = cons.cartesian_product(g, cons.complete(n))
    return g


# --- runners: params -> (prediction, computed, inputs) ----------------------
# ``inputs`` are the searches the prediction was computed from.

_Run = tuple[Prediction, GpResult | None, tuple]


def _closed_form(predict: Callable[[dict], Prediction], build: Callable[[dict], Graph]) -> Callable[..., _Run]:
    """Runner for a closed form: solve the built graph unless the formula is
    silent at this point."""

    def run(params: dict, budget: Budget | None) -> _Run:
        pred = predict(params)
        if not pred.applicable:
            return pred, None, ()
        return pred, gp_exact(build(params), budget), ()

    return run


def _run_cartesian_lower(params: dict, budget: Budget | None) -> _Run:
    g = build_graph_spec(params["g"])
    h = build_graph_spec(params["h"])
    if not (is_connected(g) and is_connected(h)):
        return Prediction(False, reason="factors must be connected"), None, ()
    rg = gp_exact(g, budget)
    rh = gp_exact(h, budget)
    pred = gp_cartesian_lower(rg.value, rh.value, g.n, h.n)
    return pred, gp_exact(cons.cartesian_product(g, h), budget), (rg, rh)


def _run_diam2(params: dict, budget: Budget | None) -> _Run:
    g = build_graph_spec(params["g"])
    if diameter(g) != 2:
        return Prediction(False, reason="diameter != 2"), None, ()
    w = omega(g, budget)
    e = eta(g, budget)
    pred = Prediction(True, value=max(w.value, e.value))
    return pred, gp_exact(g, budget), (w, e)


def _run_join(params: dict, budget: Budget | None) -> _Run:
    g = build_graph_spec(params["g"])
    h = build_graph_spec(params["h"])
    wg, wh = omega(g, budget), omega(h, budget)
    rg, rh = rho(g, budget), rho(h, budget)
    pred = gp_join(wg.value, wh.value, rg.value, rh.value)
    return pred, gp_exact(cons.join(g, h), budget), (wg, wh, rg, rh)


def _run_corona(params: dict, budget: Budget | None) -> _Run:
    g = build_graph_spec(params["g"])
    h = build_graph_spec(params["h"])
    rh = rho(h, budget)
    pred = gp_corona(g.n, rh.value)
    if not pred.applicable:
        return pred, None, ()
    return pred, gp_exact(cons.corona(g, h), budget), (rh,)


def _run_ekr(params: dict, budget: Budget | None) -> _Run:
    n, k = params["n"], params["k"]
    pred = ekr_bound(n, k)
    if not pred.applicable:
        return pred, None, ()
    return pred, alpha(cons.kneser(n, k), budget), ()


_REGISTRY: dict[str, Callable[[dict, Budget | None], _Run]] = {
    "thm2.2": _closed_form(lambda p: gp_kneser2(p["n"]), lambda p: cons.kneser(p["n"], 2)),
    "thm2.3": _closed_form(lambda p: kneser_condition(p["n"], p["k"]), lambda p: cons.kneser(p["n"], p["k"])),
    "thm2.4": _closed_form(lambda p: gp_kneser3(p["n"]), lambda p: cons.kneser(p["n"], 3)),
    "thm3.1": _run_cartesian_lower,
    "thm3.2": _closed_form(lambda p: hamming_lower(p["ns"]), lambda p: _hamming(p["ns"])),
    "thm4.1": _run_diam2,
    "prop4.2": _run_join,
    "thm4.3": _run_corona,
    "thm4.4": _closed_form(lambda p: gp_line_complete(p["n"]), lambda p: cons.line_graph(cons.complete(p["n"]))),
    "ekr": _run_ekr,
}


def theorem_ids() -> list[str]:
    return sorted(_REGISTRY)


def load_grids() -> dict:
    text = resources.files("genpos").joinpath("data/grids.json").read_text("utf-8")
    return json.loads(text)


def default_grid(theorem_id: str, stretch: bool = False) -> list[dict]:
    grids = load_grids()
    if theorem_id not in grids:
        raise InputError(f"no grid manifest entry for {theorem_id!r}")
    return grids[theorem_id]["stretch" if stretch else "quick"]


def _verdict(pred: Prediction, computed: GpResult | None, unfinished_inputs: bool) -> str:
    if not pred.applicable:
        return NOT_APPLICABLE
    if computed is None:
        return TIMEOUT
    if unfinished_inputs:
        # inputs from unfinished searches only bound the prediction from
        # below: falling below it still refutes, meeting it confirms nothing
        return MISMATCH if computed.status == EXACT and computed.value < pred.interval[0] else TIMEOUT
    if pred.value is not None:
        if computed.status == EXACT:
            return MATCH if computed.value == pred.value else MISMATCH
        # unfinished search: only an over-large incumbent can refute
        return MISMATCH if computed.value > pred.value else TIMEOUT
    lo, hi = pred.interval
    if computed.value >= (lo or 0) and (hi is None or computed.value <= hi):
        return WITHIN_BOUND
    return MISMATCH if computed.status == EXACT else TIMEOUT


def run_verify(
    theorem_id: str, param_grid: list[dict] | None = None, budget: Budget | None = None
) -> list[TheoremReport]:
    """Sweep one theorem over a grid; reports come back in grid order."""
    if theorem_id not in _REGISTRY:
        raise InputError(f"unknown theorem id {theorem_id!r}; known: {theorem_ids()}")
    if param_grid is None:
        param_grid = default_grid(theorem_id)
    if not isinstance(param_grid, list) or not all(isinstance(p, dict) for p in param_grid):
        raise InputError(f"param grid must be a list of parameter objects, got {param_grid!r}")
    runner = _REGISTRY[theorem_id]
    reports = []
    for params in param_grid:
        t0 = time.monotonic()
        try:
            pred, computed, inputs = runner(params, budget)
        except (KeyError, TypeError) as e:
            raise InputError(f"malformed grid point {params!r} for {theorem_id}: {e}") from None
        elapsed = (time.monotonic() - t0) * 1000.0
        unfinished = any(r.status != EXACT for r in inputs)
        verdict = _verdict(pred, computed, unfinished)
        note = "prediction is a lower bound: an input search hit the budget" if unfinished else ""
        reports.append(TheoremReport(theorem_id, params, pred, computed, verdict, elapsed, note))
    return reports


def prediction_json(pred: Prediction) -> int | list | None:
    """A prediction as JSON: None when not applicable, else the value, else
    the interval as a list."""
    if not pred.applicable:
        return None
    return pred.value if pred.value is not None else list(pred.interval)


def _fmt_predicted(pred: Prediction) -> str:
    if not pred.applicable:
        return "n/a"
    if pred.value is not None:
        return str(pred.value)
    lo, hi = pred.interval
    return f"[{lo},{'inf' if hi is None else hi}]"


def emit_table(reports: list[TheoremReport], format: str = "csv") -> str:
    """Render reports in grid order as CSV or JSON lines."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theorem", "params", "predicted", "computed", "status", "verdict", "ms"])
        for r in reports:
            writer.writerow(
                [
                    r.theorem_id,
                    json.dumps(r.params, sort_keys=True, separators=(",", ":")),
                    _fmt_predicted(r.predicted),
                    "" if r.computed is None else r.computed.value,
                    "" if r.computed is None else r.computed.status,
                    r.verdict,
                    f"{r.elapsed_ms:.1f}",
                ]
            )
        return buf.getvalue()
    if format == "json-lines":
        lines = []
        for r in reports:
            record = {
                "theorem": r.theorem_id,
                "params": r.params,
                "applicable": r.predicted.applicable,
                "predicted": prediction_json(r.predicted),
                "computed": None if r.computed is None else r.computed.value,
                "status": None if r.computed is None else r.computed.status,
                "verdict": r.verdict,
                "ms": round(r.elapsed_ms, 1),
            }
            if r.note:
                record["note"] = r.note
            lines.append(json.dumps(record, sort_keys=True))
        return "".join(line + "\n" for line in lines)
    raise InputError(f"unknown table format {format!r}")
