"""Verification sweeps: prediction vs. exact search over parameter grids.

Each registered theorem id maps to a runner that builds the graph(s) for one
grid point, evaluates the closed-form prediction, runs the solver, and
returns both for comparison, with the searches (ω, η, ρ, factor gp) the
prediction was computed from. :data:`FORMULAS` is the one place that binds
a theorem id to its closed form; the runners and ``genpos predict`` both
read it there. Where a formula's parameters are the grid point's own (the
Kneser, Hamming, L(K_n) and EKR points), the runner reads them off the
formula's signature and ignores the point's other keys. Grids live in
``data/grids.json`` (a quick grid and a stretch grid per theorem) so
scripted runs and long runs share one manifest.

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
import inspect
import io
import json
import time
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from typing import Any, Callable

from . import constructions as cons
from . import formulas
from .budget import EXACT, Budget, GpResult
from .errors import InputError
from .formulas import Prediction
from .graph import Graph, diameter, is_connected
from .solver import alpha, eta, gp_exact, omega, rho

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
    except (InputError, TypeError, AttributeError) as e:  # refused, wrong arity, or a number where a graph belongs
        raise InputError(f"bad arguments for {spec['family']!r}: {e}") from None


# --- runners: params -> (prediction, computed, inputs) ----------------------
# ``inputs`` are the searches the prediction was computed from.

_Run = tuple[Prediction, GpResult | None, tuple]

# theorem id -> its closed form: ``genpos predict`` and the runners below
# both read it here (thm4.1 has none: its prediction is a search)
FORMULAS: dict[str, Callable[..., Prediction]] = {
    "thm2.2": formulas.gp_kneser2,
    "thm2.3": formulas.kneser_condition,
    "thm2.4": formulas.gp_kneser3,
    "thm3.1": formulas.gp_cartesian_lower,
    "thm3.2": formulas.hamming_lower,
    "prop4.2": formulas.gp_join,
    "thm4.3": formulas.gp_corona,
    "thm4.4": formulas.gp_line_complete,
    "ekr": formulas.ekr_bound,
}


def _closed_form(theorem: str, build: Callable[..., Graph], search=gp_exact) -> Callable[..., _Run]:
    """Runner for a closed form of the point's parameters: ``search`` the
    graph ``build`` makes from the same parameters unless the formula is
    silent there. Keys the formula does not name are ignored."""
    formula = FORMULAS[theorem]
    names = list(inspect.signature(formula).parameters)

    def run(params: dict, budget: Budget | None) -> _Run:
        args = [params[name] for name in names]
        pred = formula(*args)
        if not pred.applicable:
            return pred, None, ()
        return pred, search(build(*args), budget), ()

    return run


def _run_cartesian_lower(params: dict, budget: Budget | None) -> _Run:
    g = build_graph_spec(params["g"])
    h = build_graph_spec(params["h"])
    if not (is_connected(g) and is_connected(h)):
        return Prediction(False, reason="factors must be connected"), None, ()
    rg = gp_exact(g, budget)
    rh = gp_exact(h, budget)
    pred = FORMULAS["thm3.1"](rg.value, rh.value, g.n, h.n)
    return pred, gp_exact(cons.cartesian_product(g, h), budget), (rg, rh)


def _run_diam2(params: dict, budget: Budget | None) -> _Run:
    g = build_graph_spec(params["g"])
    if diameter(g) != 2:
        return Prediction(False, reason="diameter != 2"), None, ()
    # max{ω, η} is η: every clique is a cluster set, so ω is not searched
    e = eta(g, budget)
    pred = Prediction(True, value=e.value)
    return pred, gp_exact(g, budget), (e,)


def _run_join(params: dict, budget: Budget | None) -> _Run:
    g = build_graph_spec(params["g"])
    h = build_graph_spec(params["h"])
    wg, wh = omega(g, budget), omega(h, budget)
    rg, rh = rho(g, budget), rho(h, budget)
    pred = FORMULAS["prop4.2"](wg.value, wh.value, rg.value, rh.value)
    return pred, gp_exact(cons.join(g, h), budget), (wg, wh, rg, rh)


def _run_corona(params: dict, budget: Budget | None) -> _Run:
    g = build_graph_spec(params["g"])
    h = build_graph_spec(params["h"])
    rh = rho(h, budget)
    pred = FORMULAS["thm4.3"](g.n, rh.value)
    if not pred.applicable:
        return pred, None, ()
    return pred, gp_exact(cons.corona(g, h), budget), (rh,)


_REGISTRY: dict[str, Callable[[dict, Budget | None], _Run]] = {
    "thm2.2": _closed_form("thm2.2", lambda n: cons.kneser(n, 2)),
    "thm2.3": _closed_form("thm2.3", cons.kneser),
    "thm2.4": _closed_form("thm2.4", lambda n: cons.kneser(n, 3)),
    "thm3.1": _run_cartesian_lower,
    "thm3.2": _closed_form("thm3.2", lambda ns: reduce(cons.cartesian_product, map(cons.complete, ns))),
    "thm4.1": _run_diam2,
    "prop4.2": _run_join,
    "thm4.3": _run_corona,
    "thm4.4": _closed_form("thm4.4", lambda n: cons.line_graph(cons.complete(n))),
    "ekr": _closed_form("ekr", cons.kneser, alpha),
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


def run_verify(theorem_id: str, param_grid: list[dict], budget: Budget | None = None) -> list[TheoremReport]:
    """Sweep one theorem over ``param_grid`` (:func:`default_grid` gives the
    manifest's); reports come back in grid order."""
    if theorem_id not in _REGISTRY:
        raise InputError(f"unknown theorem id {theorem_id!r}; known: {theorem_ids()}")
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
    shown = prediction_json(pred)
    if isinstance(shown, list):
        lo, hi = shown
        return f"[{lo},{'inf' if hi is None else hi}]"
    return "n/a" if shown is None else str(shown)


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
