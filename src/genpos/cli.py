"""Command-line interface.

Every subcommand emits one JSON object (or CSV table) per line on stdout.
The per-instance search budget is the --budget-ms option, which click reads
from the GP_BUDGET_MS environment variable when the option is not given
(default 10000 ms; a value <= 0 removes the time limit).

Exit codes: 0 success / all verified, 1 mismatch (or, under --strict,
timeout), 2 input error, 3 budget exhausted with unresolved grid points.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections.abc import Callable

import click

from .budget import Budget, GpResult
from .errors import InputError, ParseError, digit_limit
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
from .graph import distances, is_connected
from .harness import build_graph_spec, default_grid, emit_table, prediction_json, run_verify, theorem_ids
from .io import dumps_json, encode_graph6, parse_json, read_graph, write_graph
from .invariants import alpha, eta, omega, rho
from .solver import characterization_check, gp_exact, is_general_position


def _budget(nodes: int | None, ms: float) -> Budget:
    return Budget(max_nodes=nodes, max_ms=None if ms <= 0 else ms)


def _input_errors(f):
    # uniform mapping of bad input to exit code 2
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (InputError, ParseError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)

    return wrapper


def _budget_options(f):
    f = click.option("--budget-nodes", type=int, default=None, help="Search node limit.")(f)
    f = click.option(
        "--budget-ms",
        type=float,
        default=10000.0,
        envvar="GP_BUDGET_MS",
        show_default=True,
        show_envvar=True,
        help="Wall-clock limit in ms (<= 0 for none).",
    )(f)
    return f


@click.group()
def main():
    """Exact general position numbers for finite graphs."""


@main.command()
@click.argument("family", required=False)
@click.argument("args", nargs=-1, type=int)
@click.option("--spec", "spec_json", default=None, help='Recursive JSON spec, e.g. \'{"family":"kneser","args":[5,2]}\'.')
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Write to a file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["g6", "json"]), default=None, help="Output format (default: by extension, else g6).")
@_input_errors
def construct(family, args, spec_json, out_path, fmt):
    """Build a named graph family (e.g. `construct kneser 5 2`)."""
    if spec_json is not None:
        g = build_graph_spec(parse_json(spec_json))
    elif family is not None:
        g = build_graph_spec({"family": family, "args": list(args)})
    else:
        raise click.UsageError("give a FAMILY with integer arguments, or --spec")
    if out_path is not None:
        write_graph(g, out_path, fmt)
    elif fmt == "json":
        click.echo(dumps_json(g))
    else:
        click.echo(encode_graph6(g))


def _result_record(r: GpResult) -> dict:
    return {"value": r.value, "witness": list(r.witness), "status": r.status, "nodes": r.nodes_explored}


@main.command("gp")
@click.option("--graph", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@_budget_options
@_input_errors
def gp_cmd(path, budget_nodes, budget_ms):
    """Compute gp(G) with witness."""
    r = gp_exact(read_graph(path), _budget(budget_nodes, budget_ms))
    click.echo(json.dumps({**_result_record(r), "ms": round(r.elapsed_ms, 1), "method": r.method}))


@main.command()
@click.option("--which", type=click.Choice(["omega", "alpha", "eta", "rho"]), required=True)
@click.option("--graph", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@_budget_options
@_input_errors
def invariant(which, path, budget_nodes, budget_ms):
    """Compute ω, α, η, or ρ with witness."""
    fn = {"omega": omega, "alpha": alpha, "eta": eta, "rho": rho}[which]
    click.echo(json.dumps(_result_record(fn(read_graph(path), _budget(budget_nodes, budget_ms)))))


@main.group()
def predict():
    """Closed-form predictions (no search)."""


def _echo_prediction(theorem: str, params: dict, predict: Callable[[], Prediction]) -> None:
    # every predict subcommand prints through here
    with digit_limit("the prediction holds a number"):
        pred = predict()
        record = {
            "theorem": theorem,
            "params": params,
            "applicable": pred.applicable,
            "value_or_interval": prediction_json(pred),
            "witness": None if pred.witness is None else list(pred.witness),
        }
        if not pred.applicable:
            record["reason"] = pred.reason
        click.echo(json.dumps(record))


@predict.command("cartesian-lower")
@click.argument("gp_g", type=int)
@click.argument("gp_h", type=int)
@click.option("--n-g", type=int, default=None, help="Order of G (adds the trivial upper bound).")
@click.option("--n-h", type=int, default=None, help="Order of H.")
@_input_errors
def predict_cartesian_lower(gp_g, gp_h, n_g, n_h):
    """gp(G□H) >= gp(G) + gp(H) - 2."""
    _echo_prediction("thm3.1", {"gp_g": gp_g, "gp_h": gp_h}, lambda: gp_cartesian_lower(gp_g, gp_h, n_g, n_h))


@predict.command("hamming")
@click.argument("ns", nargs=-1, type=int, required=True)
@_input_errors
def predict_hamming(ns):
    """gp(K_{n1} [] ... [] K_{nk}) >= sum(n_i) - k (exact for k=2)."""
    _echo_prediction("thm3.2", {"ns": list(ns)}, lambda: hamming_lower(list(ns)))


# subcommand -> (theorem id, formula, help); each takes its formula's integer
# parameters as arguments, in order and under the same names
_PREDICTIONS = {
    "kneser2": ("thm2.2", gp_kneser2, "gp(K(n,2))."),
    "kneser3": ("thm2.4", gp_kneser3, "gp(K(n,3))."),
    "kneser-condition": ("thm2.3", kneser_condition, "Sufficient condition for gp(K(n,k)) = C(n-1,k-1)."),
    "join": ("prop4.2", gp_join, "gp(G + H) from the factors' ω and ρ."),
    "corona": ("thm4.3", gp_corona, "gp(G o H) = n(G) * rho(H) for n(G) >= 2."),
    "line-complete": ("thm4.4", gp_line_complete, "gp(L(K_n))."),
    "ekr": ("ekr", ekr_bound, "Erdos-Ko-Rado bound C(n-1,k-1) on alpha(K(n,k)) for n >= 2k."),
}


def _add_prediction(name: str, theorem: str, formula, doc: str) -> None:
    @_input_errors
    def command(**params):
        _echo_prediction(theorem, params, lambda: formula(**params))

    for param in reversed(inspect.signature(formula).parameters):
        command = click.argument(param, type=int)(command)
    predict.command(name, help=doc)(command)


for _name, _entry in _PREDICTIONS.items():
    _add_prediction(_name, *_entry)


@main.command("check-set")
@click.option("--graph", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "members", required=True, help="Comma-separated vertex ids, e.g. 0,2,5.")
@_input_errors
def check_set(path, members):
    """Test a vertex set: definition and structural characterization."""
    g = read_graph(path)
    try:
        s = tuple(int(tok) for tok in members.split(",") if tok.strip() != "")
    except ValueError:
        raise InputError(f"--set must be comma-separated integers, got {members!r}") from None
    d = distances(g)
    gp_ok = is_general_position(d, s)
    record = {"set": sorted(set(s)), "general_position": gp_ok}
    if is_connected(g):
        res = characterization_check(g, d, s)
        if res.ok:
            record["characterization"] = {
                "ok": True,
                "parts": [list(p) for p in res.partition.parts],
            }
        else:
            v = res.violation
            record["characterization"] = {
                "ok": False,
                "condition": v.condition,
                "vertices": list(v.vertices),
                "detail": v.detail,
            }
        record["agree"] = res.ok == gp_ok
    else:
        record["characterization"] = None
        record["note"] = "structural characterization needs a connected graph"
    click.echo(json.dumps(record))


@main.command()
@click.option("--all", "run_all", is_flag=True, help="Sweep every registered theorem (default).")
@click.option("--theorem", "theorem_id", default=None, help="Sweep one theorem id.")
@click.option("--quick/--stretch", default=True, help="Which manifest grid to use.")
@click.option("--strict", is_flag=True, help="Treat timeouts as failures.")
@click.option("--grid", "grid_json", default=None, help="JSON list of parameter points for --theorem (overrides the manifest).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json-lines"]), default="csv")
@_budget_options
@_input_errors
def verify(run_all, theorem_id, quick, strict, grid_json, fmt, budget_nodes, budget_ms):
    """Check theorem predictions against the solver over parameter grids."""
    if theorem_id is not None and run_all:
        raise click.UsageError("--all and --theorem are mutually exclusive")
    if theorem_id is not None and theorem_id not in theorem_ids():
        raise InputError(f"unknown theorem id {theorem_id!r}; known: {theorem_ids()}")
    if grid_json is not None and theorem_id is None:
        raise click.UsageError("--grid needs --theorem ID: no one grid fits every theorem")
    ids = [theorem_id] if theorem_id is not None else theorem_ids()
    budget = _budget(budget_nodes, budget_ms)
    grid = None if grid_json is None else parse_json(grid_json)
    reports = []
    with digit_limit("the prediction holds a number"):  # as in _echo_prediction
        for tid in ids:
            reports.extend(run_verify(tid, default_grid(tid, stretch=not quick) if grid is None else grid, budget))
        click.echo(emit_table(reports, fmt), nl=False)
    if any(r.verdict == "mismatch" for r in reports):
        sys.exit(1)
    if any(r.verdict == "timeout" for r in reports):
        sys.exit(1 if strict else 3)


if __name__ == "__main__":
    main()
