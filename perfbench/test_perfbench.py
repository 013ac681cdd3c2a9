"""Self-tests of the benchmark: seeded inputs and the failure checks.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS


@pytest.fixture(scope="module")
def gp():
    return suite.import_genpos()


@pytest.mark.parametrize("workload", ["diam2", "exact"])
def test_seed_fixes_the_random_graphs(gp, workload):
    def edges(seed):
        return [inst.graph.edges() for inst in suite.seeded_instances(gp, workload, seed)]

    first = edges(7)
    assert len(first) == suite.SEEDED_GRAPHS
    assert edges(7) == first
    assert edges(8) != first


@pytest.fixture(scope="module")
def k10_2(gp):
    """K(10,2) with its reference value and its exact gp_auto result."""
    inst = suite.instances("diam2")[1]
    inst.graph = suite.build(gp.constructions, inst.spec, inst.name)
    suite.references(suite.Setup(gp, [inst]))
    return inst, gp.gp_auto(inst.graph)


def test_check_accepts_the_true_result(gp, k10_2):
    inst, res = k10_2
    assert suite.check(gp, inst, res, 1.0) == ([], False)


def test_check_flags_a_wrong_value(gp, k10_2):
    inst, res = k10_2
    smaller = dataclasses.replace(res, value=res.value - 1, witness=res.witness[:-1])
    wrong, late = suite.check(gp, inst, smaller, 1.0)
    assert wrong == [f"value {inst.value - 1} != reference {inst.value}"] and not late


def test_check_flags_a_witness_not_in_general_position(gp, k10_2):
    inst, res = k10_2
    everything = tuple(range(inst.graph.n))
    bad = dataclasses.replace(res, value=len(everything), witness=everything)
    wrong, _ = suite.check(gp, inst, bad, 1.0)
    assert "witness is not in general position" in wrong


def test_check_flags_a_late_deadline_return(gp, k10_2):
    inst, res = k10_2
    timed = dataclasses.replace(inst, max_ms=100.0)
    assert suite.check(gp, timed, res, 100.0 + suite.LATE_SLACK_MS) == ([], False)
    assert suite.check(gp, timed, res, 101.0 + suite.LATE_SLACK_MS) == ([], True)


def _run(capsys, workload, solve):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0"], solve=solve)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _answer(gp, value, witness, status="exact"):
    """A stand-in for gp_auto that returns value(g) and witness(g) at once."""
    return lambda g, budget: gp.GpResult(value(g), witness(g), status, 0, 0.0, "exact")


def test_wrong_values_make_the_command_fail(gp, capsys):
    code, out = _run(capsys, "exact", _answer(gp, lambda g: 0, lambda g: ()))
    assert code == 1 and out["correct"] is False
    assert out["failed"] == out["attempted"] == 15
    assert out["metrics"]["ok_frac"]["value"] == 0.0


def test_invalid_witnesses_make_the_command_fail(gp, capsys):
    # every vertex: in general position only on K120 and 60K2
    code, out = _run(capsys, "exact", _answer(gp, lambda g: g.n, lambda g: tuple(range(g.n))))
    assert code == 1 and out["correct"] is False
    assert out["failed"] == out["attempted"] - 2


def test_late_returns_count_as_failures_but_not_as_wrong(gp, capsys, monkeypatch):
    monkeypatch.setattr(suite, "LATE_SLACK_MS", -1e9)
    code, out = _run(capsys, "deadline", _answer(gp, lambda g: 0, lambda g: (), "lower-bound"))
    assert code == 0 and out["correct"] is True and out["failed"] == 0
    assert out["metrics"]["ok_frac"]["value"] == 0.0


def test_missing_program_exits_without_a_result(capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", os.path.join(HERE, "no-such-checkout"))
    assert run.main(["--workload", "exact", "--seed", "1", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""
