import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import genpos
import genpos.cli
from genpos import TheoremReport, Prediction, decode_graph6, kneser, path, write_graph
from genpos.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.g6"
    write_graph(kneser(5, 2), str(p))
    return str(p)


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.g6"
    write_graph(path(4), str(p))
    return str(p)


def _run_cli(*argv, memory_kib=None, timeout=60):
    """``python -m genpos.cli argv`` in a real process, so an uncaught
    exception prints its traceback; ``memory_kib`` caps the child's address
    space (``RLIMIT_AS``), set in the child only."""
    cap_memory = None
    if memory_kib is not None:
        resource = pytest.importorskip("resource")
        limit = memory_kib * 1024

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(Path(genpos.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "genpos.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=cap_memory,
    )


def _assert_one_error_line(res):
    assert res.returncode == 2
    assert res.stdout == "" and "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


# --- construct ---------------------------------------------------------------


def test_construct_stdout_g6(runner):
    res = runner.invoke(main, ["construct", "kneser", "5", "2"])
    assert res.exit_code == 0
    assert decode_graph6(res.output.strip()).adj == kneser(5, 2).adj


def test_construct_json(runner):
    res = runner.invoke(main, ["construct", "path", "3", "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"n": 3, "edges": [[0, 1], [1, 2]]}


def test_construct_spec_and_out(runner, tmp_path):
    out = tmp_path / "k23.json"
    spec = '{"family":"join","args":[{"family":"edgeless","args":[2]},{"family":"edgeless","args":[3]}]}'
    res = runner.invoke(main, ["construct", "--spec", spec, "--out", str(out)])
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 5 and len(data["edges"]) == 6


def test_construct_unknown_family_exits_2(runner):
    res = runner.invoke(main, ["construct", "moebius", "5"])
    assert res.exit_code == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "kneser", "5"],  # missing k
        ["construct", "--spec", '{"family":"path","args":["x"]}'],  # string where n belongs
        ["construct", "--spec", '{"family":"cartesian_product","args":[5,3]}'],  # ints where graphs belong
    ],
)
def test_construct_bad_arguments_exit_2(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert res.stderr.startswith("error: bad arguments for")


def test_construct_without_args_is_usage_error(runner):
    res = runner.invoke(main, ["construct"])
    assert res.exit_code != 0


# 1,500 levels of line_graph around K1: deeper than json.loads can parse
_DEEP_SPEC = '{"family":"line_graph","args":[' * 1500 + '{"family":"complete","args":[1]}' + "]}" * 1500


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--spec", _DEEP_SPEC],
        ["verify", "--theorem", "thm4.1", "--grid", '[{"g": %s}]' % _DEEP_SPEC],
    ],
    ids=["construct", "verify"],
)
def test_deeply_nested_spec_exits_2(argv):
    # a real process, so an uncaught RecursionError would print its traceback
    res = _run_cli(*argv)
    assert res.returncode == 2
    assert res.stderr == "error: JSON is nested too deeply\n"
    assert "Traceback" not in res.stdout + res.stderr


_K1000_SQUARED = json.dumps({"family": "cartesian_product", "args": [{"family": "complete", "args": [1000]}] * 2})


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "path", "100000000"],
        ["construct", "kneser", "30", "15"],
        ["construct", "kneser", "1000000", "500000"],
        ["construct", "--spec", _K1000_SQUARED],
        ["verify", "--theorem", "thm2.3", "--grid", '[{"n": 30000, "k": 10000}]'],
        ["verify", "--theorem", "thm2.4", "--grid", '[{"n": %s}]' % ("9" * 2200)],
        ["construct", "kneser", "9" * 2200, "3"],
        ["construct", "complete", "300000"],
        ["construct", "edgeless", "300000"],
    ],
    ids=[
        "path",
        "kneser-30-15",
        "kneser-1000000-500000",
        "K1000xK1000",
        "thm2.3-reason",
        "thm2.4-order",
        "kneser-order",
        "complete",
        "edgeless",
    ],
)
def test_huge_order_exits_2_before_anything_is_built(argv):
    # a real process under a 600 MB address-space limit: building any of
    # these graphs would raise a MemoryError, and printing C(30000, 9999) or
    # C(n, 3) here would pass Python's digit limit
    _assert_one_error_line(_run_cli(*argv, memory_kib=600_000, timeout=10))


def test_huge_declared_order_exits_2_before_anything_is_built(tmp_path):
    # the file only declares its order; one set per vertex would not fit
    p = tmp_path / "big.json"
    p.write_text('{"n": 100000000}')
    _assert_one_error_line(_run_cli("gp", "--graph", str(p), memory_kib=600_000, timeout=10))


def test_huge_kneser_is_refused_before_its_order_is_computed(runner):
    # C(10^6, 5 * 10^5) has about 300,000 digits, and computing it takes
    # seconds; 2^min(k, n - k) already passes the order limit
    t0 = time.perf_counter()
    res = runner.invoke(main, ["construct", "kneser", "1000000", "500000"])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


# --- gp / invariant ----------------------------------------------------------


def test_gp_on_petersen(runner, petersen_file):
    res = runner.invoke(main, ["gp", "--graph", petersen_file])
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["value"] == 6
    assert rec["status"] == "exact"
    assert rec["method"] == "exact"
    assert len(rec["witness"]) == 6


def test_gp_budget_nodes_gives_lower_bound(runner, petersen_file):
    res = runner.invoke(main, ["gp", "--graph", petersen_file, "--budget-nodes", "1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "lower-bound"


def test_gp_bad_env_budget_exits_2(runner, petersen_file):
    res = runner.invoke(main, ["gp", "--graph", petersen_file], env={"GP_BUDGET_MS": "soon"})
    assert res.exit_code == 2
    assert "GP_BUDGET_MS" in res.stderr


@pytest.mark.parametrize(
    "option, env, exit_code",
    [("0", "soon", 0), ("nan", "0", 2)],
    ids=["bad-variable-unread", "bad-option-used"],
)
def test_budget_option_beats_the_environment_variable(runner, petersen_file, option, env, exit_code):
    res = runner.invoke(main, ["gp", "--graph", petersen_file, "--budget-ms", option], env={"GP_BUDGET_MS": env})
    assert res.exit_code == exit_code


@pytest.mark.parametrize(
    "args, env",
    [
        (["--budget-ms", "nan"], {}),
        ([], {"GP_BUDGET_MS": "nan"}),
        (["--budget-nodes", "-5"], {}),
    ],
)
def test_gp_budget_that_disables_itself_exits_2(runner, petersen_file, args, env):
    res = runner.invoke(main, ["gp", "--graph", petersen_file, *args], env=env)
    assert res.exit_code == 2
    assert "error:" in res.stderr


def test_invariant_rho(runner, petersen_file):
    res = runner.invoke(main, ["invariant", "--which", "rho", "--graph", petersen_file])
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["value"] == 6 and rec["status"] == "exact"


@pytest.mark.parametrize("suffix", [".g6", ".json"])
def test_construct_out_file_feeds_gp_and_invariant(runner, tmp_path, suffix):
    out = str(tmp_path / f"petersen{suffix}")
    assert runner.invoke(main, ["construct", "kneser", "5", "2", "--out", out]).exit_code == 0
    for argv, value in (
        (["gp", "--budget-ms", "0"], 6),
        (["invariant", "--which", "alpha"], 4),
        (["invariant", "--which", "rho"], 6),
    ):
        res = runner.invoke(main, [*argv, "--graph", out])
        assert (res.exit_code, json.loads(res.output)["value"]) == (0, value)


def test_gp_on_malformed_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("A_XYZ\n")
    res = runner.invoke(main, ["gp", "--graph", str(bad)])
    assert res.exit_code == 2


# --- predict -----------------------------------------------------------------


def test_predict_kneser2(runner):
    res = runner.invoke(main, ["predict", "kneser2", "7"])
    rec = json.loads(res.output)
    assert rec == {
        "theorem": "thm2.2",
        "params": {"n": 7},
        "applicable": True,
        "value_or_interval": 6,
        "witness": [0, 1, 2, 3, 4, 5],
    }


def test_predict_inapplicable_carries_reason(runner):
    res = runner.invoke(main, ["predict", "ekr", "4", "3"])
    rec = json.loads(res.output)
    assert res.exit_code == 0
    assert rec["applicable"] is False
    assert "n >= 2k" in rec["reason"]


def test_predict_interval(runner):
    res = runner.invoke(main, ["predict", "cartesian-lower", "3", "3", "--n-g", "3", "--n-h", "4"])
    rec = json.loads(res.output)
    assert rec["value_or_interval"] == [4, 12]


def test_predict_hamming_multi(runner):
    res = runner.invoke(main, ["predict", "hamming", "2", "2", "2"])
    rec = json.loads(res.output)
    assert rec["value_or_interval"] == [3, None]
    assert rec["witness"] == [1, 2, 4]


def test_predict_join(runner):
    res = runner.invoke(main, ["predict", "join", "1", "1", "2", "3"])
    rec = json.loads(res.output)
    assert rec["params"] == {"omega_g": 1, "omega_h": 1, "rho_g": 2, "rho_h": 3}
    assert rec["value_or_interval"] == 3


@pytest.mark.parametrize(
    "args, reason",
    [
        (["join", "--", "-4", "-4", "-1", "-1"], "needs omega_g >= 0, got -4"),
        (["cartesian-lower", "3", "3", "--n-g", "-2", "--n-h", "4"], "needs n_g >= 0, got -2"),
        (["corona", "3", "--", "-2"], "needs rho_h >= 0, got -2"),
    ],
)
def test_predict_negative_arguments_not_applicable(runner, args, reason):
    res = runner.invoke(main, ["predict", *args])
    rec = json.loads(res.output)
    assert res.exit_code == 0
    assert (rec["applicable"], rec["value_or_interval"], rec["reason"]) == (False, None, reason)


def test_predict_join_takes_four_arguments(runner):
    res = runner.invoke(main, ["predict", "join", "1", "1", "2", "3", "2", "3"])
    assert res.exit_code == 2


PREDICT_RECORDS = [
    ("kneser2 6", '{"theorem": "thm2.2", "params": {"n": 6}, "applicable": true, "value_or_interval": 6, "witness": [0, 1, 2, 5, 6, 9]}'),
    ("kneser3 7", '{"theorem": "thm2.4", "params": {"n": 7}, "applicable": true, "value_or_interval": 15, "witness": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]}'),
    ("kneser-condition 10 2", '{"theorem": "thm2.3", "params": {"n": 10, "k": 2}, "applicable": true, "value_or_interval": 9, "witness": [0, 1, 2, 3, 4, 5, 6, 7, 8]}'),
    ("kneser-condition 9 3", '{"theorem": "thm2.3", "params": {"n": 9, "k": 3}, "applicable": false, "value_or_interval": null, "witness": null, "reason": "inequality fails at t=2: 65 > 28"}'),
    ("cartesian-lower 3 4 --n-g 5 --n-h 6", '{"theorem": "thm3.1", "params": {"gp_g": 3, "gp_h": 4}, "applicable": true, "value_or_interval": [5, 30], "witness": null}'),
    ("hamming 3 4", '{"theorem": "thm3.2", "params": {"ns": [3, 4]}, "applicable": true, "value_or_interval": 5, "witness": [1, 2, 3, 4, 8]}'),
    ("join 2 3 4 1", '{"theorem": "prop4.2", "params": {"omega_g": 2, "omega_h": 3, "rho_g": 4, "rho_h": 1}, "applicable": true, "value_or_interval": 5, "witness": null}'),
    ("corona 3 2", '{"theorem": "thm4.3", "params": {"n_g": 3, "rho_h": 2}, "applicable": true, "value_or_interval": 6, "witness": null}'),
    ("line-complete 6", '{"theorem": "thm4.4", "params": {"n": 6}, "applicable": true, "value_or_interval": 6, "witness": [0, 1, 5, 12, 13, 14]}'),
    ("ekr 7 3", '{"theorem": "ekr", "params": {"n": 7, "k": 3}, "applicable": true, "value_or_interval": 15, "witness": null}'),
]


@pytest.mark.parametrize("argv, record", PREDICT_RECORDS, ids=[argv for argv, _ in PREDICT_RECORDS])
def test_predict_record_pinned(runner, argv, record):
    res = runner.invoke(main, ["predict", *argv.split()])
    assert res.exit_code == 0
    assert res.output == record + "\n"


@pytest.mark.parametrize("n, ids", [(724, 723), (725, None)])
def test_predict_star_witness_boundary(runner, n, ids):
    res = runner.invoke(main, ["predict", "kneser2", str(n)])
    rec = json.loads(res.output)
    assert (res.exit_code, rec["value_or_interval"]) == (0, n - 1)
    assert (rec["witness"] if ids is None else len(rec["witness"])) == ids


@pytest.mark.parametrize(
    "argv",
    [["kneser2", "9999999999999999999"], ["kneser3", "9999999999999999999"], ["kneser-condition", "9999999999999999999", "3"]],
    ids=["kneser2", "kneser3", "kneser-condition"],
)
def test_predict_huge_kneser_gives_the_value_without_a_witness(argv):
    # a real process, so an uncaught OverflowError would print its traceback
    res = _run_cli("predict", *argv)
    assert res.returncode == 0
    assert "Traceback" not in res.stdout + res.stderr
    rec = json.loads(res.stdout)
    assert rec["applicable"] is True and rec["witness"] is None


@pytest.mark.parametrize(
    "argv, ids",
    [("line-complete 724", 723), ("line-complete 725", None), ("hamming 511 512", 1021), ("hamming 512 512", None)],
)
def test_predict_witness_cap_boundary(runner, argv, ids):
    # C(724, 2) = 261,726 and 511 * 512 = 261,632 are below 2^18; C(725, 2) and 512 * 512 are not
    res = runner.invoke(main, ["predict", *argv.split()])
    rec = json.loads(res.output)
    assert res.exit_code == 0 and rec["applicable"] is True
    assert (rec["witness"] if ids is None else len(rec["witness"])) == ids


@pytest.mark.parametrize("argv", [["line-complete", "1000000000"], ["hamming", "1000000000", "2"]], ids=["line-complete", "hamming"])
def test_predict_huge_graph_gives_the_value_without_a_witness(argv):
    # a real process, so a MemoryError would print its traceback
    res = _run_cli("predict", *argv)
    assert res.returncode == 0
    assert "Traceback" not in res.stdout + res.stderr
    rec = json.loads(res.stdout)
    assert rec["applicable"] is True and rec["witness"] is None


@pytest.mark.parametrize(
    "argv",
    [["kneser-condition", "30000", "10000"], ["kneser3", "9" * 2200]],
    ids=["reason", "value"],
)
def test_predict_number_past_the_digit_limit_exits_2(argv):
    # Python prints no int of more than 4300 digits: here the "inequality
    # fails" reason and the value C(n-1, 2) of gp(K(n,3)) would need one
    _assert_one_error_line(_run_cli("predict", *argv))


@pytest.mark.parametrize(
    "argv",
    [["ekr", "100000000000", "50000000000"], ["kneser-condition", "200000000000", "50000000000"]],
    ids=["ekr", "kneser-condition"],
)
def test_predict_huge_k_exits_2_before_its_binomial_is_computed(argv):
    # C(n-1, k-1) >= 2^min(k-1, n-k) has far more than 4300 digits, and
    # computing it would take hours
    t0 = time.perf_counter()
    res = _run_cli("predict", *argv, timeout=10)
    assert time.perf_counter() - t0 < 1.0
    _assert_one_error_line(res)


def test_predict_help_lists_every_subcommand(runner):
    res = runner.invoke(main, ["predict", "--help"])
    assert res.exit_code == 0
    listed = [line.split()[0] for line in res.output.split("Commands:\n")[1].splitlines()]
    assert listed == [
        "cartesian-lower",
        "corona",
        "ekr",
        "hamming",
        "join",
        "kneser-condition",
        "kneser2",
        "kneser3",
        "line-complete",
    ]


# --- check-set -----------------------------------------------------------------


@pytest.mark.parametrize(
    "cmd", [["gp"], ["invariant", "--which", "alpha"], ["check-set", "--set", "0"]]
)
def test_non_utf8_graph_file_exits_2(runner, tmp_path, cmd):
    p = tmp_path / "bad.g6"
    p.write_bytes(b"\xff")
    res = runner.invoke(main, [*cmd, "--graph", str(p)])
    assert res.exit_code == 2
    assert "non-ASCII byte" in res.output


def test_json_error_names_the_byte_offset(runner, tmp_path):
    p = tmp_path / "labels.json"
    p.write_bytes('{"n": 1, "labels": ["éé"], }'.encode("utf-8"))
    res = runner.invoke(main, ["gp", "--graph", str(p)])
    assert res.exit_code == 2
    assert "byte offset 29" in res.output


def test_json_integer_past_the_digit_limit_exits_2(runner, tmp_path):
    huge = "9" * 5000
    p = tmp_path / "f.json"
    p.write_text('{"n": %s}' % huge)
    res = runner.invoke(main, ["gp", "--graph", str(p)])
    assert (res.exit_code, res.stderr) == (2, f"error: JSON holds an integer of more than {sys.get_int_max_str_digits()} digits\n")
    res = runner.invoke(main, ["verify", "--theorem", "thm2.2", "--grid", '[{"n": %s}]' % huge])
    assert (res.exit_code, res.stderr) == (2, f"error: JSON holds an integer of more than {sys.get_int_max_str_digits()} digits\n")


def test_check_set_agreement(runner, petersen_file):
    res = runner.invoke(main, ["check-set", "--graph", petersen_file, "--set", "0,1,2"])
    rec = json.loads(res.output)
    assert rec["general_position"] is True
    assert rec["characterization"]["ok"] is True
    assert rec["agree"] is True


def test_check_set_violation_detail(runner, p4_file):
    res = runner.invoke(main, ["check-set", "--graph", p4_file, "--set", "0,1,2"])
    rec = json.loads(res.output)
    assert rec["general_position"] is False
    assert rec["characterization"]["condition"] == "clique"


def test_check_set_disconnected(runner, tmp_path):
    p = tmp_path / "m.g6"
    write_graph(kneser(4, 2), str(p))
    res = runner.invoke(main, ["check-set", "--graph", str(p), "--set", "0,1,2,3,4,5"])
    rec = json.loads(res.output)
    assert rec["general_position"] is True
    assert rec["characterization"] is None
    assert "connected" in rec["note"]


def test_check_set_bad_tokens_exit_2(runner, petersen_file):
    res = runner.invoke(main, ["check-set", "--graph", petersen_file, "--set", "0,x"])
    assert res.exit_code == 2


# --- verify --------------------------------------------------------------------


def test_verify_single_theorem_quick(runner):
    res = runner.invoke(main, ["verify", "--theorem", "thm4.4", "--quick"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "theorem,params,predicted,computed,status,verdict,ms"
    assert len(lines) == 6
    assert all(",match," in line for line in lines[1:])


def test_verify_grid_override(runner):
    res = runner.invoke(
        main, ["verify", "--theorem", "thm2.2", "--grid", '[{"n": 5}]', "--format", "json-lines"]
    )
    assert res.exit_code == 0
    rec = json.loads(res.output.strip())
    assert rec["computed"] == 6 and rec["verdict"] == "match"


def test_verify_unknown_theorem_exits_2(runner):
    res = runner.invoke(main, ["verify", "--theorem", "nope"])
    assert res.exit_code == 2
    assert "unknown theorem id" in res.stderr


def test_verify_all_and_theorem_conflict(runner):
    res = runner.invoke(main, ["verify", "--all", "--theorem", "thm2.2"])
    assert res.exit_code == 2  # click usage error


@pytest.mark.parametrize("extra", [[], ["--all"]], ids=["alone", "with-all"])
def test_verify_grid_without_theorem_is_a_usage_error(runner, extra):
    # no one grid fits every theorem: thm3.1 needs g and h, thm2.2 needs n
    res = runner.invoke(main, ["verify", *extra, "--grid", '[{"n": 7}]'])
    assert res.exit_code == 2
    assert "--theorem" in res.stderr and "malformed grid point" not in res.stderr


def test_verify_timeout_exit_codes(runner):
    # one search node: no stretch point can finish, so every one times out
    args = ["verify", "--theorem", "thm2.4", "--stretch", "--budget-nodes", "1", "--budget-ms", "0"]
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert ",timeout," in res.output
    res = runner.invoke(main, args + ["--strict"])
    assert res.exit_code == 1


@pytest.mark.parametrize(
    "args",
    [
        ["--theorem", "thm3.1", "--budget-nodes", "0"],
        ["--all", "--budget-nodes", "0"],
        ["--all", "--budget-ms", "0.001"],
    ],
)
def test_verify_exhausted_factor_search_exits_3(runner, args):
    # factor searches that end with no witness must still give a timeout,
    # not a crash
    res = runner.invoke(main, ["verify", *args])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code == 3
    assert "Traceback" not in res.output
    assert "thm3.1" in res.output and ",timeout," in res.output


def test_verify_mismatch_exits_1(runner, monkeypatch):
    # a real mismatch would disprove a theorem, so inject one to check the wiring
    bogus = TheoremReport("thm4.4", {"n": 4}, Prediction(True, value=3), None, "mismatch", 0.1)
    monkeypatch.setattr(genpos.cli, "run_verify", lambda tid, grid, budget: [bogus])
    res = runner.invoke(main, ["verify", "--theorem", "thm4.4"])
    assert res.exit_code == 1


def test_verify_all_quick_is_clean(runner):
    res = runner.invoke(main, ["verify", "--all", "--quick"])
    assert res.exit_code == 0
    assert "mismatch" not in res.output


@pytest.mark.stretch
def test_verify_all_stretch_strict_is_clean(runner):
    res = runner.invoke(main, ["verify", "--all", "--stretch", "--strict", "--budget-ms", "600000"])
    assert res.exit_code == 0
    assert "mismatch" not in res.output and "timeout" not in res.output
