import json

import pytest

import genpos.harness
from genpos import (
    Budget,
    GpResult,
    InputError,
    TheoremReport,
    build_graph_spec,
    default_grid,
    emit_table,
    run_verify,
    theorem_ids,
)
from genpos.harness import FORMULAS, load_grids

CSV_HEADER = "theorem,params,predicted,computed,status,verdict,ms"


def test_theorem_registry():
    assert theorem_ids() == [
        "ekr",
        "prop4.2",
        "thm2.2",
        "thm2.3",
        "thm2.4",
        "thm3.1",
        "thm3.2",
        "thm4.1",
        "thm4.3",
        "thm4.4",
    ]


def test_manifest_covers_every_theorem():
    grids = load_grids()
    assert sorted(grids) == theorem_ids()
    # every theorem but thm4.1, whose prediction is a search, has its closed form in FORMULAS
    assert sorted(FORMULAS) == [tid for tid in theorem_ids() if tid != "thm4.1"]
    for tid, entry in grids.items():
        assert isinstance(entry["quick"], list) and entry["quick"]
        assert isinstance(entry["stretch"], list) and entry["stretch"]
    assert default_grid("thm4.4") == [{"n": n} for n in range(3, 8)]
    assert default_grid("thm2.4", stretch=True) == [{"n": n} for n in range(7, 13)]


def test_build_graph_spec_recursive():
    g = build_graph_spec(
        {
            "family": "join",
            "args": [
                {"family": "edgeless", "args": [2]},
                {"family": "edgeless", "args": [3]},
            ],
        }
    )
    assert g.n == 5 and g.edge_count == 6
    assert build_graph_spec({"family": "line-graph", "args": [{"family": "complete", "args": [4]}]}).n == 6


def test_build_graph_spec_validation():
    with pytest.raises(InputError):
        build_graph_spec({"args": [3]})
    with pytest.raises(InputError):
        build_graph_spec({"family": "moebius", "args": [3]})
    with pytest.raises(InputError):
        build_graph_spec({"family": "path", "args": 3})


def test_build_graph_spec_too_deep_is_an_input_error():
    spec = {"family": "complete", "args": [1]}
    for _ in range(1200):
        spec = {"family": "line_graph", "args": [spec]}
    with pytest.raises(InputError, match="nested too deeply"):
        build_graph_spec(spec)


def test_line_graphs_of_kn_sweep():
    reports = run_verify("thm4.4", [{"n": n} for n in range(3, 8)])
    assert [r.verdict for r in reports] == ["match"] * 5
    assert [r.computed.value for r in reports] == [3, 3, 4, 6, 6]


def test_two_factor_hamming_sweep():
    grid = [{"ns": [a, b]} for a in (2, 3, 4) for b in (2, 3, 4)]
    reports = run_verify("thm3.2", grid)
    assert all(r.verdict == "match" for r in reports)
    assert [r.computed.value for r in reports] == [
        a + b - 2 for a in (2, 3, 4) for b in (2, 3, 4)
    ]


def test_kneser2_sweep():
    reports = run_verify("thm2.2", [{"n": n} for n in range(4, 9)])
    assert all(r.verdict == "match" for r in reports)
    assert [r.computed.value for r in reports] == [6, 6, 6, 6, 7]


def test_not_applicable_point():
    reports = run_verify("thm2.3", [{"n": 9, "k": 3}])
    assert reports[0].verdict == "not-applicable"
    assert reports[0].computed is None
    assert "t=2" in reports[0].predicted.reason
    # the other runners' not-applicable returns, and thm2.3 below diameter 2
    p3 = {"family": "path", "args": [3]}
    points = [
        ("thm3.1", {"g": {"family": "edgeless", "args": [2]}, "h": p3}, "connected"),
        ("thm4.3", {"g": {"family": "complete", "args": [1]}, "h": p3}, "n(G) >= 2"),
        ("ekr", {"n": 5, "k": 3}, "n >= 2k"),
        ("thm2.3", {"n": 7, "k": 3}, "3k-1"),
    ]
    for theorem, point, reason in points:
        (r,) = run_verify(theorem, [point])
        assert (r.verdict, r.computed) == ("not-applicable", None), theorem
        assert reason in r.predicted.reason, theorem


def test_timeout_verdict_not_mismatch():
    # 40 nodes: the incumbent already equals the prediction but the search
    # is unfinished, so the verdict must be timeout, never mismatch
    reports = run_verify("thm2.4", [{"n": 7}], budget=Budget(max_nodes=40))
    assert reports[0].verdict == "timeout"
    assert reports[0].computed.status == "lower-bound"
    assert reports[0].computed.value == 15


@pytest.mark.parametrize("eta_value, verdict", [(7, "mismatch"), (3, "timeout")])
def test_unfinished_input_makes_prediction_a_lower_bound(monkeypatch, eta_value, verdict):
    # gp(K(5,2)) = 6 exactly. With η from an unfinished search the prediction
    # max{ω, η} only bounds gp from below: 7 > 6 refutes it, 3 <= 6 does not
    fake = GpResult(eta_value, tuple(range(eta_value)), "lower-bound", 1, 0.0, "rho")
    monkeypatch.setattr(genpos.harness, "eta", lambda g, budget=None: fake)
    (r,) = run_verify("thm4.1", [{"g": {"family": "kneser", "args": [5, 2]}}])
    assert (r.computed.value, r.computed.status) == (6, "exact")
    assert r.verdict == verdict
    assert "lower bound" in r.note


@pytest.mark.parametrize("stretch", [False, True])
def test_diam2_searches_no_omega(monkeypatch, stretch):
    # η ≥ ω, so max{ω, η} = η and thm4.1 needs no clique search
    def no_omega(g, budget=None):
        raise AssertionError("thm4.1 searched ω")

    monkeypatch.setattr(genpos.harness, "omega", no_omega)
    reports = run_verify("thm4.1", default_grid("thm4.1", stretch=stretch))
    assert {r.verdict for r in reports} <= {"match", "not-applicable"}


def test_interval_within_bound_even_under_budget():
    # an incumbent is a sound lower bound, so interval predictions can verify
    # without the search finishing
    reports = run_verify("thm3.1", default_grid("thm3.1"), budget=Budget(max_nodes=10_000))
    assert all(r.verdict in ("within-bound", "timeout") for r in reports)


def test_quick_grids_all_verify():
    for tid in theorem_ids():
        for r in run_verify(tid, default_grid(tid)):
            assert r.verdict in ("match", "within-bound", "not-applicable"), (
                tid,
                r.params,
                r.verdict,
            )


def test_unknown_theorem_id():
    with pytest.raises(InputError):
        run_verify("thm9.9", [])


def test_malformed_grids():
    with pytest.raises(InputError):
        run_verify("thm2.2", {"n": 4})
    with pytest.raises(InputError):
        run_verify("thm2.2", [{"m": 4}])
    with pytest.raises(InputError):
        run_verify("thm3.2", [{"ns": 4}])
    with pytest.raises(InputError):  # a float reaches the binomial bound before comb
        run_verify("thm2.3", [{"n": 6.0, "k": 2}])
    # a point missing a key its theorem reads
    for theorem, point in [("thm2.3", {"n": 7}), ("ekr", {"k": 2}), ("thm3.2", {}), ("thm3.1", {"g": {"family": "path", "args": [2]}})]:
        with pytest.raises(InputError, match=f"malformed grid point .* for {theorem}: "):
            run_verify(theorem, [point])


def test_grid_order_preserved():
    grid = [{"n": 6}, {"n": 4}, {"n": 5}]
    reports = run_verify("thm4.4", grid)
    assert [r.params for r in reports] == grid


# --- emit_table -------------------------------------------------------------


def test_empty_table_is_header_only():
    assert emit_table([]) == CSV_HEADER + "\n"


def test_one_report_two_lines():
    reports = run_verify("thm4.4", [{"n": 4}])
    text = emit_table(reports)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith('thm4.4,"{""n"":4}",3,3,exact,match,')


def test_json_lines_parse_individually():
    reports = run_verify("thm2.3", default_grid("thm2.3"))
    text = emit_table(reports, format="json-lines")
    records = [json.loads(line) for line in text.splitlines()]
    assert len(records) == len(reports)
    for rec, rep in zip(records, reports):
        assert rec["theorem"] == "thm2.3"
        assert rec["verdict"] == rep.verdict
        assert rec["params"] == rep.params


def test_emit_table_deterministic():
    reports = run_verify("thm4.4", [{"n": 4}, {"n": 5}])
    assert emit_table(reports) == emit_table(reports)
    assert emit_table(reports, "json-lines") == emit_table(reports, "json-lines")


def test_emit_table_unknown_format():
    with pytest.raises(InputError):
        emit_table([], format="yaml")


def test_report_is_frozen():
    r = run_verify("thm4.4", [{"n": 4}])[0]
    assert isinstance(r, TheoremReport)
    with pytest.raises(AttributeError):
        r.verdict = "match"
