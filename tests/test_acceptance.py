"""Acceptance gate: one test per release criterion.

Every test does its full check inside the criterion's wall-clock allowance
and registers a PASS/FAIL line that the terminal summary prints after the
run. Aggregated failures are collected first so the recorded line carries
the reason, not just the assertion.
"""

import itertools
import time

import pytest

from genpos import (
    Budget,
    EXACT,
    cartesian_product,
    cartesian_witness,
    characterization_check,
    complete,
    corona,
    cycle,
    diameter,
    distances,
    edgeless,
    eta,
    gp_exact,
    gp_join,
    gp_kneser2,
    hamming_witness,
    is_connected,
    is_general_position,
    join,
    kneser,
    line_graph,
    omega,
    path,
    rho,
)

import corpus
import oracles
from _acceptance_log import record


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def _finish(cid: str, limit_s: float, timer: _Timer, ok: bool, detail: str) -> None:
    in_time = timer.elapsed < limit_s
    record(cid, ok and in_time, f"{detail} [{timer.elapsed:.1f}s / {limit_s:.0f}s]")
    assert ok, f"{cid}: {detail}"
    assert in_time, f"{cid}: took {timer.elapsed:.1f}s, allowed {limit_s:.0f}s"


def test_criterion_01_kneser2_closed_form():
    with _Timer() as t:
        bad, vals = [], []
        for n in range(4, 10):
            res = gp_exact(kneser(n, 2))
            want = gp_kneser2(n).value
            vals.append(res.value)
            if res.status != EXACT or res.value != want:
                bad.append(f"n={n}: {res.value} ({res.status}) != {want}")
    _finish(
        "C01 Kneser k=2 (n=4..9)",
        30,
        t,
        not bad,
        "; ".join(bad) or f"gp(K(n,2)) = {vals}, all exact",
    )


def test_criterion_02_kneser3_small():
    limit = 60.0
    with _Timer() as t:
        bad = []
        r6 = gp_exact(kneser(6, 3))
        if r6.status != EXACT or r6.value != 20:
            bad.append(f"K(6,3): {r6.value} ({r6.status}) != 20")
        left_ms = max(1.0, (limit - (time.monotonic() - t.t0)) * 1000.0)
        r8 = gp_exact(kneser(8, 3), Budget(max_ms=left_ms))
        if r8.status == EXACT:
            if r8.value != 21:
                bad.append(f"K(8,3): exact {r8.value} != 21")
            detail = "K(6,3) = 20 and K(8,3) = 21, both exact"
        else:
            # allowed degradation on slow machines: the search reaches 21
            # within its first 50 nodes, and exactness moves to the stretch run
            if r8.value < 21:
                bad.append(f"K(8,3): incumbent {r8.value} < 21")
            detail = f"K(6,3) = 20; K(8,3) >= {r8.value} (exactness deferred to stretch)"
    _finish("C02 Kneser k=3 small (60s budget)", limit, t, not bad, "; ".join(bad) or detail)


@pytest.mark.stretch
def test_criterion_02_stretch_k83_exact():
    with _Timer() as t:
        res = gp_exact(kneser(8, 3), Budget(max_ms=600_000))
        ok = res.status == EXACT and res.value == 21
    _finish(
        "C02s Kneser K(8,3) exact (stretch)", 600, t, ok, f"value {res.value} ({res.status})"
    )


def test_criterion_03_k73_incumbent():
    with _Timer() as t:
        res = gp_exact(kneser(7, 3), Budget(max_nodes=5000))
        ok = res.value >= 15
    _finish(
        "C03 K(7,3) incumbent (quick)", 30, t, ok, f"incumbent {res.value} >= 15 after 5000 nodes"
    )


@pytest.mark.stretch
def test_criterion_03_stretch_k73_exact():
    with _Timer() as t:
        res = gp_exact(kneser(7, 3), Budget(max_ms=600_000))
        ok = res.status == EXACT and res.value == 15
    _finish("C03s gp(K(7,3)) = 15 (stretch)", 600, t, ok, f"value {res.value} ({res.status})")


def test_criterion_04_complete_products():
    with _Timer() as t:
        bad = []
        for n1, n2 in itertools.product((2, 3, 4), repeat=2):
            res = gp_exact(cartesian_product(complete(n1), complete(n2)))
            if res.status != EXACT or res.value != n1 + n2 - 2:
                bad.append(f"K{n1} x K{n2}: {res.value} != {n1 + n2 - 2}")
    _finish(
        "C04 complete products = n1+n2-2",
        10,
        t,
        not bad,
        "; ".join(bad) or "all 9 products exact",
    )


def test_criterion_05_cartesian_lower_bound():
    small = {"P3": path(3), "P4": path(4), "C4": cycle(4), "C5": cycle(5), "K3": complete(3)}
    names = list(small)
    # Petersen appears on the H side only; this solver finishes each such
    # product in well under a second, so it stays in the pair set
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    pairs += [(a, "Petersen") for a in names]
    factors = dict(small, Petersen=kneser(5, 2))
    with _Timer() as t:
        bad = []
        for na, nb in pairs:
            g, h = factors[na], factors[nb]
            rg, rh = gp_exact(g), gp_exact(h)
            prod = cartesian_product(g, h)
            res = gp_exact(prod)
            bound = rg.value + rh.value - 2
            if res.status != EXACT or res.value < bound:
                bad.append(f"{na}x{nb}: gp {res.value} ({res.status}) < {bound}")
                continue
            w = cartesian_witness(g, rg.witness, h, rh.witness, rg.witness[0], rh.witness[0])
            if len(w) != bound or not is_general_position(distances(prod), w):
                bad.append(f"{na}x{nb}: witness invalid")
    _finish(
        "C05 Cartesian lower bound + witness",
        60,
        t,
        not bad,
        "; ".join(bad[:3]) or f"{len(pairs)} products: bound and witness hold",
    )


def test_criterion_06_hamming_witness():
    with _Timer() as t:
        q3 = cartesian_product(cartesian_product(complete(2), complete(2)), complete(2))
        w = hamming_witness([2, 2, 2])
        valid = is_general_position(distances(q3), w)
        res = gp_exact(q3)
        ok = valid and res.status == EXACT and res.value >= 3
    _finish(
        "C06 Hamming witness on Q_3",
        5,
        t,
        ok,
        f"witness {'valid' if valid else 'INVALID'}; gp(Q_3) = {res.value} >= 3",
    )


def test_criterion_07_join_formula():
    family = {
        "K1": complete(1),
        "K2": complete(2),
        "K3": complete(3),
        "P3": path(3),
        "P4": path(4),
        "C4": cycle(4),
        "E2": edgeless(2),
        "E3": edgeless(3),
    }
    with _Timer() as t:
        bad = []
        for (na, g), (nb, h) in itertools.product(family.items(), repeat=2):
            predicted = gp_join(omega(g).value, omega(h).value, rho(g).value, rho(h).value).value
            actual = gp_exact(join(g, h)).value
            if predicted != actual:
                bad.append(f"{na}+{nb}: predicted {predicted} != gp {actual}")
    _finish(
        "C07 join formula (64 ordered pairs)",
        60,
        t,
        not bad,
        "; ".join(bad[:3]) or "the formula matches the solver on all 64 joins",
    )


def test_criterion_08_corona_formula():
    gs = {"K2": complete(2), "P3": path(3), "K3": complete(3)}
    hs = {"K1": complete(1), "K2": complete(2), "P3": path(3)}
    with _Timer() as t:
        bad = []
        for (na, g), (nb, h) in itertools.product(gs.items(), hs.items()):
            want = g.n * rho(h).value
            res = gp_exact(corona(g, h))
            if res.status != EXACT or res.value != want:
                bad.append(f"{na}o{nb}: {res.value} != {want}")
    _finish(
        "C08 corona formula (9 pairs)",
        120,
        t,
        not bad,
        "; ".join(bad) or "gp(G o H) = n(G) rho(H) on all 9 coronas",
    )


def test_criterion_09_line_graphs_of_kn():
    with _Timer() as t:
        bad, vals = [], []
        for n in range(3, 8):
            want = n if n % 3 == 0 else n - 1
            res = gp_exact(line_graph(complete(n)))
            vals.append(res.value)
            if res.status != EXACT or res.value != want:
                bad.append(f"L(K_{n}): {res.value} != {want}")
    _finish(
        "C09 line graphs of K_n (n=3..7)",
        60,
        t,
        not bad,
        "; ".join(bad) or f"gp(L(K_n)) = {vals}, all exact",
    )


def test_criterion_10_characterization_equivalence():
    graphs = corpus.connected_corpus(count=200, max_n=7)
    graphs += [g for _, g in corpus.named_small(7) if is_connected(g)]
    with _Timer() as t:
        bad, checked = [], 0
        for g in graphs:
            d = distances(g)
            for r in range(g.n + 1):
                for s in itertools.combinations(range(g.n), r):
                    if characterization_check(g, d, s).ok != is_general_position(d, s):
                        bad.append(f"n={g.n} edges={g.edges()} s={s}")
                    checked += 1
    _finish(
        "C10 characterization == definition",
        120,
        t,
        not bad,
        "; ".join(bad[:2]) or f"{len(graphs)} graphs, {checked} subsets, no disagreement",
    )


def test_criterion_11_diameter2_formulas():
    graphs = corpus.diam2_corpus(count=60, max_n=8)
    graphs += [g for _, g in corpus.named_small(8) if diameter(g) == 2]
    with _Timer() as t:
        bad = []
        for g in graphs:
            v = gp_exact(g).value
            r = rho(g).value
            m = max(omega(g).value, eta(g).value)
            if not v == r == m:
                bad.append(f"edges={g.edges()}: gp={v} rho={r} max(omega,eta)={m}")
    _finish(
        "C11 diameter-2: gp = rho = max(omega, eta)",
        120,
        t,
        not bad,
        "; ".join(bad[:2]) or f"{len(graphs)} diameter-2 graphs agree",
    )


def test_criterion_12_oracle_equivalence():
    graphs = corpus.mixed_corpus(count=100, max_n=14)
    with _Timer() as t:
        bad = []
        for g in graphs:
            want, _ = oracles.gp_enum(g.n, g.edges())
            res = gp_exact(g)
            if res.status != EXACT or res.value != want:
                bad.append(f"n={g.n} edges={g.edges()}: {res.value} != {want}")
    _finish(
        "C12 solver == 2^n enumeration (100 graphs)",
        300,
        t,
        not bad,
        "; ".join(bad[:2]) or "all 100 random graphs up to n=14 agree",
    )
