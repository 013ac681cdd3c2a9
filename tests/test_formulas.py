from itertools import combinations
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given

from genpos import (
    InputError,
    Prediction,
    alpha,
    cartesian_product,
    cartesian_witness,
    complete,
    cycle,
    distances,
    edgeless,
    ekr_bound,
    gp_cartesian_lower,
    gp_corona,
    gp_exact,
    gp_join,
    gp_kneser2,
    gp_kneser3,
    gp_line_complete,
    hamming_lower,
    hamming_witness,
    is_general_position,
    join,
    kneser,
    kneser_condition,
    kneser_star_witness,
    ksubset_index,
    line_graph,
    omega,
    path,
    rho,
)

import oracles


def _validates(g, witness):
    return is_general_position(distances(g), witness)


def test_prediction_interval_property():
    assert Prediction(True, value=4).interval == (4, 4)
    assert Prediction(True, lower=3, upper=None).interval == (3, None)
    assert Prediction(False, reason="x").interval == (None, None)


def test_kneser_star_witness_ids():
    assert kneser_star_witness(5, 2) == (0, 1, 2, 3)
    assert len(kneser_star_witness(9, 3)) == comb(8, 2)
    # none once K(n, k) passes the order limit: C(718, 2) = 257,403 < 258,048 <= C(719, 2)
    # (was 724 and 725, around 2^18)
    assert len(kneser_star_witness(718, 2)) == 717
    assert kneser_star_witness(719, 2) is None
    big = gp_kneser3(10**19)
    assert (big.value, big.witness) == (comb(10**19 - 1, 2), None)
    # the k-subsets that contain 1 are the first C(n-1, k-1) in lex order
    for n in range(2, 13):
        for k in range(1, n + 1):
            star = sorted(ksubset_index(n, (1,) + rest) for rest in combinations(range(2, n + 1), k - 1))
            assert kneser_star_witness(n, k) == tuple(star)


# --- Kneser predictions --------------------------------------------------------


def test_gp_kneser2_values():
    assert not gp_kneser2(3).applicable
    assert "n >= 4" in gp_kneser2(3).reason
    for n, want in [(4, 6), (5, 6), (6, 6), (7, 6), (8, 7), (9, 8)]:
        assert gp_kneser2(n).value == want


@pytest.mark.parametrize("n", range(4, 9))
def test_gp_kneser2_witness_validates(n):
    pred = gp_kneser2(n)
    assert len(pred.witness) == pred.value
    assert _validates(kneser(n, 2), pred.witness)


def test_gp_kneser3_values():
    assert not gp_kneser3(5).applicable
    assert gp_kneser3(6).value == 20
    assert gp_kneser3(6).witness == tuple(range(20))
    assert gp_kneser3(7).value == 15
    assert gp_kneser3(8).value == 21


@pytest.mark.parametrize("n", [6, 7, 8])
def test_gp_kneser3_witness_validates(n):
    pred = gp_kneser3(n)
    assert len(pred.witness) == pred.value if n > 6 else 20
    assert _validates(kneser(n, 3), pred.witness)


def test_kneser_10_4_is_84_by_katona_circle():
    # gp(K(10,4)) = 84, certified with no code from the solver. Below: the
    # star of 4-sets holding 1. Above: Sym(10) acts on K(10,4) by
    # automorphisms (its action, checked when the graph is built), and
    # transitively, since the points are all 4-subsets of one 10-set. Averaged
    # over the group, a gp set S meets some image of H in at least
    # |S|·|H|/n vertices, and that part of S is in general position, so
    # gp <= n·f(H)/|H| with f(H) the largest subset of H in general position.
    # H is Katona's circle: the 10 cyclic 4-windows of 1..10.
    g = kneser(10, 4)
    d = distances(g)
    star = kneser_star_witness(10, 4)
    assert len(star) == 84 and is_general_position(d, star)
    points = g.action.points
    assert g.action.sizes == (10,) and len(points) == comb(10, 4)
    assert all(p.bit_count() == 4 for p in points)
    circle = [ksubset_index(10, tuple(sorted((s + i) % 10 + 1 for i in range(4)))) for s in range(10)]
    assert len(set(circle)) == 10
    f = max(len(t) for r in range(11) for t in combinations(circle, r) if is_general_position(d, t))
    assert f == 4
    assert g.n * f // len(circle) == 84


def test_kneser_condition():
    assert not kneser_condition(7, 1).applicable
    # (6,2) clears the diameter gate (n >= 3k-1) but fails at t=2: 6 > 5
    assert not kneser_condition(6, 2).applicable
    assert kneser_condition(7, 2).value == 6
    assert kneser_condition(8, 2).value == 7
    bad = kneser_condition(9, 3)
    assert not bad.applicable
    assert "t=2" in bad.reason and "65 > 28" in bad.reason
    assert kneser_condition(20, 3).value == 171


def test_kneser_condition_witness_validates():
    pred = kneser_condition(7, 2)
    assert _validates(kneser(7, 2), pred.witness)


@pytest.mark.parametrize("n", range(7, 11))
def test_kneser_condition_agrees_with_kneser2(n):
    assert kneser_condition(n, 2).value == gp_kneser2(n).value


# --- Cartesian products ----------------------------------------------------------


def test_gp_cartesian_lower_interval():
    pred = gp_cartesian_lower(3, 3)
    assert pred.interval == (4, None)
    pred = gp_cartesian_lower(3, 3, n_g=3, n_h=4)
    assert pred.interval == (4, 12)


SMALL = st.integers(-1, 6)


@given(SMALL, SMALL, st.none() | SMALL, st.none() | SMALL)
def test_gp_cartesian_lower_interval_is_never_empty(gp_g, gp_h, n_g, n_h):
    # a connected factor has 1 <= gp <= n, so an order of 0 or below gp is refused
    pred = gp_cartesian_lower(gp_g, gp_h, n_g, n_h)
    assert not pred.applicable or pred.upper is None or pred.lower <= pred.upper


def test_cartesian_witness_shape_and_validity():
    g, h = path(3), cycle(5)
    sg, sh = (0, 2), (0, 1, 3)
    w = cartesian_witness(g, sg, h, sh, anchor_g=0, anchor_h=0)
    assert len(w) == len(sg) + len(sh) - 2
    assert _validates(cartesian_product(g, h), w)


def test_cartesian_witness_anchor_validation():
    g, h = path(3), cycle(5)
    with pytest.raises(InputError):
        cartesian_witness(g, (0, 2), h, (0, 1, 3), anchor_g=1, anchor_h=0)
    with pytest.raises(InputError):
        cartesian_witness(g, (0, 2), h, (0, 1, 3), anchor_g=0, anchor_h=2)
    with pytest.raises(InputError):
        cartesian_witness(g, (0, 7), h, (0, 1, 3), anchor_g=0, anchor_h=0)


def test_hamming_witness_ids():
    assert hamming_witness([2, 2, 2]) == (1, 2, 4)
    assert hamming_witness([3, 3]) == (1, 2, 3, 6)
    with pytest.raises(InputError):
        hamming_witness([4])
    with pytest.raises(InputError):
        hamming_witness([2, 1])


@pytest.mark.parametrize("ns", [[2, 2], [3, 3], [2, 4], [2, 2, 2], [3, 2, 2]])
def test_hamming_witness_validates(ns):
    g = complete(ns[0])
    for m in ns[1:]:
        g = cartesian_product(g, complete(m))
    w = hamming_witness(ns)
    assert len(w) == sum(ns) - len(ns)
    assert _validates(g, w)


def test_hamming_lower():
    assert hamming_lower([3, 4]).value == 5  # exact for two factors
    pred = hamming_lower([2, 2, 2])
    assert pred.value is None and pred.interval == (3, None)
    assert not hamming_lower([5]).applicable
    assert not hamming_lower([2, 1]).applicable


# --- joins ------------------------------------------------------------------------


def test_gp_join_fan():
    # fan K_1 + P_3: omega 1/2, rho 1/2
    assert gp_join(1, 2, 1, 2).value == 3
    assert gp_exact(join(complete(1), path(3))).value == 3


def test_gp_join_complete_bipartite():
    # K_{2,3} = E_2 + E_3
    assert gp_join(1, 1, 2, 3).value == 3
    assert gp_exact(join(edgeless(2), edgeless(3))).value == 3


def test_gp_join_both_complete():
    # K_2 + K_3 = K_5: the general formula gives n(G) + n(H) with no shortcut
    assert gp_join(2, 3, 2, 3).value == 5
    assert gp_exact(join(complete(2), complete(3))).value == 5


@pytest.mark.parametrize(
    "g,h",
    [
        (complete(2), path(3)),
        (path(4), cycle(4)),
        (edgeless(3), cycle(4)),
        (complete(3), complete(2)),
    ],
)
def test_gp_join_matches_solver(g, h):
    pred = gp_join(omega(g).value, omega(h).value, rho(g).value, rho(h).value)
    assert pred.value == gp_exact(join(g, h)).value


# --- corona -------------------------------------------------------------------------


def test_gp_corona_values():
    assert not gp_corona(1, 3).applicable
    assert gp_corona(2, 1).value == 2
    assert gp_corona(3, 2).value == 6


# --- line graphs of K_n ----------------------------------------------------------------


def test_gp_line_complete_values():
    assert not gp_line_complete(2).applicable
    for n, want in [(3, 3), (4, 3), (5, 4), (6, 6), (7, 6), (8, 7), (9, 9)]:
        assert gp_line_complete(n).value == want


@pytest.mark.parametrize("n", range(3, 8))
def test_gp_line_complete_witness_validates(n):
    pred = gp_line_complete(n)
    g = line_graph(complete(n))
    assert len(pred.witness) == pred.value
    assert _validates(g, pred.witness)


def test_gp_line_complete_witness_shapes():
    # 3 | n: a triangle partition; else the star at vertex 0
    assert gp_line_complete(6).witness == (0, 1, 5, 12, 13, 14)
    assert gp_line_complete(5).witness == (0, 1, 2, 3)


# --- EKR ---------------------------------------------------------------------------------


def test_ekr_bound_values():
    assert ekr_bound(4, 2).value == 3
    assert ekr_bound(6, 3).value == 10
    assert ekr_bound(9, 2).value == 8
    for n, k in [(3, 2), (4, 0)]:
        pred = ekr_bound(n, k)
        assert not pred.applicable and pred.value is None
        assert pred.reason == f"EKR bound needs n >= 2k >= 2, got n={n}, k={k}"


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (6, 3)])
def test_ekr_attained_by_kneser_independence(n, k):
    g = kneser(n, k)
    assert alpha(g).value == ekr_bound(n, k).value
    assert oracles.alpha_enum(g.n, g.edges()) == ekr_bound(n, k).value


# --- negative arguments ------------------------------------------------------------


@pytest.mark.parametrize(
    "pred, reason",
    [
        (gp_join(-4, -4, -1, -1), "needs omega_g >= 0, got -4"),
        (gp_join(1, 1, 2, -3), "needs rho_h >= 0, got -3"),
        (gp_cartesian_lower(3, 3, n_g=-2, n_h=4), "needs n_g >= 0, got -2"),
        (gp_cartesian_lower(-1, 3), "needs gp_g >= 0, got -1"),
        (gp_corona(3, -2), "needs rho_h >= 0, got -2"),
        (gp_corona(-3, 2), "needs n(G) >= 2, got -3"),
    ],
)
def test_negative_arguments_are_not_applicable(pred, reason):
    assert (pred.applicable, pred.value, pred.interval, pred.reason) == (False, None, (None, None), reason)
