import itertools

import pytest
from hypothesis import given, settings

from genpos import (
    Budget,
    EXACT,
    LOWER_BOUND,
    GpResult,
    Graph,
    alpha,
    cartesian_product,
    complement,
    complete,
    corona,
    cycle,
    edgeless,
    eta,
    is_cluster_set,
    kneser,
    line_graph,
    omega,
    path,
    rho,
)

import corpus
import oracles
from strategies import graphs

SAMPLE = corpus.connected_corpus(count=40, max_n=8, seed=11)


# --- agreement with brute force ------------------------------------------------


@pytest.mark.parametrize("i", range(len(SAMPLE)))
def test_omega_alpha_match_oracle(i):
    g = SAMPLE[i]
    assert omega(g).value == oracles.omega_enum(g.n, g.edges())
    assert alpha(g).value == oracles.alpha_enum(g.n, g.edges())


@pytest.mark.parametrize("i", range(len(SAMPLE)))
def test_eta_rho_match_oracle(i):
    g = SAMPLE[i]
    want = oracles.rho_enum(g.n, g.edges())
    assert rho(g).value == want
    assert eta(g).value == want
    assert oracles.eta_enum(g.n, g.edges()) == want


# graphs past enumeration; rho prunes orbits on every one with an action
RHO_ILP_GRAPHS = corpus.symmetric_named() + [
    ("C6xC6", cartesian_product(cycle(6), cycle(6))),
    ("K(8,3)", kneser(8, 3)),
    ("L(K8)", line_graph(complete(8))),
    ("K6xK6", corpus.hamming(6, 6)),
    ("corona(C10,P4)", corona(cycle(10), path(4))),  # no action
    ("P40", path(40)),  # 27
    ("C7xC7", cartesian_product(cycle(7), cycle(7))),  # 24
]


@pytest.mark.stretch
@pytest.mark.parametrize("name,g", RHO_ILP_GRAPHS, ids=[name for name, _ in RHO_ILP_GRAPHS])
def test_ilp_oracle_equals_rho(name, g):
    # an integer program that shares no code with the search loop
    pytest.importorskip("scipy")
    value, witness = oracles.rho_ilp(g.n, list(g.edges()))
    assert is_cluster_set(g, witness)
    res = rho(g)
    assert (res.value, res.status) == (value, EXACT)
    assert is_cluster_set(g, res.witness)


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_rho_of_paths_closed_form(n):
    # rho(P_n) = n - floor(n/3): a cluster set of a path misses a vertex of
    # every three consecutive ones, and dropping every third vertex leaves
    # one. Enumeration checks the form up to n = 12; the search's cover
    # packs the path's forbidden triples, without which P40 takes 1.6 M nodes
    want = n - n // 3
    if n <= 12:
        assert oracles.rho_enum(n, list(path(n).edges())) == want
    res = rho(path(n))
    assert (res.value, res.status) == (want, EXACT)
    assert is_cluster_set(path(n), res.witness)


def test_frozen_small_values():
    # values computed by independent subset enumeration, not by this package
    lk4 = line_graph(complete(4))
    assert eta(lk4).value == 3
    assert rho(lk4).value == 3
    assert omega(lk4).value == 3
    assert alpha(lk4).value == 2
    assert rho(path(3)).value == 2
    assert rho(kneser(4, 2)).value == 6
    assert alpha(kneser(5, 2)).value == 4
    assert omega(kneser(6, 2)).value == 3


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7))
def test_omega_is_alpha_of_complement(g):
    assert omega(g).value == alpha(complement(g)).value


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7))
def test_rho_dominates_omega_and_alpha(g):
    r = rho(g).value
    assert r >= omega(g).value  # one clique qualifies
    assert r >= alpha(g).value  # all-singleton components qualify
    assert eta(g).value == r


# --- witnesses ------------------------------------------------------------------


@pytest.mark.parametrize("i", range(0, len(SAMPLE), 3))
def test_witnesses_have_the_claimed_structure(i):
    g = SAMPLE[i]
    w = omega(g)
    assert len(w.witness) == w.value
    assert all(g.has_edge(u, v) for u, v in itertools.combinations(w.witness, 2))
    a = alpha(g)
    assert len(a.witness) == a.value
    assert not any(g.has_edge(u, v) for u, v in itertools.combinations(a.witness, 2))
    r = rho(g)
    assert len(r.witness) == r.value
    assert is_cluster_set(g, r.witness)


def test_is_cluster_set():
    p3 = path(3)
    assert is_cluster_set(p3, (0, 1))
    assert is_cluster_set(p3, (0, 2))
    assert not is_cluster_set(p3, (0, 1, 2))  # a P_3 is not a cluster
    c5 = cycle(5)
    assert is_cluster_set(c5, (0, 1, 3))
    assert not is_cluster_set(c5, (0, 1, 2))
    assert is_cluster_set(c5, ())


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=7))
def test_is_cluster_set_means_no_induced_p3(g):
    # the definition: no three members spanning exactly two edges
    for r in range(g.n + 1):
        for s in itertools.combinations(range(g.n), r):
            p3 = any(
                g.has_edge(x, y) + g.has_edge(x, z) + g.has_edge(y, z) == 2
                for x, y, z in itertools.combinations(s, 3)
            )
            assert is_cluster_set(g, s) == (not p3), s


def test_degenerate_graphs():
    g0 = Graph.from_edges(0, [])
    for fn in (omega, alpha, eta, rho):
        res = fn(g0)
        assert res.value == 0 and res.witness == () and res.status == EXACT
    assert omega(edgeless(4)).value == 1
    assert alpha(edgeless(4)).value == 4
    assert eta(edgeless(4)).value == 4
    assert rho(complete(5)).value == 5


# --- budgets ---------------------------------------------------------------------


def test_exhausted_budget_returns_lower_bound():
    g = kneser(8, 3)
    res = rho(g, Budget(max_nodes=50))
    assert res.status == LOWER_BOUND
    assert res.nodes_explored <= 50
    assert is_cluster_set(g, res.witness)
    assert len(res.witness) == res.value
    # exact value for this graph is 21; an exhausted run cannot exceed it
    assert 0 <= res.value <= 21


def test_omega_budget_never_raises():
    res = omega(kneser(8, 3), Budget(max_nodes=1))
    assert res.status == LOWER_BOUND
    assert res.value >= 0


def test_determinism():
    g = SAMPLE[5]
    for fn in (omega, alpha, rho):
        a = fn(g)
        b = fn(g)
        assert (a.value, a.witness, a.nodes_explored, a.status) == (
            b.value,
            b.witness,
            b.nodes_explored,
            b.status,
        ), fn.__name__


# --- pinned search trees -------------------------------------------------------------


@pytest.mark.parametrize(
    "fn,g,value,nodes",
    [
        (rho, kneser(7, 3), 20, 127),  # 134 in vertex-id order; 207 before the cover's triple parts; 219 before the frames' tail bound
        (rho, kneser(10, 2), 9, 18),
        (rho, line_graph(complete(8)), 7, 16),  # 17 in vertex-id order; 19 before the frames' tail bound
        (alpha, kneser(8, 3), 21, 63),
        (alpha, kneser(7, 3), 15, 121),
        (omega, kneser(10, 2), 5, 162),
    ],
)
def test_node_counts_pinned(fn, g, value, nodes):
    # any change to the search tree (order, bound, candidate filter) moves these
    res = fn(g)
    assert (res.value, res.status, res.nodes_explored) == (value, EXACT, nodes)


@pytest.mark.parametrize(
    "fn,g,max_nodes,witness",
    [
        (rho, cartesian_product(cycle(6), cycle(6)), 10, (0, 1, 3, 4, 8, 11, 12, 13, 15, 16)),
        (omega, kneser(8, 3), 5, (36, 55)),
        (
            alpha,
            kneser(7, 3),
            40,
            (4, 8, 11, 13, 14, 18, 21, 23, 24, 27, 29, 30, 32, 33, 34),
        ),
    ],
)
def test_budgeted_incumbent_pinned(fn, g, max_nodes, witness):
    # the incumbent held when the node budget runs out, not just its size
    res = fn(g, Budget(max_nodes=max_nodes))
    assert (res.witness, res.value) == (witness, len(witness))
    assert (res.status, res.nodes_explored) == (LOWER_BOUND, max_nodes)


# --- deep searches ---------------------------------------------------------------


@pytest.mark.parametrize("g", [edgeless(1100), complete(1100)], ids=["rho-edgeless", "rho-complete"])
def test_deep_cluster_search(g):
    # the search descends one level per chosen vertex: 1100 levels
    res = rho(g)
    assert (res.value, res.status) == (1100, EXACT)
    assert res.witness == tuple(range(1100))


@pytest.mark.stretch
@pytest.mark.parametrize(
    "fn,g", [(omega, complete(1100)), (alpha, edgeless(1100))], ids=["omega", "alpha"]
)
def test_deep_clique_search(fn, g):
    res = fn(g)
    assert (res.value, res.status) == (1100, EXACT)
    assert res.witness == tuple(range(1100))


def test_result_is_frozen():
    res = omega(path(3))
    with pytest.raises(AttributeError):
        res.value = 7


def test_every_search_returns_one_result_type():
    assert eta is rho  # one function: the largest induced cluster subgraph
    g = kneser(5, 2)
    for fn, method in ((omega, "omega"), (alpha, "alpha"), (rho, "rho"), (eta, "rho")):
        res = fn(g)
        assert isinstance(res, GpResult)
        assert (res.method, res.status) == (method, EXACT)
        assert res.elapsed_ms >= 0
