import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genpos import (
    Graph,
    InputError,
    cartesian_product,
    complete,
    connected_components,
    corona,
    cycle,
    decode_graph6,
    disjoint_union,
    distances,
    edgeless,
    encode_graph6,
    join,
    kneser,
    ksubset_index,
    ksubsets,
    line_graph,
    path,
)

from strategies import graphs


# --- elementary families -----------------------------------------------------


def test_complete_and_edgeless():
    assert complete(4).edge_count == 6
    assert complete(1).n == 1
    assert edgeless(5).edge_count == 0


def test_path_and_cycle_shapes():
    assert path(1).edge_count == 0
    assert path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert cycle(3).adj == complete(3).adj
    assert cycle(5).edge_count == 5
    assert all(cycle(5).degree(v) == 2 for v in range(5))


def test_small_family_validation():
    with pytest.raises(InputError):
        path(0)
    with pytest.raises(InputError):
        cycle(2)
    with pytest.raises(InputError):
        complete(0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: path(5),
        lambda: cycle(5),
        lambda: complete(4),
        lambda: kneser(5, 2),
        lambda: cartesian_product(complete(3), path(3)),
        lambda: join(path(3), cycle(4)),
        lambda: disjoint_union(path(3), cycle(4)),
        lambda: corona(cycle(3), path(2)),
        lambda: line_graph(complete(4)),
        lambda: decode_graph6(encode_graph6(kneser(5, 2))),
    ],
    ids=["path", "cycle", "complete", "kneser", "cartesian_product", "join", "disjoint_union", "corona", "line_graph", "graph6"],
)
def test_edges_and_labels_stream_into_from_edges(build, monkeypatch):
    # Graph.from_edges checks the order first, so nothing is listed before
    # that check only if the edges and labels arrive as iterators
    lazy = []
    from_edges = Graph.from_edges.__func__

    def spy(cls, n, edges, labels=None, action=None):
        lazy.append(iter(edges) is edges and (labels is None or iter(labels) is labels))
        return from_edges(cls, n, edges, labels, action)

    monkeypatch.setattr(Graph, "from_edges", classmethod(spy))
    build()
    assert lazy and all(lazy)


@pytest.mark.parametrize(
    "build, edges",
    [(lambda: kneser(16, 8), 6435), (lambda: line_graph(path(20000)), 19998)],
    ids=["K(16,8)", "L(P20000)"],
)
def test_constructors_work_in_proportion_to_their_edges(build, edges):
    # 12,870 and 19,999 vertices: a scan of every vertex pair takes seconds
    t0 = time.perf_counter()
    g = build()
    assert time.perf_counter() - t0 < 1.0
    assert g.edge_count == edges


# --- k-subset machinery ------------------------------------------------------


def test_ksubsets_lexicographic():
    assert ksubsets(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 9) for k in range(1, n + 1)])
def test_ksubset_index_inverts_ksubsets(n, k):
    subs = ksubsets(n, k)
    assert [ksubset_index(n, s) for s in subs] == list(range(len(subs)))


# --- Kneser graphs ------------------------------------------------------------


def test_petersen():
    g = kneser(5, 2)
    assert g.n == 10
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.labels[0] == "{1,2}"
    assert g.has_edge(0, g.labels.index("{3,4}"))


def test_kneser_4_2_is_perfect_matching():
    g = kneser(4, 2)
    assert g.edge_count == 3
    assert all(g.degree(v) == 1 for v in range(6))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 11) for k in range(1, n // 2 + 1)])
def test_kneser_regularity(n, k):
    g = kneser(n, k)
    assert g.n == comb(n, k)
    want = comb(n - k, k)
    assert all(g.degree(v) == want for v in range(g.n))


def test_kneser_matches_its_definition():
    # edges listed per subset against a scan of every pair for disjointness
    for n in range(1, 10):
        for k in range(1, n + 1):
            subsets = [set(s) for s in itertools.combinations(range(1, n + 1), k)]
            want = [(i, j) for i, j in itertools.combinations(range(len(subsets)), 2) if not subsets[i] & subsets[j]]
            assert kneser(n, k).edges() == want


# --- products, joins, unions --------------------------------------------------


def test_k2_square_k2_is_c4():
    g = cartesian_product(complete(2), complete(2))
    assert g.n == 4 and g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_product_labels():
    g = cartesian_product(path(2), path(3))
    assert g.labels == ("(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)")


@settings(max_examples=30, deadline=None)
@given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5))
def test_product_distances_add(g, h):
    prod = cartesian_product(g, h)
    dg, dh, dp = distances(g), distances(h), distances(prod)
    for a, b in itertools.product(range(g.n), range(h.n)):
        for c, d in itertools.product(range(g.n), range(h.n)):
            assert dp[a * h.n + b][c * h.n + d] == dg[a][c] + dh[b][d]


def test_join_is_complete_bipartite_on_edgeless():
    g = join(edgeless(2), edgeless(3))
    assert g.n == 5
    assert g.edge_count == 6
    assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]


def test_join_of_completes_is_complete():
    assert join(complete(2), complete(3)).adj == complete(5).adj


@given(graphs(max_n=5), graphs(max_n=5))
def test_join_and_union_edge_counts(g, h):
    assert join(g, h).edge_count == g.edge_count + h.edge_count + g.n * h.n
    u = disjoint_union(g, h)
    assert u.edge_count == g.edge_count + h.edge_count
    assert u.n == g.n + h.n


def test_disjoint_union_components():
    u = disjoint_union(cycle(3), path(2))
    assert connected_components(u) == [(0, 1, 2), (3, 4)]


# --- corona -------------------------------------------------------------------


def test_corona_k2_k1_is_p4():
    g = corona(complete(2), complete(1))
    # centers 0,1 adjacent; leaf 2 on 0, leaf 3 on 1
    assert g.n == 4
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]


def test_corona_counts():
    g = corona(path(3), cycle(3))
    assert g.n == 3 * (1 + 3)
    assert g.edge_count == 2 + 3 * (3 + 3)


def test_corona_layout():
    g = corona(complete(2), path(2))
    # copy i of H occupies n(G) + i*n(H) ..; centers come first
    assert g.has_edge(0, 2) and g.has_edge(0, 3)
    assert g.has_edge(1, 4) and g.has_edge(1, 5)
    assert not g.has_edge(0, 4)
    assert g.has_edge(2, 3) and g.has_edge(4, 5)


def test_corona_needs_centers():
    from genpos import Graph

    with pytest.raises(InputError):
        corona(Graph.from_edges(0, []), complete(2))


# --- line graphs ----------------------------------------------------------------


def test_line_graph_of_k4():
    g = line_graph(complete(4))
    assert g.n == 6
    assert all(g.degree(v) == 4 for v in range(6))
    assert g.labels == ("{0,1}", "{0,2}", "{0,3}", "{1,2}", "{1,3}", "{2,3}")


def test_line_graph_of_path_and_cycle():
    assert line_graph(path(5)).edges() == path(4).edges()
    lc = line_graph(cycle(6))
    assert lc.n == 6 and all(lc.degree(v) == 2 for v in range(6))


@pytest.mark.parametrize("n", range(3, 9))
def test_line_graph_of_kn_degrees(n):
    g = line_graph(complete(n))
    assert g.n == comb(n, 2)
    assert all(g.degree(v) == 2 * (n - 2) for v in range(g.n))


@given(graphs(max_n=7))
def test_line_graph_edge_count(g):
    lg = line_graph(g)
    assert lg.n == g.edge_count
    assert lg.edge_count == sum(comb(g.degree(v), 2) for v in range(g.n))


@given(graphs(max_n=8))
def test_line_graph_matches_its_definition(g):
    # edges paired at each vertex against a scan of every pair for a shared end
    ends = g.edges()
    want = [(i, j) for i, j in itertools.combinations(range(len(ends)), 2) if set(ends[i]) & set(ends[j])]
    assert line_graph(g).edges() == want
