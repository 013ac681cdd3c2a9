import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from genpos import (
    Graph,
    INFINITY,
    InputError,
    complement,
    complete,
    connected_components,
    cycle,
    diameter,
    disjoint_union,
    distances,
    induced_subgraph,
    is_connected,
    is_general_position,
    path,
    vertex_set,
)

import oracles
from strategies import graphs


def test_vertex_set_sorts_and_dedupes():
    assert vertex_set([3, 1, 1, 2]) == (1, 2, 3)
    assert vertex_set([]) == ()


def test_vertex_set_range_check():
    with pytest.raises(InputError):
        vertex_set([0, 5], n=5)
    with pytest.raises(InputError):
        vertex_set([-1])
    with pytest.raises(InputError):
        vertex_set([True])  # bools are not vertex ids
    with pytest.raises(InputError):
        vertex_set([1, "a"])  # checked before sorting, which would raise TypeError
    with pytest.raises(InputError):
        is_general_position(distances(path(2)), [0, "x"])
    with pytest.raises(InputError):
        Graph(2, (frozenset({True}), frozenset({0})))  # one rule: Graph refuses what vertex_set refuses
    with pytest.raises(InputError):
        path(2).neighbors(True)


def test_from_edges_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, "a")])
    with pytest.raises(InputError):
        Graph(2, (frozenset({"a"}), frozenset()))
    with pytest.raises(InputError, match="adjacency has 1 rows for n=2"):
        Graph(2, (frozenset(),))
    # each of these built, and then could not be written and read back or searched
    with pytest.raises(InputError):
        Graph.from_edges(2, [(True, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 1)], labels=[1, None])
    with pytest.raises(InputError):
        Graph(2.0, (frozenset(), frozenset()))
    with pytest.raises(InputError):
        Graph.from_edges(2.0, [])
    with pytest.raises(InputError):
        Graph.from_edges(True, [])


def test_order_limit():
    # every graph that builds has a 1-byte or a '~' plus 3-byte graph6
    # header; from_edges checks the count before it allocates a set per vertex
    # (was [0, 262144) for 1 << 18, which admitted orders needing '~~')
    with pytest.raises(InputError, match=r"\[0, 258048\)"):
        Graph.from_edges(258048, [])
    # a count too long for Python to print still gets a printable error
    with pytest.raises(InputError, match="got one of more than"):
        Graph.from_edges(10**5000, [])


def test_adjacency_must_be_symmetric():
    with pytest.raises(InputError):
        Graph(2, (frozenset({1}), frozenset()))


def test_labels_length_checked():
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 1)], labels=["a"])


def test_edges_lexicographic():
    g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]
    assert g.edge_count == 3


def test_basic_accessors():
    g = cycle(4)
    assert g.degree(0) == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(2, 2)
    with pytest.raises(InputError):
        g.neighbors(4)


def test_distances_path_and_cycle():
    d = distances(path(4))
    assert d[0][3] == 3
    assert d[1][2] == 1
    d = distances(cycle(6))
    assert d[0][3] == 3
    assert d[0][5] == 1
    assert distances(path(2)) == ((0, 1), (1, 0))  # plain rows


def test_distances_disconnected():
    g = disjoint_union(complete(2), complete(3))
    d = distances(g)
    assert d[0][2] == INFINITY
    assert d[0][4] == INFINITY
    assert d[0][1] != INFINITY
    # the sentinel must absorb, not overflow
    assert d[0][2] + 1 == INFINITY


@settings(max_examples=60)
@given(graphs(max_n=8))
def test_distances_match_floyd_warshall(g):
    d = distances(g)
    ref = oracles.dist_matrix(g.n, g.edges())
    for u in range(g.n):
        for v in range(g.n):
            assert d[u][v] == ref[u][v]


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(5), 4),
        (cycle(6), 3),
        (complete(4), 1),
        (complete(1), 0),
        (Graph.from_edges(0, []), 0),
        (disjoint_union(complete(1), complete(1)), INFINITY),
    ],
)
def test_diameter(g, expected):
    assert diameter(g) == expected


@settings(max_examples=100)
@given(st.one_of(graphs(max_n=12), st.builds(disjoint_union, graphs(max_n=6), graphs(min_n=1, max_n=6))))
@example(Graph.from_edges(0, []))
@example(Graph.from_edges(1, []))
@example(Graph.from_edges(5, []))
def test_diameter_is_the_largest_distance(g):
    # the bitset BFS against the rows of distances(), on random, disconnected
    # and empty graphs
    assert diameter(g) == max((max(row) for row in distances(g)), default=0)


def test_complement_involution():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (1, 4)])
    assert complement(complement(g)).adj == g.adj


def test_complement_of_c5_is_c5():
    h = complement(cycle(5))
    assert h.edge_count == 5
    assert all(h.degree(v) == 2 for v in range(5))
    assert is_connected(h)


@given(graphs(max_n=7))
def test_complement_edge_counts(g):
    assert g.edge_count + complement(g).edge_count == g.n * (g.n - 1) // 2


def test_induced_subgraph_relabels():
    g = path(5)
    h = induced_subgraph(g, [1, 3, 4])
    # 1 is isolated after relabeling; 3-4 survives as 1-2
    assert h.n == 3
    assert h.edges() == [(1, 2)]


def test_induced_subgraph_keeps_labels():
    g = Graph.from_edges(3, [(0, 1)], labels=["a", "b", "c"])
    h = induced_subgraph(g, [0, 2])
    assert h.labels == ("a", "c")


def test_connected_components_ordered_by_min():
    g = Graph.from_edges(6, [(5, 1), (2, 4)])
    assert connected_components(g) == [(0,), (1, 5), (2, 4), (3,)]
    assert not is_connected(g)
    assert is_connected(cycle(5))
    assert is_connected(Graph.from_edges(0, []))


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_infinity_is_float_inf():
    # the one property the solvers lean on everywhere
    assert INFINITY == math.inf
    assert 3 + INFINITY == INFINITY
