"""Deterministic graph corpora shared by the property and acceptance tests.

Seeds are fixed so corpus membership never drifts between runs; tests that
freeze oracle values rely on that.
"""

import itertools
import random

from genpos import (
    Graph,
    cartesian_product,
    complete,
    corona,
    cycle,
    diameter,
    disjoint_union,
    edgeless,
    is_connected,
    join,
    kneser,
    line_graph,
    path,
)


def random_graph(n, p, rng):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def connected_random(n, p, seed):
    """The first connected G(n, p) drawn from the seed."""
    rng = random.Random(seed)
    while True:
        g = random_graph(n, p, rng)
        if is_connected(g):
            return g


def connected_corpus(count=200, max_n=7, seed=20260826):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        g = random_graph(n, rng.uniform(0.25, 0.9), rng)
        if is_connected(g):
            out.append(g)
    return out


def diam2_corpus(count=60, max_n=8, seed=4711):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, max_n)
        g = random_graph(n, rng.uniform(0.3, 0.8), rng)
        if diameter(g) == 2:
            out.append(g)
    return out


def mixed_corpus(count=100, max_n=14, seed=97):
    # disconnected graphs welcome: the solver's infinity handling is under test
    rng = random.Random(seed)
    return [
        random_graph(rng.randint(1, max_n), rng.uniform(0.05, 0.95), rng)
        for _ in range(count)
    ]


def named_small(max_n=7):
    """Instances of every construction family, filtered to <= max_n vertices."""
    builds = {
        "K1": complete(1),
        "K2": complete(2),
        "K4": complete(4),
        "K7": complete(7),
        "E3": edgeless(3),
        "P2": path(2),
        "P4": path(4),
        "P7": path(7),
        "C3": cycle(3),
        "C4": cycle(4),
        "C5": cycle(5),
        "C7": cycle(7),
        "K(4,2)": kneser(4, 2),
        "K(5,2)": kneser(5, 2),
        "K2xK3": cartesian_product(complete(2), complete(3)),
        "P3xP3": cartesian_product(path(3), path(3)),
        "K1+P3": join(complete(1), path(3)),
        "K23": join(edgeless(2), edgeless(3)),
        "K2+K2": join(complete(2), complete(2)),
        "P3|P3": disjoint_union(path(3), path(3)),
        "K2oK1": corona(complete(2), complete(1)),
        "K2oP3": corona(complete(2), path(3)),
        "L(K4)": line_graph(complete(4)),
        "L(P5)": line_graph(path(5)),
        "L(C6)": line_graph(cycle(6)),
    }
    return [(name, g) for name, g in builds.items() if g.n <= max_n]


def hamming(*ns):
    """K_n1 □ ... □ K_nd."""
    g = complete(ns[0])
    for n in ns[1:]:
        g = cartesian_product(g, complete(n))
    return g


def action_free(g):
    """The same graph without its ground-set action: the search on it is unpruned."""
    return Graph(g.n, g.adj, g.labels)


def symmetric_named():
    """Graphs with a constructor's action, one per family the pruning handles."""
    builds = {
        "C3xC3": cartesian_product(cycle(3), cycle(3)),
        "P2xP2xP2": cartesian_product(cartesian_product(path(2), path(2)), path(2)),
        "K(4,2)": kneser(4, 2),  # 3K_2, disconnected
        "K(5,2)": kneser(5, 2),
        "K(6,2)": kneser(6, 2),
        "K(7,2)": kneser(7, 2),
        "K(6,3)": kneser(6, 3),
        "K(7,3)": kneser(7, 3),
        "K(5,1)": kneser(5, 1),
        "L(K3)": line_graph(complete(3)),
        "L(K5)": line_graph(complete(5)),
        "L(K6)": line_graph(complete(6)),
        "L(K7)": line_graph(complete(7)),
        "K2xK3": hamming(2, 3),
        "K3xK3": hamming(3, 3),
        "K3xK4": hamming(3, 4),
        "K4xK4": hamming(4, 4),
        "K5xK5": hamming(5, 5),
        "K2xK2xK3": hamming(2, 2, 3),
        "Q4": hamming(2, 2, 2, 2),
        "K(5,2)xK2": cartesian_product(kneser(5, 2), complete(2)),
        "L(K4)xK2": cartesian_product(line_graph(complete(4)), complete(2)),
        "C8": cycle(8),
        "C5xC5": cartesian_product(cycle(5), cycle(5)),
        "C6xP3": cartesian_product(cycle(6), path(3)),
        "P4xP5": cartesian_product(path(4), path(5)),
        "C5xK3": cartesian_product(cycle(5), complete(3)),
        "C5xP2": cartesian_product(cycle(5), path(2)),
        "P8xP3": cartesian_product(path(8), path(3)),
    }
    return list(builds.items())
