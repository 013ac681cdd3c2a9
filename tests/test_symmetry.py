"""Ground-set actions and the orbit pruning of the gp search.

The orbit masks are compared with orbits enumerated over the whole group;
the pruned search with the plain search on action-free copies; and, in the
stretch run, both with an integer program that shares no code with either.
"""

import itertools
import random

import pytest

from genpos import (
    Budget,
    EXACT,
    Graph,
    GroundAction,
    InputError,
    LOWER_BOUND,
    cartesian_product,
    complement,
    complete,
    corona,
    cycle,
    decode_graph6,
    disjoint_union,
    distances,
    edgeless,
    encode_graph6,
    gp_exact,
    induced_subgraph,
    is_general_position,
    join,
    kneser,
    line_graph,
    path,
    rho,
)
from genpos.graph import _check_action
from genpos.solver import _degree_order, _orbit, _orbit_tables, _refine

import corpus
import oracles

SYMMETRIC = corpus.symmetric_named()


# --- what the constructors attach -----------------------------------------------


def test_constructors_attach_actions():
    assert kneser(5, 2).action.points[0] == 0b00011  # {1,2}
    assert complete(3).action == GroundAction((3,), (1, 2, 4))
    assert line_graph(complete(4)).action.points[0] == 0b0011  # the edge {0,1}
    a = cartesian_product(complete(2), complete(3)).action
    assert a.sizes == (2, 3)
    assert a.points[4] == 0b010_10  # vertex (1, 1): the second factor's block sits above the first's
    a = corpus.hamming(2, 3, 2).action
    assert a.sizes == (2, 3, 2)
    assert a.points[11] == 0b10_100_10  # vertex (1, 2, 1)


@pytest.mark.parametrize(
    "g",
    [
        decode_graph6(encode_graph6(complete(5))),
        Graph(complete(5).n, complete(5).adj),
        join(complete(2), complete(3)),
    ],
    ids=["graph6", "copy", "join"],
)
def test_line_graph_of_any_complete_graph_carries_the_action(g):
    # line_graph reads completeness off the edge count, not off g's action
    assert g.action is None
    assert line_graph(g).action == line_graph(complete(5)).action


@pytest.mark.parametrize(
    "g",
    [
        path(4),
        cycle(5),
        cartesian_product(cycle(4), path(3)),  # neither factor has an action
        line_graph(cycle(5)),
        line_graph(kneser(5, 2)),  # the input is not complete
        join(complete(2), complete(2)),
        disjoint_union(complete(2), complete(2)),
        corona(complete(2), complete(1)),
        cartesian_product(complete(3), cycle(4)),  # one factor has an action
        cartesian_product(path(3), kneser(5, 2)),
        complement(kneser(5, 2)),
        induced_subgraph(kneser(5, 2), range(5)),
    ],
)
def test_other_graphs_have_no_action(g):
    assert g.action is None


def test_action_takes_no_part_in_equality():
    g = kneser(5, 2)
    copy = Graph(g.n, g.adj, g.labels)
    assert copy.action is None
    assert g == copy and hash(g) == hash(copy)
    assert g == Graph.from_edges(g.n, g.edges(), g.labels)


@pytest.mark.parametrize("name,g", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_constructor_actions_pass_the_check(name, g):
    assert g.action is not None
    _check_action(g)  # raises on failure; the constructor already ran it


# --- wrong actions are refused ----------------------------------------------------


def test_action_of_another_labelling_is_refused():
    g = kneser(6, 2)
    perm = list(range(g.n))
    random.Random(3).shuffle(perm)
    with pytest.raises(InputError, match="ground action"):
        Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], action=g.action)


@pytest.mark.parametrize(
    "g,action",
    [
        (cycle(5), complete(5).action),  # (0 1) maps the edge 1-2 to 0-2
        (edgeless(3), GroundAction((3,), (1, 1, 2))),  # shared point
        (edgeless(2), GroundAction((1,), (1, 2))),  # outside the ground set
        (edgeless(3), GroundAction((3,), (1, 2))),  # too few points
        (path(2), GroundAction((3,), (1, 2))),  # (0 1 2) maps vertex 1 to no vertex
        (edgeless(1), GroundAction((-1,), (0,))),  # negative size
        (edgeless(2), GroundAction((2,), ((1,), (2,)))),  # tuple point, not int
        (edgeless(2), GroundAction((2.0,), (1, 2))),  # non-int size
    ],
)
def test_wrong_action_raises(g, action):
    with pytest.raises(InputError, match="ground action"):
        Graph(g.n, g.adj, g.labels, action)


def test_check_runs_inside_the_budget():
    # the action was checked when the graph was built; the zero budget
    # stops the mask precompute before the search starts
    res = gp_exact(kneser(12, 3), Budget(max_ms=0))
    assert (res.value, res.witness, res.status) == (0, (), LOWER_BOUND)


# --- orbit masks against brute force ---------------------------------------------


def _group(a):
    """Every element of the acting group, as one permutation of the ground set."""
    blocks = []
    offset = 0
    for size in a.sizes:
        blocks.append([tuple(offset + e for e in p) for p in itertools.permutations(range(size))])
        offset += size
    return (sum(pi, ()) for pi in itertools.product(*blocks))


def _apply(pi, point):
    return sum(1 << pi[e] for e in range(len(pi)) if point >> e & 1)


ORBIT_GRAPHS = [
    ("K(5,2)", kneser(5, 2)),
    ("K(6,2)", kneser(6, 2)),
    ("K(6,3)", kneser(6, 3)),
    ("K(4,1)", kneser(4, 1)),
    ("L(K6)", line_graph(complete(6))),
    ("E5", edgeless(5)),
    ("K3xK3", corpus.hamming(3, 3)),
    ("K2xK4", corpus.hamming(2, 4)),
    ("K2xK2xK3", corpus.hamming(2, 2, 3)),
    ("K2xK3xK2", corpus.hamming(2, 3, 2)),
]


@pytest.mark.parametrize("name,g", ORBIT_GRAPHS, ids=[name for name, _ in ORBIT_GRAPHS])
def test_orbit_masks_equal_brute_force_orbits(name, g):
    a = g.action
    index = {p: v for v, p in enumerate(a.points)}
    images = [[index[_apply(pi, p)] for p in a.points] for pi in _group(a)]
    _, order = _degree_order(g)
    pos = {v: i for i, v in enumerate(order)}
    xs, M, root, ground = _orbit_tables(a, order)
    rng = random.Random(name)
    prefixes = [()] + [tuple(rng.sample(range(g.n), rng.randint(1, 3))) for _ in range(12)]
    for S in prefixes:
        stab = [img for img in images if all(img[s] == s for s in S)]
        cells = root
        for s in S:
            if cells is not None:
                cells = _refine(cells, xs[pos[s]], ground)
        for x in range(g.n):
            want = {img[x] for img in stab}
            i = pos[x]
            if cells is None:
                got = {x}
            else:
                mask = _orbit((1 << g.n) - 1, xs[i], cells, M)
                got = {order[j] for j in range(g.n) if mask >> j & 1}
            assert got == want, (S, x)


# --- the pruned search against the plain one ----------------------------------------


@pytest.mark.parametrize(
    "name,g,search",
    [pytest.param(name, g, gp_exact, id=name) for name, g in SYMMETRIC]
    + [pytest.param(name, g, rho, id=f"{name}-rho") for name, g in SYMMETRIC],
)
def test_pruning_keeps_value_witness_and_status(name, g, search):
    # pruning never removes the first maximum set in search order, so even
    # the witness is the plain search's; rho runs the same loop on other masks
    pruned, plain = search(g), search(corpus.action_free(g))
    assert (pruned.value, pruned.witness, pruned.status) == (plain.value, plain.witness, plain.status)
    assert pruned.nodes_explored <= plain.nodes_explored


@pytest.mark.parametrize("name,g", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_pruned_search_on_relabelled_copies(name, g):
    # the action relabelled with the graph: the orbits move with the branching order
    rng = random.Random(name)
    want = gp_exact(g).value
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        points = [None] * g.n
        for v, p in enumerate(g.action.points):
            points[perm[v]] = p
        action = GroundAction(g.action.sizes, tuple(points))
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], action=action)
        res = gp_exact(h)
        assert (res.value, res.status) == (want, EXACT)
        assert is_general_position(distances(h), res.witness)


# --- an oracle that shares no code with the search ------------------------------------

# every symmetric corpus graph (n <= 35), products with an action-free
# factor, larger graphs up to n = 56, and graphs with no action, where the
# clique cover does all the pruning
ILP_GRAPHS = SYMMETRIC + [
    ("K3xC4", cartesian_product(complete(3), cycle(4))),
    ("P3xK3", cartesian_product(path(3), complete(3))),
    ("K2xC5", cartesian_product(complete(2), cycle(5))),
    ("E2xP3", cartesian_product(edgeless(2), path(3))),  # disconnected
    ("K(8,3)", kneser(8, 3)),
    ("L(K8)", line_graph(complete(8))),
    ("K6xK6", corpus.hamming(6, 6)),
    ("C6xC6", cartesian_product(cycle(6), cycle(6))),
    ("Q5", corpus.hamming(2, 2, 2, 2, 2)),
    ("corona(C10,P4)", corona(cycle(10), path(4))),
    ("G(30,0.2)", corpus.connected_random(30, 0.2, 30)),
    ("G(36,0.15)", corpus.connected_random(36, 0.15, 36)),
]


@pytest.mark.stretch
@pytest.mark.parametrize("name,g", ILP_GRAPHS, ids=[name for name, _ in ILP_GRAPHS])
def test_ilp_oracle_equals_gp_exact(name, g):
    pytest.importorskip("scipy")
    d = distances(g)
    value, witness = oracles.gp_ilp(d)
    assert is_general_position(d, witness)
    pruned, plain = gp_exact(g), gp_exact(corpus.action_free(g))
    assert (pruned.value, pruned.status) == (value, EXACT)
    assert (plain.value, plain.status) == (value, EXACT)
