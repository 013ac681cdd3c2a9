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
from genpos.graph import MAX_SEARCH_N, _check_action
from genpos.solver import _degree_order, _orbit, _orbit_tables, _refine

import corpus
import oracles

SYMMETRIC = corpus.symmetric_named()


# --- what the constructors attach -----------------------------------------------


def test_constructors_attach_actions():
    assert kneser(5, 2).action.points[0] == 0b00011  # {1,2}
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
        decode_graph6(encode_graph6(complete(3))),
        Graph(3, complete(3).adj),
        cycle(3),
        join(complete(1), complete(2)),
    ],
    ids=["graph6", "copy", "cycle", "join"],
)
def test_product_of_any_complete_graph_carries_the_action(g):
    # cartesian_product reads completeness off the edge count, as line_graph does
    assert g.action is None
    assert cartesian_product(g, path(2)).action == corpus.hamming(3, 2).action


@pytest.mark.parametrize(
    "g,sizes,groups",
    [
        (path(4), (4,), ("mirror",)),
        (cycle(5), (5,), ("dihedral",)),
        (cartesian_product(cycle(4), path(3)), (4, 3), ("dihedral", "mirror")),
        (cartesian_product(complete(3), cycle(4)), (3, 4), ("sym", "dihedral")),  # K3 lends Sym(3)
        (cartesian_product(path(3), kneser(5, 2)), (3, 5), ("mirror", "sym")),
        (cartesian_product(cycle(3), path(2)), (3, 2), ("sym", "sym")),  # both factors complete
        (cartesian_product(path(30), path(40)), (30, 40), ("mirror", "mirror")),  # order MAX_SEARCH_N
    ],
    ids=["P4", "C5", "C4xP3", "K3xC4", "P3xK(5,2)", "C3xP2", "P30xP40"],
)
def test_paths_cycles_and_their_products_carry_the_action(g, sizes, groups):
    # a path's point is its vertex and the mirror reverses it; a cycle's
    # point is its vertex and D_n turns and reflects it
    assert (g.action.sizes, g.action.groups) == (sizes, groups)


@pytest.mark.parametrize(
    "g",
    [
        complete(5),
        path(2),  # complete: a product lends it Sym(2)
        cycle(3),  # complete: a product lends it Sym(3)
        path(MAX_SEARCH_N + 1),  # past the searches' order limit
        line_graph(cycle(5)),
        line_graph(kneser(5, 2)),  # the input is not complete
        join(complete(2), complete(2)),
        disjoint_union(complete(2), complete(2)),
        corona(complete(2), complete(1)),
        cycle(MAX_SEARCH_N + 1),
        cartesian_product(path(3), line_graph(cycle(5))),  # one factor has no action
        complement(kneser(5, 2)),
        induced_subgraph(kneser(5, 2), range(5)),
        cartesian_product(path(35), path(35)),  # 1,225 vertices, past the searches' order limit
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
        (cycle(5), GroundAction((5,), (1, 2, 4, 8, 16), ("sym",))),  # (0 1) maps the edge 1-2 to 0-2
        (edgeless(3), GroundAction((3,), (1, 1, 2), ("sym",))),  # shared point
        (edgeless(2), GroundAction((1,), (1, 2), ("sym",))),  # outside the ground set
        (edgeless(3), GroundAction((3,), (1, 2), ("sym",))),  # too few points
        (path(2), GroundAction((3,), (1, 2), ("sym",))),  # (0 1 2) maps vertex 1 to no vertex
        (edgeless(1), GroundAction((-1,), (0,), ("sym",))),  # negative size
        (edgeless(2), GroundAction((2,), ((1,), (2,)), ("sym",))),  # tuple point, not int
        (edgeless(2), GroundAction((2.0,), (1, 2), ("sym",))),  # non-int size
        # a C6 labelled 0-2-4-1-3-5: the turn maps the edge 4-1 to 5-2
        (Graph.from_edges(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)]), cycle(6).action),
        (path(4), GroundAction((4,), path(4).action.points, ("dihedral",))),  # the turn maps 2-3 to 3-0
        (edgeless(2), GroundAction((2,), (3, 1), ("mirror",))),  # a point of two elements
        (edgeless(2), GroundAction((1,), (0, 1), ("mirror",))),  # a point of none; no move to check
        (edgeless(2), GroundAction((2,), (1, 2), ("cyclic",))),  # no such group
        (edgeless(2), GroundAction((2,), (1, 2), ())),  # no group for the block
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


def _block_group(size, group):
    """Every element of one block's group, as a permutation of range(size)."""
    if group == "sym":
        return list(itertools.permutations(range(size)))
    if group == "mirror":
        return [tuple(range(size)), tuple(reversed(range(size)))]
    # D_size: the turns e -> r + e and the reflections e -> r - e
    return [tuple((r + s * e) % size for e in range(size)) for r in range(size) for s in (1, -1)]


def _group(a):
    """Every element of the acting group, as one permutation of the ground set."""
    blocks = []
    offset = 0
    for size, group in zip(a.sizes, a.groups):
        blocks.append([tuple(offset + e for e in p) for p in _block_group(size, group)])
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
    ("K3xK3", corpus.hamming(3, 3)),
    ("K2xK4", corpus.hamming(2, 4)),
    ("K2xK2xK3", corpus.hamming(2, 2, 3)),
    ("K2xK3xK2", corpus.hamming(2, 3, 2)),
    ("C6", cycle(6)),
    ("P5", path(5)),
    ("C5xK3", cartesian_product(cycle(5), complete(3))),
    ("C5xP2", cartesian_product(cycle(5), path(2))),
    ("P4xC6", cartesian_product(path(4), cycle(6))),
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
    # every pair: after (0, 0) and (0, 1) in C5 x K3 the Sym cells are all
    # singletons while the reflection fixing 0 still moves the cycle
    pairs = list(itertools.combinations(range(g.n), 2))
    prefixes = [()] + pairs + [tuple(rng.sample(range(g.n), rng.randint(1, 3))) for _ in range(12)]
    for S in prefixes:
        stab = [img for img in images if all(img[s] == s for s in S)]
        state = root
        for s in S:
            if state is not None:
                state = _refine(state, xs[pos[s]], ground)
        for x in range(g.n):
            want = {img[x] for img in stab}
            i = pos[x]
            if state is None:
                got = {x}
            else:
                mask = _orbit((1 << g.n) - 1, xs[i], state, M)
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
        action = GroundAction(g.action.sizes, tuple(points), g.action.groups)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], action=action)
        res = gp_exact(h)
        assert (res.value, res.status) == (want, EXACT)
        assert is_general_position(distances(h), res.witness)


# --- an oracle that shares no code with the search ------------------------------------

# every symmetric corpus graph (n <= 35), products of complete graphs with
# paths and cycles, a product with an edgeless factor, larger graphs up to
# n = 56, and graphs with no action, where the clique cover does all the
# pruning
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
    # the shapes the benchmark times: its diam2 references come from gp_exact
    ("G(40,0.5)", corpus.connected_random(40, 0.5, 1)),  # diameter 2
    ("G(40,0.2)", corpus.connected_random(40, 0.2, 2)),
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
