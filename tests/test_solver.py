import itertools
import random
import time
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import genpos
from genpos import (
    Budget,
    CliquePartition,
    EXACT,
    Graph,
    InputError,
    LOWER_BOUND,
    Violation,
    cartesian_product,
    characterization_check,
    complete,
    corona,
    cycle,
    disjoint_union,
    distances,
    edgeless,
    gp_exact,
    is_cluster_set,
    is_general_position,
    join,
    kneser,
    line_graph,
    omega,
    path,
    rho,
)
from genpos.budget import SearchClock
from genpos.invariants import _p3_masks
from genpos.solver import _conflict_masks, _cover, _degree_order

import corpus
import oracles
from strategies import connected_graphs, graphs

MIXED = corpus.mixed_corpus(count=40, max_n=10, seed=31)


# --- the definition -----------------------------------------------------------


def test_is_general_position_basics():
    d = distances(path(4))
    assert is_general_position(d, (0, 3))
    assert not is_general_position(d, (0, 1, 2))  # 1 lies between 0 and 2
    assert is_general_position(d, ())
    assert is_general_position(d, (2,))
    d = distances(cycle(4))
    assert not is_general_position(d, (0, 1, 2))
    assert is_general_position(d, (0, 1))


def test_infinite_distances_never_violate():
    # two K_2 components: every triple leaves a component, so all 4 vertices fit
    g = disjoint_union(complete(2), complete(2))
    d = distances(g)
    assert is_general_position(d, (0, 1, 2, 3))


def test_duplicate_members_collapse():
    d = distances(path(4))
    assert is_general_position(d, (0, 0, 3))


# --- exact solver vs brute force ------------------------------------------------


@pytest.mark.parametrize("i", range(len(MIXED)))
def test_gp_exact_matches_enumeration(i):
    g = MIXED[i]
    want, _ = oracles.gp_enum(g.n, g.edges())
    res = gp_exact(g)
    assert res.status == EXACT
    assert res.value == want
    assert len(res.witness) == res.value
    assert is_general_position(distances(g), res.witness)


@pytest.mark.parametrize(
    "g,value",
    [
        (complete(5), 5),
        (complete(1), 1),
        (path(2), 2),
        (path(5), 2),
        (cycle(4), 2),
        (cycle(5), 3),
        (kneser(5, 2), 6),
        (kneser(4, 2), 6),  # disconnected: all of 3K_2
        (join(edgeless(2), edgeless(3)), 3),
        (cartesian_product(cartesian_product(complete(2), complete(2)), complete(2)), 4),
    ],
)
def test_known_values(g, value):
    assert gp_exact(g).value == value


def test_empty_graph():
    res = gp_exact(Graph.from_edges(0, []))
    assert res.value == 0 and res.witness == () and res.status == EXACT


@pytest.mark.parametrize(
    "g,value,nodes",
    [
        pytest.param(corpus.action_free(kneser(7, 3)), 15, 307, id="K(7,3)-action-free"),  # 403; 838; 6,569
        pytest.param(cartesian_product(cycle(6), cycle(6)), 6, 368, id="C6xC6"),  # 368; 799; 8,850
        pytest.param(corona(cycle(10), path(4)), 30, 5219, id="corona(C10,P4)"),  # 51,677
    ],
)
def test_node_counts_pinned(g, value, nodes):
    # any change to the search tree (order, bound, masks) moves these counts;
    # the comments give them before the cover's triple parts, before the
    # frames' tail bound, then with |chosen| + |candidates| as the only bound
    res = gp_exact(g)
    assert (res.value, res.status, res.nodes_explored) == (value, EXACT, nodes)


@pytest.mark.parametrize(
    "g,value,nodes",
    [
        pytest.param(kneser(8, 3), 21, 314, id="K(8,3)"),  # 906; 1,272; 47,963; 1,419,313
        pytest.param(line_graph(complete(12)), 12, 103, id="L(K12)"),  # 104; 114; 1,529,860; 13,919,095
        pytest.param(cartesian_product(complete(7), complete(7)), 12, 160, id="K7xK7"),  # 192; 192; 375,607; 3,982,281
    ],
)
def test_pruned_node_counts_pinned(g, value, nodes):
    # the orbit pruning's tree: any change to the cells or the orbits moves
    # these; the comments give them before the cover's triple parts, then
    # before the frames' tail bound: with the action, without it, and
    # without it with |chosen| + |candidates| as the only bound
    res = gp_exact(g)
    assert (res.value, res.status, res.nodes_explored) == (value, EXACT, nodes)


@pytest.mark.parametrize(
    "g,witness",
    [
        pytest.param(corpus.action_free(kneser(7, 3)), tuple(range(15)), id="K(7,3)-action-free"),
        pytest.param(cartesian_product(cycle(6), cycle(6)), (0, 3, 13, 16, 26, 29), id="C6xC6"),
        pytest.param(cartesian_product(path(10), path(10)), (2, 11, 13, 22), id="P10xP10"),
        pytest.param(
            corona(cycle(10), path(4)),
            (
                10, 11, 13, 14, 15, 17, 18, 19, 21, 22, 23, 25, 26, 27, 29,
                30, 31, 33, 34, 35, 37, 38, 39, 41, 42, 43, 45, 46, 47, 49,
            ),
            id="corona(C10,P4)",
        ),
    ],
)
def test_witnesses_pinned(g, witness):
    # the first maximum set in branching order; the bounds cut only subtrees
    # that cannot beat the incumbent, so no bound may move it
    res = gp_exact(g)
    assert (res.witness, res.status) == (witness, EXACT)


def test_kneser_9_4_exact():
    # no closed form covers K(9,4) (n < 3k - 1); the pruned search settles it,
    # in 26,124 nodes without the frames' tail bound
    res = gp_exact(kneser(9, 4))
    assert (res.value, res.status, res.nodes_explored) == (26, EXACT, 5185)
    assert res.witness == (
        0, 1, 2, 3, 4, 5, 36, 37, 38, 39, 52, 53, 54, 55,
        75, 76, 77, 84, 85, 86, 98, 99, 100, 101, 102, 103,
    )
    assert is_general_position(distances(kneser(9, 4)), res.witness)


def test_deep_search_on_isolated_vertices():
    # the search descends one level per chosen vertex: 1100 levels
    res = gp_exact(edgeless(1100))
    assert (res.value, res.status) == (1100, EXACT)
    assert res.witness == tuple(range(1100))


@pytest.mark.stretch
def test_deep_search_on_large_clique():
    res = gp_exact(complete(1100))
    assert (res.value, res.status) == (1100, EXACT)


# --- conflict masks -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12))
@example(edgeless(5))
@example(disjoint_union(disjoint_union(path(4), complete(1)), cycle(5)))
@example(disjoint_union(complete(3), complete(2)))
@example(path(12))
@example(cycle(12))
@example(cartesian_product(path(3), path(4)))
@example(corona(cycle(4), path(2)))
@example(disjoint_union(path(6), cycle(6)))
def test_conflict_masks_match_definition(g):
    # level-built masks, on the bits the search uses, against a triple scan
    # of the distance matrix; internal vertex i is order[i]
    d = distances(g)
    bits, order = _degree_order(g)
    blocked = _conflict_masks(bits, SearchClock())
    for a, b in itertools.permutations(range(g.n), 2):
        want = sum(
            1 << y
            for y in range(g.n)
            if y not in (a, b) and oracles.violating(d, order[a], order[b], order[y])
        )
        assert blocked[a][b] == want, (a, b)


@pytest.mark.parametrize(
    "g",
    [
        path(30),
        cycle(31),
        cartesian_product(path(5), path(6)),
        corpus.hamming(2, 2, 2, 2, 2),
    ],
    ids=["P30", "C31", "P5xP6", "Q5"],
)
def test_conflict_masks_on_long_geodesics(g):
    # eccentricities up to 30, so both interval recurrences run for many
    # levels; checked against a triple scan of Floyd-Warshall distances.
    # Each unordered pair holds one mask object, shared by both its entries.
    n = g.n
    bits, order = _degree_order(g)
    blocked = _conflict_masks(bits, SearchClock())
    d = oracles.dist_matrix(n, list(g.edges()))
    for a, b in itertools.combinations(range(n), 2):
        want = sum(
            1 << y for y in range(n) if y not in (a, b) and oracles.violating(d, order[a], order[b], order[y])
        )
        assert blocked[a][b] == want, (a, b)
        assert blocked[a][b] is blocked[b][a], (a, b)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12))
@example(edgeless(5))
@example(complete(4))
@example(disjoint_union(path(3), cycle(5)))
def test_p3_masks_match_definition(g):
    # rho's masks against a triple scan of the edge list: y is in mask(a, b)
    # exactly when {a, b, y} spans two edges; internal vertex i is order[i]
    edges = {frozenset(e) for e in g.edges()}
    bits, order = _degree_order(g)
    blocked = _p3_masks(bits, SearchClock())
    for a, b in itertools.permutations(range(g.n), 2):
        want = 0
        for y in range(g.n):
            pairs = ((a, b), (a, y), (b, y))
            if y not in (a, b) and sum(frozenset((order[u], order[v])) in edges for u, v in pairs) == 2:
                want |= 1 << y
        assert blocked[a][b] == want, (a, b)


def _check_cover(g, rnd, masks, ok):
    # for sets S with no forbidden triple (ok) and the vertices C that each
    # keep S so, the cover never fits in less room than the largest T with
    # ok(T) and S <= T <= S + C needs beyond S; and when it does not fit,
    # its tops at or above each x in C are at least as many as the largest
    # such T needs inside the y >= x of C, the tail bound of the child's
    # frame. The table is built as the search keeps it, with S's last vertex
    # x split off; T comes from enumeration. Internal vertex i is order[i].
    n = g.n
    bits, order = _degree_order(g)
    blocked = masks(bits, SearchClock())
    for _ in range(4):
        S = []
        for v in rnd.sample(range(n), rnd.randint(0, n)):
            if ok(S + [v]):
                S.append(v)
        C = [v for v in range(n) if v not in S and ok(S + [v])]
        need = len(oracles.largest_extension(ok, S, C)) - len(S)
        P, bx = [0] * n, [0] * n
        if S:
            *rest, x = S
            bx = blocked[x]
            for s in rest:
                P = [p | b for p, b in zip(P, blocked[s])]
        tail_need = {x: len(oracles.largest_extension(ok, S, [y for y in C if y >= x])) - len(S) for x in C}
        mask = sum(1 << v for v in C)
        for room in range(len(C) + 1):
            Q = [None] * n
            tops = _cover(mask, P, bx, room, Q, blocked, bits)
            if room == len(C):
                assert tops == 0, S
            if not tops:
                assert room >= need, (S, room)
                continue
            # the child opens with its whole table and the tops of its cover
            assert all(Q[y] == P[y] | bx[y] for y in C), (S, room)
            assert all((tops >> x).bit_count() >= tail_need[x] for x in C), (S, room)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10), st.randoms(use_true_random=False))
@example(path(9), random.Random(0))
def test_clique_cover_bounds_every_extension(g, rnd):
    # gp's cover, against general position sets over Floyd-Warshall distances
    _, order = _degree_order(g)
    d = oracles.dist_matrix(g.n, list(g.edges()))
    d = [[d[i][j] for j in order] for i in order]
    _check_cover(g, rnd, _conflict_masks, lambda t: oracles.is_gp(d, t))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10), st.randoms(use_true_random=False))
@example(path(9), random.Random(0))
def test_cover_bounds_every_cluster_extension(g, rnd):
    # rho's cover, on the induced-P3 masks, against cluster sets
    _, order = _degree_order(g)
    edges = {frozenset(e) for e in g.edges()}
    a = [[frozenset((i, j)) in edges for j in order] for i in order]
    _check_cover(g, rnd, _p3_masks, lambda t: oracles.is_cluster(a, t))


# --- budgets ------------------------------------------------------------------


def test_budget_exhaustion_gives_valid_lower_bound():
    g = kneser(6, 2)
    res = gp_exact(g, Budget(max_nodes=5))
    assert res.status == LOWER_BOUND
    assert res.nodes_explored == 5
    assert is_general_position(distances(g), res.witness)
    assert res.value <= 6  # true gp, frozen from enumeration


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(graphs(max_n=10), st.sampled_from([g for _, g in corpus.symmetric_named()])),
    st.integers(0, 300),
)
def test_every_result_under_a_node_budget_is_a_certificate(g, m):
    # a search stopped anywhere, the pruned gp search partway through an
    # orbit included, returns a witness of its value that is valid
    budget = Budget(max_nodes=m)
    res, full = gp_exact(g, budget), gp_exact(g).value
    assert len(res.witness) == res.value
    assert is_general_position(distances(g), res.witness)
    assert res.value <= full
    if res.status == EXACT:
        assert res.value == full
    r = rho(g, budget)
    assert len(r.witness) == r.value and is_cluster_set(g, r.witness)
    w = omega(g, budget)
    assert len(w.witness) == w.value
    assert all(g.has_edge(u, v) for u, v in itertools.combinations(w.witness, 2))


@pytest.mark.parametrize(
    "n, k, want",
    [(n, 3, comb(n - 1, 2)) for n in range(7, 12)] + [(n, 2, n - 1) for n in range(7, 11)],
)
def test_kneser_star_size_reached_early(n, k, want):
    # the search finds a set as large as the star within 50 nodes, so seeding
    # it with the star would save it almost nothing
    assert gp_exact(kneser(n, k), Budget(max_nodes=50)).value == want


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_ms": float("nan")},
        {"max_nodes": -5},
        {"max_nodes": -1, "max_ms": 10.0},
        {"max_nodes": 2.5},
        {"max_nodes": True},
        {"max_ms": "5"},
    ],
)
def test_budget_rejects_limits_that_disable_themselves(kwargs):
    with pytest.raises(InputError):
        Budget(**kwargs)


def test_determinism():
    g = MIXED[7]
    a, b = gp_exact(g), gp_exact(g)
    assert (a.value, a.witness, a.nodes_explored, a.status, a.method) == (
        b.value,
        b.witness,
        b.nodes_explored,
        b.status,
        b.method,
    )


def test_deadline_check_counts_no_node():
    clock = SearchClock(Budget(max_ms=0))
    time.sleep(0.002)
    assert clock.expired()
    assert (clock.nodes, clock.status) == (0, LOWER_BOUND)
    assert not clock.tick()
    assert not SearchClock(Budget(max_nodes=0)).expired()


def test_budget_covers_precompute():
    # n = 1000: building every conflict mask takes seconds, far past max_ms
    g = cartesian_product(cartesian_product(path(10), path(10)), path(10))
    t0 = time.perf_counter()
    res = gp_exact(g, Budget(max_ms=100))
    wall_s = time.perf_counter() - t0
    assert res.status == LOWER_BOUND
    assert wall_s < 1.0
    assert len(res.witness) == res.value
    assert is_general_position(distances(g), res.witness)


def test_budget_stops_the_search_itself():
    # Q7's masks take tens of ms, its search seconds: the clock, read every
    # 256 nodes, runs out inside the search and not in precompute
    g = corpus.hamming(2, 2, 2, 2, 2, 2, 2)
    t0 = time.perf_counter()
    res = gp_exact(g, Budget(max_ms=200))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert res.status == LOWER_BOUND
    assert res.nodes_explored > 0 and res.nodes_explored % 256 == 0
    assert is_general_position(distances(g), res.witness)
    assert wall_ms < 200 + 50


def test_elapsed_ms_covers_precompute():
    # the clock runs from the call's start, so a call that searches nothing
    # still reports the distances and conflict masks it built
    g = kneser(9, 3)
    t0 = time.perf_counter()
    res = gp_exact(g, Budget(max_nodes=0))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert res.elapsed_ms >= wall_ms / 2


# --- gp_auto, and one search under every labelling ---------------------------------


def test_gp_auto_dispatch():
    # the old name of gp_exact stays importable: the benchmark imports it
    assert genpos.gp_auto is genpos.gp_exact


SYMMETRIC_SMALL = [kneser(6, 2), line_graph(complete(6)), cartesian_product(complete(4), complete(3))]


@settings(max_examples=40, deadline=None)
@given(st.one_of(graphs(max_n=8), st.sampled_from(SYMMETRIC_SMALL)), st.data())
def test_gp_exact_ignores_relabelling(g, data):
    # gp_exact on a relabelled copy agrees with gp_exact on the original:
    # the branching order moves with the labels, the result must not. The
    # copy carries no action, so a symmetric original's pruned search is
    # checked against the plain search in another order
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    want, got = gp_exact(g), gp_exact(h)
    assert (got.value, got.status) == (want.value, want.status)
    assert len(got.witness) == got.value
    assert is_general_position(distances(h), got.witness)


# --- structural characterization ---------------------------------------------------


def test_characterization_accepts_gp_set():
    g = cycle(5)
    d = distances(g)
    res = characterization_check(g, d, (0, 1, 3))
    assert isinstance(res, CliquePartition)
    parts = res.parts
    assert sorted(v for p in parts for v in p) == [0, 1, 3]
    assert (0, 1) in parts and (3,) in parts
    dmat = res.part_distances
    assert all(dmat[i][i] == 0 for i in range(len(parts)))
    assert dmat[0][1] == dmat[1][0] == 2


def test_characterization_clique_violation():
    g = path(4)
    res = characterization_check(g, distances(g), (0, 1, 2))
    assert isinstance(res, Violation)
    assert res.condition == "clique"


def test_characterization_distance_constant_violation():
    g = path(4)
    res = characterization_check(g, distances(g), (0, 1, 3))
    assert isinstance(res, Violation)
    assert res.condition == "distance-constant"


def test_characterization_in_transitive_violation():
    g = path(5)
    res = characterization_check(g, distances(g), (0, 2, 4))
    assert isinstance(res, Violation)
    assert res.condition == "in-transitive"
    assert set(res.vertices) == {0, 2, 4}


def test_characterization_needs_connected_graph():
    g = disjoint_union(complete(2), complete(2))
    with pytest.raises(InputError):
        characterization_check(g, distances(g), (0, 1))


@settings(max_examples=25, deadline=None)
@given(connected_graphs(min_n=1, max_n=6))
def test_characterization_equals_definition(g):
    d = distances(g)
    for r in range(g.n + 1):
        for s in itertools.combinations(range(g.n), r):
            assert isinstance(characterization_check(g, d, s), CliquePartition) == is_general_position(d, s)
