"""General position sets: membership tests and the exact solver.

A set S is in general position when no vertex of S lies on a geodesic
between two other vertices of S: for pairwise distinct u, v, w in S with all
three pairwise distances finite, d(u,v) != d(u,w) + d(w,v). Triples touching
an infinite distance never violate — a vertex cannot sit on a geodesic that
does not exist — and the finiteness guards are load-bearing, because IEEE
infinity satisfies ``inf == x + inf``.

Two independent membership tests are provided: the distance-arithmetic
definition (:func:`is_general_position`) and the structural characterization
(:func:`characterization_check`): S is general position iff the components
of G[S] are cliques whose vertex sets form a distance-constant, in-transitive
partition.

``gp_exact`` is the one gp search, for graphs of every diameter;
``gp_auto`` is another name for the same function. It uses no theorem about
gp, so comparing it on diameter-2 graphs with max{ω, η} and ρ from
:mod:`genpos.invariants` tests the paper's gp = max{ω, η} = ρ by two
independent computations. It runs a depth-first branch and bound over
conflict masks: for every vertex pair (a, b), the bitmask of the third
vertices y that make {a, b, y} collinear.

The masks are built from distance levels, with no distance matrix. A bitset
BFS from each vertex a gives L_a[k], the vertices at distance k from a. For
a pair at finite distance d, a vertex y is collinear with a and b exactly
when it lies between them (L_a[k] & L_b[d-k], 0 < k < d), beyond b
(L_b[k] & L_a[d+k], k >= 1) or beyond a (L_a[k] & L_b[d+k], k >= 1); the
mask is the OR of these three parts. A vertex outside a's component is in
no L_a[k], so pairs at infinite distance keep mask 0 and no mask holds a
vertex of another component: the infinity rule above. The whole precompute
is O(n^2 * diam) big-int operations. Both passes check the deadline once per
source vertex, so a ``max_ms`` budget covers precompute as well as search;
when it runs out before the search starts, the result is the empty set with
status "lower-bound".

The search runs on an explicit stack, so its depth is not bounded by
Python's recursion limit. The candidate set shrinks by O(|S|) mask
operations per extension and stays exactly the set of vertices that keep S
in general position (general position is hereditary, so this pruning is
lossless). Branching follows descending degree (ties by id) and the
incumbent is replaced only on strict improvement, so exact results are
deterministic.

Disconnected inputs are handled by the same definition under the infinity
semantics above — no component decomposition is attempted. This reproduces
e.g. gp(3K_2) = 6: within a component only clique triples survive, and cross
component triples never violate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .budget import Budget, SearchClock
from .errors import InputError
from .graph import (
    INFINITY,
    DistanceMatrix,
    Graph,
    VertexSet,
    is_connected,
    vertex_set,
)
from .invariants import _degree_order, _to_original


@dataclass(frozen=True, slots=True)
class GpResult:
    """Outcome of a gp computation; witness certifies value."""

    value: int
    witness: VertexSet
    status: str  # "exact" | "lower-bound"
    nodes_explored: int
    elapsed_ms: float
    method: str  # "exact"; "alpha" on the harness's ekr reports


@dataclass(frozen=True, slots=True)
class CliquePartition:
    """Components of G[S] (each a clique) plus between-part distances.

    ``part_distances[i][j]`` is the common distance between parts i and j
    (well-defined by distance-constancy); the diagonal is 0 by convention.
    """

    parts: tuple[VertexSet, ...]
    part_distances: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class Violation:
    """First failed condition of the structural characterization."""

    condition: str  # "clique" | "distance-constant" | "in-transitive"
    vertices: VertexSet
    detail: str


@dataclass(frozen=True, slots=True)
class CharacterizationResult:
    ok: bool
    partition: CliquePartition | None
    violation: Violation | None

    def __bool__(self) -> bool:
        return self.ok


def is_general_position(dm: DistanceMatrix, s) -> bool:
    """Definition-based test: no member between two other members."""
    sv = vertex_set(s, dm.n)
    d = dm.d
    for u, w, v in combinations(sv, 3):
        duw, dwv, duv = d[u][w], d[w][v], d[u][v]
        if duw == INFINITY or dwv == INFINITY or duv == INFINITY:
            continue
        if duv == duw + dwv or duw == duv + dwv or dwv == duw + duv:
            return False
    return True


def characterization_check(g: Graph, dm: DistanceMatrix, s) -> CharacterizationResult:
    """Structural test for connected g: clique components, distance-constant
    and in-transitive between parts. Returns the partition or the first
    violation found (components are scanned in order of minimum member)."""
    if not is_connected(g):
        raise InputError("characterization_check needs a connected graph")
    sv = vertex_set(s, g.n)
    ss = set(sv)

    parts: list[VertexSet] = []
    seen: set[int] = set()
    for v in sv:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                if y in ss and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        parts.append(tuple(sorted(comp)))

    def fail(condition: str, verts, detail: str) -> CharacterizationResult:
        return CharacterizationResult(False, None, Violation(condition, vertex_set(verts, g.n), detail))

    for part in parts:
        for u, v in combinations(part, 2):
            if not g.has_edge(u, v):
                return fail(
                    "clique", part, f"component {part} is not complete: {u} and {v} are non-adjacent"
                )

    k = len(parts)
    dist = [[0] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        d0 = dm.dist(parts[i][0], parts[j][0])
        for u in parts[i]:
            for v in parts[j]:
                if dm.dist(u, v) != d0:
                    return fail(
                        "distance-constant",
                        {parts[i][0], parts[j][0], u, v},
                        f"parts {parts[i]} and {parts[j]}: d({u},{v})={dm.dist(u, v)} != d({parts[i][0]},{parts[j][0]})={d0}",
                    )
        dist[i][j] = dist[j][i] = d0

    for a, b, c in combinations(range(k), 3):
        for x, m, y in ((a, b, c), (b, a, c), (a, c, b)):
            if dist[x][y] == dist[x][m] + dist[m][y]:
                return fail(
                    "in-transitive",
                    {parts[x][0], parts[m][0], parts[y][0]},
                    f"part {parts[m]} lies between parts {parts[x]} and {parts[y]}: "
                    f"{dist[x][y]} = {dist[x][m]} + {dist[m][y]}",
                )

    partition = CliquePartition(tuple(parts), tuple(tuple(row) for row in dist))
    return CharacterizationResult(True, partition, None)


def _conflict_masks(bits: list[int], clock: SearchClock) -> list[list[int]] | None:
    """blocked[a][b]: bitmask of the y with {a, b, y} collinear; None once
    the deadline passes (checked once per source row, counting no node)."""
    n = len(bits)
    # levels[a][k]: bitmask of the vertices at distance k from a
    levels = []
    for a in range(n):
        if clock.expired():
            return None
        seen = frontier = 1 << a
        row = [frontier]
        while True:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= bits[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            row.append(frontier)
        levels.append(row)

    # pairs at infinite distance never meet in a level and keep mask 0
    blocked = [[0] * n for _ in range(n)]
    for a in range(n):
        if clock.expired():
            return None
        La = levels[a]
        row = blocked[a]
        for d in range(1, len(La)):
            later = La[d] >> (a + 1) << (a + 1)
            while later:
                low = later & -later
                later ^= low
                b = low.bit_length() - 1
                Lb = levels[b]
                m = 0
                for x, y in zip(La[1:d], Lb[d - 1 : 0 : -1]):  # between a and b
                    m |= x & y
                for x, y in zip(Lb[1:], La[d + 1 :]):  # beyond b
                    m |= x & y
                for x, y in zip(La[1:], Lb[d + 1 :]):  # beyond a
                    m |= x & y
                row[b] = m
                blocked[b][a] = m
    return blocked


def _run_gp(g: Graph, clock: SearchClock) -> tuple[int, VertexSet]:
    n = g.n
    if n == 0:
        return 0, ()
    bits, order = _degree_order(g)
    blocked = _conflict_masks(bits, clock)
    if blocked is None:
        return 0, ()
    best_mask = best_size = 0

    # Depth-first search on an explicit stack: stack[i] holds the candidates
    # not yet branched on below chosen[:i], each of which keeps chosen[:i]
    # plus itself in general position. len(chosen) never exceeds best_size.
    tick = clock.tick
    chosen: list[int] = []
    smask = 0
    stack = [(1 << n) - 1]
    while stack:
        C = stack[-1]
        if C and not tick():
            break
        if len(chosen) + C.bit_count() <= best_size:
            # frame done: undo the choice that opened it
            stack.pop()
            if chosen:
                smask ^= 1 << chosen.pop()
            continue
        xbit = C & -C
        C ^= xbit
        stack[-1] = C
        x = xbit.bit_length() - 1
        bx = blocked[x]
        kill = 0
        for s in chosen:
            kill |= bx[s]
        chosen.append(x)
        smask |= xbit
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_mask = smask
        newC = C & ~kill
        if newC:
            stack.append(newC)
        else:
            chosen.pop()
            smask ^= xbit
    return best_size, _to_original(best_mask, order)


def gp_exact(g: Graph, budget: Budget | None = None) -> GpResult:
    """Maximum general position set by branch and bound.

    Budget exhaustion degrades to status "lower-bound".
    """
    clock = SearchClock(budget)
    value, witness = _run_gp(g, clock)
    return GpResult(value, witness, clock.status, clock.nodes, clock.elapsed_ms(), "exact")


gp_auto = gp_exact
