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
partition, so it returns that partition or the first condition that fails.
Both read the plain rows of :func:`genpos.graph.distances`, a BFS
that the search below does not share.

``gp_exact`` is the one gp search, for graphs of every diameter. Its loop
looks for a largest vertex set with no forbidden triple, and it sees the
triples only through masks: for every vertex pair (a, b), the bitmask of
the third vertices y that make {a, b, y} forbidden. ``gp_exact`` passes the
conflict masks, where a triple is forbidden when it is collinear;
:func:`genpos.invariants.rho` (and so η) passes the induced-P3 masks. The
two searches share the loop and differ only in their masks. The gp masks
use no theorem about gp, so comparing ``gp_exact`` on diameter-2 graphs with
max{ω, η} and ρ tests the paper's gp = max{ω, η} = ρ through two mask
builders; the loop they share is checked by the integer-program oracles of
the test suite, which share no code with it.

The conflict masks are built from geodesic intervals, with no distance
matrix. A bitset BFS from each source a gives L_a[k], the vertices at
distance k from a. Two tables follow by a dynamic program over those levels:
I_a[v], the vertices on some a-v geodesic, is {v} plus the union of I_a[u]
over the neighbours u of v one level nearer a; F_a[v], the y with v on some
a-y geodesic, is {v} plus the union of F_a[u] over the neighbours u of v one
level further from a. A vertex y is collinear with a and b exactly when it
lies between them (in I_a[b]), beyond b (in F_a[b]) or beyond a (in F_b[a]),
so mask(a, b) is I_a[b] | F_a[b] | F_b[a] without a and b. The base levels
have closed forms: I_a[v] is {a, v} on level 1 and {a, v} plus N(v) & L_a[1]
on level 2, and F_a[v] is {v} plus N(v) & L_a[k+1] on the last two levels k,
so a source of eccentricity at most 2, and so every source of a diameter-2
graph, ORs no neighbour's table at all. Each source takes one pass: its BFS,
I away from a, then F back towards a, each vertex's part I_a[v] | F_a[v]
being ORed into the table as soon as F_a[v] is made. A pass costs O(n + m)
big-int operations, so the whole precompute is O(n * m) where pairwise level
zips cost O(n^2 * diam). The two passes of a and b build one int object,
which blocked[a][b] and blocked[b][a] share, so the table holds one mask per
unordered pair. A vertex outside a's component is never reached from a, so
pairs at infinite distance keep mask 0 and no mask holds a vertex of another
component: the infinity rule above. The precompute checks the deadline once
per source vertex, so a ``max_ms`` budget covers precompute as well as
search; when it runs out before the search starts, the result is the empty
set with status "lower-bound".

The search runs on an explicit stack, one list of frames, so its depth is
not bounded by Python's recursion limit. The frame of chosen prefix S is
[C, P, A, O]: its candidates C, the vertices not yet branched on that each
keep S plus itself free of forbidden triples (no subset of a set without
one has one, so this pruning is lossless); a conflict table P: P_S[y], for
y in C, is the OR over s in S of the masks of the pairs (y, s), the
vertices z that some member of S makes a forbidden triple with y; the
cells A of orbit pruning (below); and the tops O of its cover (below).
Branching on x kills P_S[x]; the child's table is P_S[y] | mask(x, y) over
the surviving candidates, one operation per candidate.

Two candidates y and z conflict below S when z is in P_S[y]. A set T with no
forbidden triple that extends S inside S + C holds no conflicting pair, so
it holds at most one vertex of each clique of the conflict graph, and at
most two of each forbidden triple; so |S| plus the cost of any partition
of C into such parts, one per clique and two per triple, bounds |T|. With
cliques alone this is the colouring bound of maximum-clique search (Tomita
& Seki, DMTCS 2003) on the conflict graph's complement. The triples see
what pair conflicts cannot: on a P4 copy of a corona with none of its
vertices chosen no two candidates conflict, yet its triples let a set hold
only 3 of its 4. The cover is greedy: each clique starts at the highest
vertex y left and absorbs, highest first, the vertices left that conflict
with every vertex taken so far. When y conflicts with no vertex left, its
clique would be a singleton; then, while two units of room are left, the
cover scans y's neighbours z left, highest first, for a third vertex w left
in mask(y, z), and makes the first such {y, z, w} a part. Only neighbours
are scanned: every induced P3 through y holds a neighbour of y, so for ρ no
triple is missed, while a collinear triple with no neighbour of y is, which
only weakens the bound (scanning all of C costs more than it saves: inside
a partial star of K(n,3) every scan fails after |C| steps). The cover is
built for each child, with room the number of vertices the child may add
before it only ties the incumbent, and it stops as soon as the answer is
known: once its parts hold |C| - room vertices beyond their cost (it
fits), or once room is spent with vertices still left (it does not); then
it fills in the child's table. A child whose cover fits is not opened: x's
branch ends as if no candidate had survived, at the one site where a branch
whose frame ran out ends, and no set in it beats the incumbent.

A child whose cover does not fit opens with its tops O: the first, and so
highest, vertex of each of its cliques, the two highest of each of its
triples, plus every vertex left over as a clique of its own. A clique meets
the tail {y in C : y >= x} exactly when its top is at least x, and a triple
has min(2, its members >= x) tops at or above x, and a set inside the tail
holds no more of it than that. A frame branches on its lowest candidate x first,
so |S| + min(|C|, tops at or above x) bounds every set its remaining
branches reach (MCQ's colour-order bound, from the one cover per child); a
frame ends once that bound does not beat the incumbent. The root's O is
every vertex. Branching follows descending degree (ties by id) and the
incumbent is replaced only on strict improvement, so exact results are
deterministic.

Orbit pruning. A graph built by a constructor may carry a ground-set action
(:class:`~genpos.graph.GroundAction`): each vertex is one bitmask over a
ground set split into blocks, and Sym(B_1) x ... x Sym(B_d) permutes the
blocks independently (Sym(n) on the k-subsets of {1..n} in K(n,k) and on
the edges of K_n in L(K_n), Sym(q_i) on block i of K_q1 □ ... □ K_qd). The
graph checked the action when it was built, so the search relies on it.
Graphs without an action, including every graph read from a file and every
product with an action-free factor, run the plain search.

The pointwise stabilizer Stab(S) of the chosen vertices is again such a
product: it permutes each cell freely, where a cell is a class of the
elements of one block that lie in the same members of S. The root's cells
are the blocks. Each frame refines its parent's cells by the new vertex's
point, and a frame whose cells are all singletons (and every frame below
it) has a stabilizer that moves nothing. Vertex z is in x's orbit under
Stab(S) when |z & A| = |x & A| for every cell A. The orbit is computed as
one bitmask: with M[e] the vertices whose point holds e, a bit-sliced
ripple-carry count of M[e] over e in A is compared with |x & A|, and the
results are ANDed over the cells.

When the branch on x below S is done, x's whole orbit under Stab(S) leaves
that frame's candidates; its members stay available inside x's own subtree.
This is sound because every frame's excluded set X (the vertices that are
neither chosen nor candidates) is a union of Stab(S)-orbits: at the root it
is empty; a child inherits its parent's X, a union of orbits of a larger
group and so of every deeper stabilizer, plus the vertices that conflict
with the new choice, a set that Stab(S + x) keeps, since automorphisms keep
collinear triples and induced P3s alike; and a frame only ever adds whole
orbits. So for any set T with no forbidden triple that contains S and a
member y of x's orbit and avoids X, the image of T under a stabilizer
element taking y to x contains S and x and avoids X: it lies in x's
subtree, which has already been searched. A child closed by its cover
counts as searched: its subtree holds no set larger than the incumbent, so
neither does the orbit it sends away. So does a frame closed by its tail
bound: the branches it skips hold no set larger than the incumbent, and
the incumbent only grows. A frame that its tail bound is about to close
computes no orbit, since no candidate it would remove is branched on. By
the same argument, and because the bounds only close subtrees that cannot
strictly beat the incumbent, no pruning removes the first maximum set in
search order: value, witness and status are those of the search without
them; only the node count falls.

Disconnected inputs are handled by the same definition under the infinity
semantics above — no component decomposition is attempted. This reproduces
e.g. gp(3K_2) = 6: within a component only clique triples survive, and cross
component triples never violate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate, combinations

from .budget import Budget, GpResult, SearchClock
from .errors import InputError
from .graph import (
    INFINITY,
    Graph,
    GroundAction,
    VertexSet,
    connected_components,
    induced_subgraph,
    is_connected,
    vertex_set,
)


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _degree_order(g: Graph) -> tuple[list[int], list[int]]:
    """Relabel by descending degree (ties by id).

    Returns (bits, order) where order[i] is the original id of internal
    vertex i and bits is the internal-id adjacency bitmask list.
    """
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    bits = [0] * g.n
    for v in range(g.n):
        m = 0
        for u in g.adj[v]:
            m |= 1 << pos[u]
        bits[pos[v]] = m
    return bits, order


def _to_original(internal, order: list[int]) -> VertexSet:
    return tuple(sorted(order[i] for i in internal))


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


def is_general_position(d, s) -> bool:
    """Definition-based test on the distance rows ``d``: no member between two others."""
    sv = vertex_set(s, len(d))
    for u, w, v in combinations(sv, 3):
        duw, dwv, duv = d[u][w], d[w][v], d[u][v]
        if duw == INFINITY or dwv == INFINITY or duv == INFINITY:
            continue
        if duv == duw + dwv or duw == duv + dwv or dwv == duw + duv:
            return False
    return True


def characterization_check(g: Graph, d, s) -> CliquePartition | Violation:
    """Structural test for connected g: clique components, distance-constant
    and in-transitive between parts. Returns the :class:`CliquePartition`
    when s passes, else the first :class:`Violation` found (components are
    scanned in order of minimum member), reading g's distance rows ``d``."""
    if not is_connected(g):
        raise InputError("characterization_check needs a connected graph")
    sv = vertex_set(s, g.n)
    parts = [tuple(sv[i] for i in comp) for comp in connected_components(induced_subgraph(g, sv))]

    def fail(condition: str, verts, detail: str) -> Violation:
        return Violation(condition, vertex_set(verts, g.n), detail)

    for part in parts:
        for u, v in combinations(part, 2):
            if not g.has_edge(u, v):
                return fail(
                    "clique", part, f"component {part} is not complete: {u} and {v} are non-adjacent"
                )

    k = len(parts)
    dist = [[0] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        d0 = d[parts[i][0]][parts[j][0]]
        for u in parts[i]:
            for v in parts[j]:
                if d[u][v] != d0:
                    return fail(
                        "distance-constant",
                        {parts[i][0], parts[j][0], u, v},
                        f"parts {parts[i]} and {parts[j]}: d({u},{v})={d[u][v]} != d({parts[i][0]},{parts[j][0]})={d0}",
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

    return CliquePartition(tuple(parts), tuple(tuple(row) for row in dist))


def _conflict_masks(bits: list[int], clock: SearchClock) -> list[list[int]] | None:
    """blocked[a][b]: bitmask of the y with {a, b, y} collinear, one int
    object shared by blocked[a][b] and blocked[b][a]; None once the deadline
    passes (checked once per source, counting no node).

    One pass per source a, as the module docstring sets out: the BFS levels
    L[k], then I level by level away from a and F back towards a,

        I[v] = {v} | the I[u] of v's neighbours u in L[k-1],
        F[v] = {v} | the F[u] of v's neighbours u in L[k+1],

    for v in L[k]. Where those tables are known the OR is one AND:
    I[v] = {a, v} | (N(v) & L[k-1]) for k <= 2, and F[v] = {v} |
    (N(v) & L[k+1]) on the last two levels. As soon as F[v] is made, v's
    part I[v] | F[v] without a and v (the y between a and v, or beyond v)
    is ORed into the pair's mask; v's own pass adds the y beyond a.
    """
    n = len(bits)
    one = [1 << v for v in range(n)]
    blocked = [[0] * n for _ in range(n)]
    I = [0] * n
    F = [0] * n
    for a in range(n):
        if clock.expired():
            return None
        # L[k]: the vertices at distance k from a, as a bitmask and as ids[k]
        abit = seen = frontier = one[a]
        L: list[int] = []
        ids: list[list[int]] = []
        while frontier:
            L.append(frontier)
            here = []
            nxt = 0
            while frontier:
                v = frontier.bit_length() - 1
                frontier ^= one[v]
                here.append(v)
                nxt |= bits[v]
            ids.append(here)
            frontier = nxt & ~seen
            seen |= frontier
        last = len(L) - 1

        for k in range(1, last + 1):  # I, away from a
            near = L[k - 1]
            for v in ids[k]:
                nb = bits[v] & near
                if k <= 2:
                    I[v] = abit | one[v] | nb
                    continue
                m = one[v]
                while nb:
                    u = nb.bit_length() - 1
                    nb ^= one[u]
                    m |= I[u]
                I[v] = m

        row = blocked[a]
        far = 0
        for k in range(last, 0, -1):  # F, back towards a, each part folded in
            for v in ids[k]:
                vbit = one[v]
                nb = bits[v] & far
                f = vbit | nb
                if k < last - 1:
                    while nb:
                        u = nb.bit_length() - 1
                        nb ^= one[u]
                        f |= F[u]
                F[v] = f
                part = (I[v] | f) ^ (abit | vbit)
                if v > a:
                    row[v] = part
                else:
                    blocked[v][a] = row[v] = blocked[v][a] | part
            far = L[k]
    return blocked


def _orbit_tables(a: GroundAction, order: list[int]):
    """The action in internal ids: (xs, M, root, ground).

    xs[i] is internal vertex i's point; M[e] is the bitmask of the vertices
    whose point holds ground element e. root is the root frame's cells (the
    blocks), None when no cell can split, and ground the number of cells
    once every cell is a singleton.
    """
    xs = [a.points[v] for v in order]
    ground = sum(a.sizes)
    M = [0] * ground
    for i, x in enumerate(xs):
        for e in _iter_bits(x):
            M[e] |= 1 << i
    offsets = accumulate(a.sizes, initial=0)
    root = [((1 << size) - 1) << off for off, size in zip(offsets, a.sizes) if size]
    return xs, M, None if len(root) == ground else root, ground


def _refine(cells: list[int], x: int, ground: int) -> list[int] | None:
    """Split every cell by the new vertex's point; None once all are singletons."""
    out = []
    for cell in cells:
        inside = cell & x
        if inside and inside != cell:
            out.append(inside)
            out.append(cell ^ inside)
        else:
            out.append(cell)
    return None if len(out) == ground else out


def _orbit(C: int, x: int, cells: list[int], M: list[int]) -> int:
    """The members of C in x's orbit under Stab(S), for S with these cells:
    the z with |z & A| == |x & A| for every cell A."""
    for A in cells:
        if not C:
            return 0
        k = (A & x).bit_count()
        if not k:
            for e in _iter_bits(A):
                C &= ~M[e]
        elif k == A.bit_count():
            for e in _iter_bits(A):
                C &= M[e]
        else:
            # bit-sliced ripple-carry count of the M[e] over e in A
            slices: list[int] = []
            for e in _iter_bits(A):
                carry = M[e]
                for j, sl in enumerate(slices):
                    slices[j] = sl ^ carry
                    carry &= sl
                    if not carry:
                        break
                if carry:
                    slices.append(carry)
            if k >> len(slices):
                return 0
            for j, sl in enumerate(slices):
                C &= sl if k >> j & 1 else ~sl
    return C


def _cover(
    C: int, P: list[int], bx: list[int], room: int, Q: list[int], blocked: list[list[int]], bits: list[int]
) -> int:
    """Greedy cover of C by cliques of its conflict graph, y and z
    conflicting when z is in P[y] | bx[y] (see the module docstring), and
    by forbidden triples, built from the highest vertex down. A clique costs
    one unit of room and a triple two.

    A clique whose top y conflicts with no vertex left would be a singleton;
    while two units of room are left, y's neighbours z left in C are scanned
    instead, highest first, for a w left in blocked[y][z], and the first
    such {y, z, w} becomes a part.

    Returns 0 when the cover fits in room. Otherwise it returns the tops O:
    the highest member of each clique built, the two highest of each
    triple, plus every vertex left over, each a clique of its own; then
    Q[y] = P[y] | bx[y] for every y in C, the whole child table. spare
    counts the vertices the parts must still hold beyond their cost for the
    cover to fit.
    """
    spare = C.bit_count() - room
    if spare <= 0:
        return 0
    O = 0
    while room:
        room -= 1
        y = C.bit_length() - 1
        top = 1 << y
        C ^= top
        O |= top
        Q[y] = q = P[y] | bx[y]
        K = C & q
        if not K and room:
            row = blocked[y]
            N = C & bits[y]
            while N:
                z = N.bit_length() - 1
                W = row[z] & C
                if W:
                    spare -= 1
                    if not spare:
                        return 0
                    room -= 1
                    w = W.bit_length() - 1
                    C ^= 1 << z | 1 << w
                    O |= 1 << max(z, w)
                    Q[z] = P[z] | bx[z]
                    Q[w] = P[w] | bx[w]
                    break
                N ^= 1 << z
            continue
        while K:
            spare -= 1
            if not spare:
                return 0
            y = K.bit_length() - 1
            C ^= 1 << y
            Q[y] = q = P[y] | bx[y]
            K &= q
    O |= C
    while C:  # it does not fit: fill in the vertices it has not taken
        y = C.bit_length() - 1
        C ^= 1 << y
        Q[y] = P[y] | bx[y]
    return O


def _run_gp(
    g: Graph, clock: SearchClock, masks: Callable[[list[int], SearchClock], list[list[int]] | None]
) -> tuple[int, VertexSet]:
    """Largest vertex set with no forbidden triple. masks(bits, clock) gives
    blocked[a][b], the bitmask of the y with {a, b, y} forbidden, on the
    internal ids, or None once the deadline passes."""
    n = g.n
    bits, order = _degree_order(g)
    xs = M = root = None
    ground = 0
    if g.action is not None:
        xs, M, root, ground = _orbit_tables(g.action, order)
    blocked = masks(bits, clock)
    if blocked is None:
        return 0, ()
    best: list[int] = []
    best_size = 0

    # Depth-first search on an explicit stack of frames [C, P, A, O], one per
    # prefix chosen[:i]: C holds the candidates not yet branched on, each of
    # which keeps chosen[:i] plus itself free of forbidden triples; P[y], for
    # y in C, the vertices z that some s in chosen[:i] makes a forbidden
    # triple with y; A the cells of the ground set that Stab(chosen[:i])
    # permutes, or None when that stabilizer moves nothing (and so do all
    # below it); O the tops of the frame's cover, so (O & -xbit).bit_count()
    # bounds the vertices at or above x, the lowest in C, that a set below
    # chosen[:i] may add. A branch on x ends at one site, reached when x's
    # frame is exhausted or closed by that tail bound, or when the cover
    # closes it before it opens; there x's whole orbit under its parent's
    # stabilizer leaves the parent's C, unless the parent's tail bound is
    # about to close it.
    # len(chosen) never exceeds best_size.
    tick = clock.tick
    chosen: list[int] = []
    frames = [[(1 << n) - 1, [0] * n, root, (1 << n) - 1]]
    while frames:
        C, P, A, O = frame = frames[-1]
        if C and not tick():
            break
        xbit = C & -C
        if len(chosen) + min(C.bit_count(), (O & -xbit).bit_count()) > best_size:
            C ^= xbit
            frame[0] = C
            x = xbit.bit_length() - 1
            chosen.append(x)
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = chosen.copy()
            newC = C & ~P[x]
            Q = P.copy()
            tops = _cover(newC, P, blocked[x], best_size - len(chosen), Q, blocked, bits)
            if tops:
                # some set below chosen may beat the incumbent: open the child
                frames.append([newC, Q, A and _refine(A, xs[x], ground), tops])
                continue
            # no set below chosen beats the incumbent: x's branch is done
        else:
            # frame done: its branch ends in its parent
            frames.pop()
            if not frames:
                break
            C, _, A, O = frame = frames[-1]
        x = chosen.pop()
        if A is not None and len(chosen) + min(C.bit_count(), (O & -(C & -C)).bit_count()) > best_size:
            frame[0] = C & ~_orbit(C, xs[x], A, M)
    return best_size, _to_original(best, order)


def gp_exact(g: Graph, budget: Budget | None = None) -> GpResult:
    """Maximum general position set by branch and bound.

    Budget exhaustion degrades to status "lower-bound".
    """
    clock = SearchClock(budget)
    return clock.result(*_run_gp(g, clock, _conflict_masks), "exact")


gp_auto = gp_exact  # the old name, kept for perfbench/, which still imports it
