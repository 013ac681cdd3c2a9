"""The exact searches: gp, ρ (and so η), ω and α.

General position is defined, and membership checked, in :mod:`genpos.graph`,
which imports nothing from here: no member of S lies on a geodesic between
two others, and a triple touching an infinite distance never violates.

``gp_exact`` is the one gp search, for graphs of every diameter. Its loop
looks for a largest vertex set with no forbidden triple, and it sees the
triples only through masks: for every vertex pair (a, b), the bitmask of
the third vertices y that make {a, b, y} forbidden. ``gp_exact`` passes the
conflict masks, where a triple is forbidden when it is collinear (one member
on a geodesic between the other two); :func:`rho` passes the induced-P3
masks, where it is forbidden when it spans two edges. The two searches
share the loop and differ only in their masks. The gp masks use no theorem
about gp, so comparing ``gp_exact`` on diameter-2 graphs with ρ tests the
paper's gp = max{ω, η} = ρ through two mask builders; the loop they share
is checked by the integer-program oracles of the test suite, which share no
code with it.

ρ(G) is the most vertices in a union of pairwise independent cliques, and
η(G) the largest order of an induced complete multipartite subgraph of the
complement. Both are the largest S with G[S] a disjoint union of cliques
(for η, complement(G)[S] is complete multipartite exactly when
non-adjacency is transitive on S), with a single part counted as complete
multipartite, as in the k=1 case of the product proofs; so η = ρ ≥ ω, and
``eta`` is ``rho``, one function with method "rho". ρ inherits the loop's
cover bound, orbit pruning (automorphisms keep induced P3s) and mask table,
one mask per unordered pair for both searches. The table holds about n²/2
masks of up to n bits, so both searches refuse an order past
:data:`~genpos.graph.MAX_SEARCH_N` (1,200), whose comment gives the
measurement behind it, with an InputError before any table is built.

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
on level 2, and F_a[v] is {v} plus N(v) & L_a[k+1] on the last two levels k.
So a source whose BFS ends by level 2, and so every source of a diameter-2
graph, builds neither table: v's part below is N(v) & L_a[2] on level 1 and
N(v) & L_a[1] on level 2, one AND per vertex its BFS reached. Any other
source takes one pass: its BFS, I away from a, then F back towards a, each
vertex's part I_a[v] | F_a[v] without a and v being ORed into the table as
soon as F_a[v] is made. A pass costs O(n + m)
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
not bounded by Python's recursion limit. The frame of chosen prefix S
holds its candidates C, the vertices not yet branched on that each
keep S plus itself free of forbidden triples (no subset of a set without
one has one, so this pruning is lossless); a conflict table P: P_S[y], for
y in C, is the OR over s in S of the masks of the pairs (y, s), the
vertices z that some member of S makes a forbidden triple with y; the
cells A of orbit pruning (below); and what its cover left over, with the
room its parts cost (below).
Branching on x kills P_S[x]; the child's table is P_S[y] | mask(x, y) over
the surviving candidates, one operation per candidate.

Two candidates y and z conflict below S when z is in P_S[y]. A set T with no
forbidden triple that extends S inside S + C holds no conflicting pair, so
it holds at most one vertex of each clique of the conflict graph, and at
most two of each at-most-two part: a set in which every three members hold a
forbidden triple or a conflicting pair, such as a forbidden triple. So |S|
plus the cost of any partition of C into such parts, one per clique and two
per at-most-two part, bounds |T|. With cliques alone this is the colouring
bound of maximum-clique search (Tomita & Seki, DMTCS 2003) on the conflict
graph's complement. The triples see what pair conflicts cannot: on a P4 copy
of a corona with none of its vertices chosen no two candidates conflict, yet
its triples let a set hold only 3 of its 4. The cover is greedy: each clique
starts at the highest vertex y left and absorbs, highest first, the vertices
left that conflict with every vertex taken so far. When y conflicts with no
vertex left, its clique would be a singleton; then, while two units of room
are left, the cover scans y's neighbours z left, highest first, for a third
vertex w left in mask(y, z), and seeds a part with the first such {y, z, w}.
The part then grows, highest vertex first: a vertex u left joins when, for
every pair p, q already in it, u is in mask(p, q) or conflicts with p or
with q. Every three members then hold a forbidden triple or a conflicting
pair (the last of them to join meets the test with the other two), so the
part still costs two however many join, and y conflicts with none of them.
Only neighbours are scanned for the seed: every induced P3 through y holds a
neighbour of y, so for ρ no seed is missed, while a collinear triple with no
neighbour of y is, which only weakens the bound (scanning all of C costs
more than it saves: inside a partial star of K(n,3) every scan fails after
|C| steps). The cover is built for each child, with room the number of
vertices the child may add before it only ties the incumbent, and it stops
as soon as the answer is known: once its parts hold |C| - room vertices
beyond their cost (it fits), or once room is spent with vertices still left
(it does not); then it fills in the child's table. A child whose cover fits
is not opened: x's branch ends as if no candidate had survived, at the one
site where a branch whose frame ran out ends, and no set in it beats the
incumbent.

A child whose cover does not fit branches only on the vertices its cover
left over, lowest first: MCQ's rule, a vertex coloured within the room is
never branched. Its parts cost all of its room, best_size - |S| when it
opens, so |S| + min(|C|, room + |left & C|) bounds every set its remaining
branches reach, and the frame ends once the leftover is spent, or sooner
once the bound does not beat the incumbent. The root has room 0 and leaves
every vertex over.

Orbit pruning. A graph built by a constructor may carry a ground-set action
(:class:`~genpos.graph.GroundAction`): each vertex is one bitmask over a
ground set split into blocks, and one group per block acts on it, all
independently: Sym(B) permutes block B freely (Sym(n) on the k-subsets of
{1..n} in K(n,k) and on the edges of K_n in L(K_n), Sym(q_i) on block i of
K_q1 □ ... □ K_qd), and on a one-hot block, whose every point holds one
element, D_n turns and reflects a cycle's vertices and the mirror reverses
a path's. The graph checked the action when it was built, so the search
relies on it. Graphs without an action, including every graph read from a
file and every product with an incomplete action-free factor, run the plain
search.

The pointwise stabilizer Stab(S) of the chosen vertices is again such a
product. On a Sym block it permutes each cell freely, where a cell is a
class of the block's elements that lie in the same members of S; the root's
cells are the blocks. On a one-hot block of n elements, with P the chosen
vertices' elements of it, it is all of D_n while P is empty, the one
reflection e -> t - e while 2p = t (mod n) for every p in P (the mirror is
this reflection with t = n - 1), and trivial otherwise. Each frame refines
its parent's cells by the new vertex's point and moves each one-hot block's
state in O(1). A frame whose cells are all singletons and whose one-hot
blocks are all trivial (and every frame below it) has a stabilizer that
moves nothing; before then a singleton cell or a trivial block still pins
its coordinate. Vertex z is in x's orbit under Stab(S) when |z & A| =
|x & A| for every cell A and z's element of each one-hot block is x's
element p, or t - p under a reflection. The orbit is computed as one
bitmask: with M[e] the vertices whose point holds e, a one-hot block gives
M[p] | M[t - p] or M[p], a bit-sliced ripple-carry count of M[e] over e in
A is compared with |x & A|, and the results are ANDed.

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

ω runs its own loop: a Tomita-style branch and bound over vertex bitsets
with a greedy-colouring bound, on an explicit stack too; α is ω of the
complement. Every search labels the vertices in descending-degree order
(ties by id), the gp loop's frames branching their leftover lowest label
first, and replaces its incumbent only on strict improvement, so an exact
witness is reproducible. A spent budget ends the loop, and the best set so far
returns with status "lower-bound"; no search raises for it. The ``method``
of each :class:`~genpos.budget.GpResult` is "exact", "rho", "omega" or
"alpha".
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import accumulate

from .budget import Budget, GpResult, SearchClock
from .graph import Graph, GroundAction, VertexSet, _check_search_order, complement


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
    is ORed into the pair's mask; v's own pass adds the y beyond a. A source
    whose BFS ends by level 2 builds neither table: there both closed forms
    hold on every level, so v's part is N(v) & L[2] on level 1 and
    N(v) & L[1] on level 2.
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
        row = blocked[a]

        if last <= 2:  # shallow: the closed forms hold on every level
            L.append(0)  # an empty level 2 when last is 1
            for k in range(1, last + 1):
                other = L[3 - k]
                for v in ids[k]:
                    part = bits[v] & other
                    if v > a:
                        row[v] = part
                    else:
                        blocked[v][a] = row[v] = blocked[v][a] | part
            continue

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
    whose point holds ground element e. root is the root frame's state
    (cells, hot): the Sym blocks as cells, and one (offset, size, t) per
    one-hot block, t as in :func:`_refine`; None when the group moves
    nothing. ground is the number of cells once every cell is a singleton.
    """
    xs = [a.points[v] for v in order]
    M = [0] * sum(a.sizes)
    for i, x in enumerate(xs):
        for e in _iter_bits(x):
            M[e] |= 1 << i
    cells, hot = [], []
    for off, size, group in zip(accumulate(a.sizes, initial=0), a.sizes, a.groups):
        if group == "sym" and size:
            cells.append(((1 << size) - 1) << off)
        elif group != "sym" and size > 1:
            hot.append((off, size, None if group == "dihedral" else size - 1))
    ground = sum(cell.bit_count() for cell in cells)
    return xs, M, None if len(cells) == ground and not hot else (cells, hot), ground


def _refine(state, x: int, ground: int):
    """The child's state: every cell split by the new vertex's point x, and
    every one-hot block's t moved by x's element p of it: None (all of D_n)
    becomes 2p mod n, a t with 2p = t (mod n) stays (the reflection
    e -> t - e), and any other t becomes -1 (trivial). None once every cell
    is a singleton and every block trivial."""
    cells, hot = state
    out = []
    for cell in cells:
        inside = cell & x
        if inside and inside != cell:
            out.append(inside)
            out.append(cell ^ inside)
        else:
            out.append(cell)
    moved = []
    for off, size, t in hot:
        p = (x >> off & (1 << size) - 1).bit_length() - 1
        if t is None:
            t = 2 * p % size
        elif (2 * p - t) % size:
            t = -1
        moved.append((off, size, t))
    return None if len(out) == ground and all(h[2] < 0 for h in moved) else (out, moved)


def _orbit(C: int, x: int, state, M: list[int]) -> int:
    """The members of C in x's orbit under Stab(S), for S with this state: the
    z whose element q of each one-hot block with t >= 0 is x's p or t - p,
    and equals p where t is -1, and with |z & A| == |x & A| for every cell A."""
    cells, hot = state
    for off, size, t in hot:
        if t is not None:
            p = (x >> off & (1 << size) - 1).bit_length() - 1
            C &= M[off + p] | M[off + (t - p) % size] if t >= 0 else M[off + p]
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
            # vertex x is among those counted, so k < 2 ** len(slices)
            for j, sl in enumerate(slices):
                C &= sl if k >> j & 1 else ~sl
    return C


def _cover(
    C: int, P: list[int], bx: list[int], room: int, Q: list[int], blocked: list[list[int]], bits: list[int]
) -> list | None:
    """Greedy cover of C by cliques of its conflict graph, y and z
    conflicting when z is in P[y] | bx[y] (see the module docstring), and
    by at-most-two parts, built from the highest vertex down. A clique costs
    one unit of room and an at-most-two part two.

    A clique whose top y conflicts with no vertex left would be a singleton;
    while two units of room are left, y's neighbours z left in C are scanned
    instead, highest first, for a w left in blocked[y][z], and the first
    such {y, z, w} seeds a part. It grows highest first: u joins when every
    pair p, q in it has u in blocked[p][q] | Q[p] | Q[q]. Each pair's term
    reads only its own two members' tables; Q[y] meets nothing left, so the
    pairs with y test blocked[y][q] | Q[q].

    Returns None when the cover fits in room. Otherwise it fills in the
    child table, Q[y] = P[y] | bx[y] for every y in C, and returns the
    child's frame but its cells (see :func:`_run_gp`): its parts then cost
    all of room, and the frame holds the vertices they left over. spare
    counts the vertices the parts must still hold beyond their cost for the
    cover to fit.
    """
    spare = C.bit_count() - room
    if spare <= 0:
        return None
    cands, cost = C, room
    while room:
        room -= 1
        y = C.bit_length() - 1
        C ^= 1 << y
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
                        return None
                    room -= 1
                    w = W.bit_length() - 1
                    C ^= 1 << z | 1 << w
                    Q[z] = qz = P[z] | bx[z]
                    Q[w] = qw = P[w] | bx[w]
                    # grow the part, each pair's term from its own two members
                    K = C & (row[z] | qz)
                    if K:
                        K &= (row[w] | qw) & (blocked[z][w] | qz | qw)
                    members = [z, w]
                    while K:
                        spare -= 1
                        if not spare:
                            return None
                        u = K.bit_length() - 1
                        C ^= 1 << u
                        Q[u] = qu = P[u] | bx[u]
                        K &= C & (row[u] | qu)
                        for p in members:
                            K &= blocked[p][u] | Q[p] | qu
                        members.append(u)
                    break
                N ^= 1 << z
            continue
        while K:
            spare -= 1
            if not spare:
                return None
            y = K.bit_length() - 1
            C ^= 1 << y
            Q[y] = q = P[y] | bx[y]
            K &= q
    frame = [cands, Q, None, C, cost]
    while C:  # it does not fit: fill in the vertices it has not taken
        y = C.bit_length() - 1
        C ^= 1 << y
        Q[y] = P[y] | bx[y]
    return frame


def _run_gp(
    g: Graph, clock: SearchClock, masks: Callable[[list[int], SearchClock], list[list[int]] | None]
) -> tuple[int, VertexSet]:
    """Largest vertex set with no forbidden triple. masks(bits, clock) gives
    blocked[a][b], the bitmask of the y with {a, b, y} forbidden, on the
    internal ids, as one int per unordered pair, shared by blocked[a][b]
    and blocked[b][a]; or None once the deadline passes. An order past
    :data:`~genpos.graph.MAX_SEARCH_N` raises InputError before any table
    is built."""
    n = g.n
    _check_search_order(n)
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

    # Depth-first search on an explicit stack of frames [C, P, A, left,
    # room], one per prefix chosen[:i], with C, P and A as in the module
    # docstring (A is None once Stab(chosen[:i]) moves nothing), left the
    # vertices the frame's cover left over and room what its parts cost, so
    # min(|C|, room + |left & C|) bounds the vertices a set below chosen[:i]
    # may add. A child's room is best_size - i when it opens, so the frame
    # closes by the time left & C is spent. The root leaves every vertex
    # over at room 0. A branch on x ends at one site, reached when x's frame
    # is closed by that tail bound, or when the cover closes it before it
    # opens; there x's whole orbit under its parent's stabilizer leaves the
    # parent's C, unless the parent's tail bound is about to close it.
    # len(chosen) never exceeds best_size.
    tick = clock.tick
    chosen: list[int] = []
    frames = [[(1 << n) - 1, [0] * n, root, (1 << n) - 1, 0]]
    while frames:
        C, P, A, left, room = frame = frames[-1]
        if C and not tick():
            break
        R = left & C
        if len(chosen) + min(C.bit_count(), room + R.bit_count()) > best_size:
            xbit = R & -R
            C ^= xbit
            frame[0] = C
            x = xbit.bit_length() - 1
            chosen.append(x)
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = chosen.copy()
            newC = C & ~P[x]
            Q = P.copy()
            child = _cover(newC, P, blocked[x], best_size - len(chosen), Q, blocked, bits)
            if child:
                # some set below chosen may beat the incumbent: open the child
                child[2] = A and _refine(A, xs[x], ground)
                frames.append(child)
                continue
            # no set below chosen beats the incumbent: x's branch is done
        else:
            # frame done: its branch ends in its parent
            frames.pop()
            if not frames:
                break
            C, _, A, left, room = frame = frames[-1]
        x = chosen.pop()
        if A is not None and len(chosen) + min(C.bit_count(), room + (left & C).bit_count()) > best_size:
            frame[0] = C & ~_orbit(C, xs[x], A, M)
    return best_size, _to_original(best, order)


def gp_exact(g: Graph, budget: Budget | None = None) -> GpResult:
    """Maximum general position set by branch and bound.

    Budget exhaustion degrades to status "lower-bound".
    """
    clock = SearchClock(budget)
    return clock.result(*_run_gp(g, clock, _conflict_masks), "exact")


gp_auto = gp_exact  # the old name, kept for perfbench/, which still imports it


# --- maximum clique ---------------------------------------------------------


def _color_bound(P: int, bits: list[int]) -> tuple[list[int], list[int]]:
    # Greedy coloring of P; vertices listed in nondecreasing color, so the
    # color doubles as an upper bound on any clique inside the prefix.
    verts: list[int] = []
    bound: list[int] = []
    color = 0
    rest = P
    while rest:
        color += 1
        q = rest
        taken = 0
        while q:
            b = q & -q
            v = b.bit_length() - 1
            verts.append(v)
            bound.append(color)
            taken |= b
            q &= ~(bits[v] | b)
        rest &= ~taken
    return verts, bound


def _run_omega(g: Graph, clock: SearchClock) -> tuple[int, VertexSet]:
    tick = clock.tick
    if g.n == 0 or not tick():
        return 0, ()
    bits, order = _degree_order(g)
    best_size = 0
    best_mask = 0

    # Depth-first search on an explicit stack, one frame per coloured
    # candidate set P: [vertices in colour order, their colour bounds, count
    # of vertices not yet branched on, P minus those done, size, members].
    # Branching runs from the highest colour down; one tick per colouring.
    P = (1 << g.n) - 1
    verts, bound = _color_bound(P, bits)
    stack = [[verts, bound, len(verts), P, 0, 0]]
    while stack:
        frame = stack[-1]
        verts, bound, i, P, size, members = frame
        i -= 1
        if i < 0 or size + bound[i] <= best_size:
            stack.pop()
            continue
        v = verts[i]
        vbit = 1 << v
        frame[2] = i
        frame[3] = P ^ vbit
        child = P & bits[v]
        if child:
            if not tick():
                break
            verts, bound = _color_bound(child, bits)
            stack.append([verts, bound, len(verts), child, size + 1, members | vbit])
        elif size + 1 > best_size:
            best_size = size + 1
            best_mask = members | vbit
    return best_size, _to_original(_iter_bits(best_mask), order)


def omega(g: Graph, budget: Budget | None = None) -> GpResult:
    """Clique number ω(g) with a maximum-clique witness."""
    clock = SearchClock(budget)
    return clock.result(*_run_omega(g, clock), "omega")


def alpha(g: Graph, budget: Budget | None = None) -> GpResult:
    """Independence number α(g), computed as ω of the complement."""
    clock = SearchClock(budget)
    return clock.result(*_run_omega(complement(g), clock), "alpha")


# --- ρ and η: the gp loop on induced-P3 masks ------------------------------


def _p3_masks(bits: list[int], clock: SearchClock) -> list[list[int]] | None:
    """blocked[a][b]: bitmask of the y with {a, b, y} inducing a P_3, i.e.
    spanning two edges: N(a) ^ N(b) without a and b when a ~ b, else
    N(a) & N(b). On closed neighbourhoods N[v] these are N[a] ^ N[b] and
    N[a] & N[b]. Row a reuses the ints of its pairs (b, a), b < a, so the
    table holds one int per unordered pair, the format :func:`_run_gp` asks
    for. None once the deadline passes (checked once per row, no node)."""
    closed = [nb | 1 << b for b, nb in enumerate(bits)]
    blocked = []
    for a, ca in enumerate(closed):
        if clock.expired():
            return None
        own = [ca ^ cb if ca >> b & 1 else ca & cb for b, cb in enumerate(closed[a:], a)]
        blocked.append([row[a] for row in blocked] + own)
    return blocked


def rho(g: Graph, budget: Budget | None = None) -> GpResult:
    """ρ(g): maximum vertices covered by pairwise independent cliques."""
    clock = SearchClock(budget)
    return clock.result(*_run_gp(g, clock, _p3_masks), "rho")


eta = rho  # η = ρ: see the module docstring
