"""Exact graph invariants: ω, α, η, ρ.

ω and α run a Tomita-style branch-and-bound over vertex bitsets with a
greedy-coloring upper bound (α as ω of the complement).

η asks for the maximum order of an induced complete multipartite subgraph of
the complement; ρ for the maximum number of vertices in a union of pairwise
independent complete subgraphs. Both reduce to the same subset condition on
the graph itself: G[S] must be a disjoint union of cliques, i.e. P_3-free
(for η because complement(G)[S] is complete multipartite exactly when
non-adjacency is transitive on S; for ρ because vertices in different
components of G[S] are automatically at distance ≥ 2). A single part is
admitted as complete multipartite — the edgeless complement of a clique —
so η(G) ≥ ω(G) here; this matches how the k=1 case behaves in the product
proofs that rely on η. The two public names therefore run one search and
share one predicate (:func:`is_cluster_set`); the test suite checks η = ρ
against brute-force oracles written separately for each definition.

Both searches have the loop shape of the gp search in :mod:`genpos.solver`:
depth-first on an explicit stack, so Python's recursion limit does not bound
their depth. An ω frame holds a coloured candidate set; a ρ frame holds the
candidates not yet branched on. ρ keeps no component list: every candidate
sees none of the chosen set S or exactly one of its cliques, so when x joins
S a candidate dies if it sees just one of x and the clique x joins (``bx ^
near``, with ``near`` the union of the neighbourhoods of x's neighbours in
S) or, when x starts a clique, if it sees x and another clique (``bx &
far``, with ``far`` the union over the rest of S).

All searches are deterministic: vertices are branched in descending-degree
order (ties by id) and the incumbent is replaced only on strict improvement,
so for ``status="exact"`` the witness is reproducible. When the budget runs
out the loop ends and the best set found so far is returned with
``status="lower-bound"``; no search raises for running out of budget. Each
returns the gp search's :class:`~genpos.budget.GpResult`, with ``method``
"omega", "alpha" or "rho" (η returns ρ's result).
"""

from __future__ import annotations

from .budget import Budget, GpResult, SearchClock
from .graph import Graph, VertexSet, complement, connected_components, induced_subgraph


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


# --- maximum induced cluster subgraph (shared by eta and rho) ---------------


def is_cluster_set(g: Graph, members) -> bool:
    """True iff g[members] is a disjoint union of cliques (P_3-free)."""
    h = induced_subgraph(g, members)
    return all(len(h.adj[v]) == len(comp) - 1 for comp in connected_components(h) for v in comp)


def _run_cluster(g: Graph, clock: SearchClock) -> tuple[int, VertexSet]:
    """Largest S with g[S] a disjoint union of cliques."""
    bits, order = _degree_order(g)
    best: list[int] = []
    best_size = 0

    # The loop shape of solver._run_gp: stack[i] holds the candidates not yet
    # branched on below chosen[:i], each of which sees none of chosen[:i] or
    # exactly one of its cliques. len(chosen) never exceeds best_size.
    tick = clock.tick
    chosen: list[int] = []
    stack = [(1 << g.n) - 1]
    while stack:
        C = stack[-1]
        if C and not tick():
            break
        if len(chosen) + C.bit_count() <= best_size:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        xbit = C & -C
        C ^= xbit
        stack[-1] = C
        x = xbit.bit_length() - 1
        bx = bits[x]
        near = far = 0
        for s in chosen:
            if bx >> s & 1:
                near |= bits[s]
            else:
                far |= bits[s]
        chosen.append(x)
        if len(chosen) > best_size:
            best_size = len(chosen)
            best = chosen.copy()
        # x joins the clique it sees, or starts a new one: a candidate must
        # see x and that clique both or neither, or not see x and a clique
        newC = C & ~(bx ^ near if near else bx & far)
        if newC:
            stack.append(newC)
        else:
            chosen.pop()
    return best_size, _to_original(best, order)


def rho(g: Graph, budget: Budget | None = None) -> GpResult:
    """ρ(g): maximum vertices covered by pairwise independent cliques."""
    clock = SearchClock(budget)
    return clock.result(*_run_cluster(g, clock), "rho")


def eta(g: Graph, budget: Budget | None = None) -> GpResult:
    """η(g): maximum order of an induced complete multipartite subgraph of
    the complement; equivalently the largest S with g[S] a cluster graph.

    The same search as :func:`rho`, with the same result."""
    return rho(g, budget)
