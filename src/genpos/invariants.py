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
proofs that rely on η. So both names run one search on :func:`_p3_masks`
(:func:`is_cluster_set` only checks membership); tests check η = ρ against
brute-force oracles written separately for each definition.

ρ is the gp search of :mod:`genpos.solver` on other masks: its loop looks
for a largest vertex set with no forbidden triple, and for ρ a triple is
forbidden when it induces a P_3. So ρ inherits the gp search's clique-cover
bound and orbit pruning (automorphisms keep induced P_3s), its explicit
stack, and its n × n mask table, so ρ takes O(n²) memory. ω runs its own
loop, also depth-first on an explicit stack, so Python's recursion limit
bounds no search's depth.

All searches are deterministic: vertices are branched in descending-degree
order (ties by id) and the incumbent is replaced only on strict improvement,
so for ``status="exact"`` the witness is reproducible. When the budget runs
out the loop ends and the best set found so far is returned with
``status="lower-bound"``; no search raises for running out of budget. Each
returns the gp search's :class:`~genpos.budget.GpResult`, with ``method``
"omega", "alpha" or "rho" (``eta`` is ``rho``, the same function).
"""

from __future__ import annotations

from .budget import Budget, GpResult, SearchClock
from .graph import Graph, VertexSet, complement, connected_components, induced_subgraph
from .solver import _degree_order, _iter_bits, _run_gp, _to_original


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


def _p3_masks(bits: list[int], clock: SearchClock) -> list[list[int]] | None:
    """blocked[a][b]: bitmask of the y with {a, b, y} inducing a P_3, i.e.
    spanning two edges: N(a) ^ N(b) without a and b when a ~ b, else
    N(a) & N(b). On closed neighbourhoods N[v] these are N[a] ^ N[b] and
    N[a] & N[b]. None once the deadline passes (checked once per source
    row, counting no node)."""
    closed = [nb | 1 << b for b, nb in enumerate(bits)]
    blocked = []
    for a, ca in enumerate(closed):
        if clock.expired():
            return None
        blocked.append([ca ^ cb if ca >> b & 1 else ca & cb for b, cb in enumerate(closed)])
    return blocked


def rho(g: Graph, budget: Budget | None = None) -> GpResult:
    """ρ(g): maximum vertices covered by pairwise independent cliques."""
    clock = SearchClock(budget)
    return clock.result(*_run_gp(g, clock, _p3_masks), "rho")


# η(g), the maximum order of an induced complete multipartite subgraph of the
# complement, is the largest S with g[S] a cluster graph, which is ρ(g)
# (module docstring); so η is ρ, one function, and its method is "rho"
eta = rho
