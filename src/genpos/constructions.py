"""Constructors for the graph families the theorems speak about.

Vertex orderings are canonical and documented per constructor, so witnesses
built from vertex ids are reproducible across runs:

* ``kneser(n, k)``: vertices are the k-subsets of {1..n} in lexicographic
  order (vertex 0 is {1,...,k}); labels look like ``"{1,2}"``.
* ``cartesian_product(g, h)``: pair (a, b) gets id ``a * h.n + b`` (row-major);
  labels look like ``"(a,b)"``.
* ``join(g, h)`` / ``disjoint_union(g, h)``: vertices of g first, then h.
* ``corona(g, h)``: the n(g) centers first, then the copies of h in blocks;
  vertex j of copy i sits at ``g.n + i * h.n + j``.
* ``line_graph(g)``: vertices are the edges of g sorted by (min, max)
  endpoint; labels look like ``"{u,v}"``.

Constructors validate their inputs but never relabel or canonicalize them.

Some constructors also attach the symmetry they know as a
:class:`~genpos.graph.GroundAction`: ``complete`` and ``edgeless`` (Sym(n)
on the vertices), ``kneser`` (Sym(n) on {1..n}), ``line_graph`` of a
complete graph that carries its action (Sym(n) on the ends of the edges),
and ``cartesian_product`` of two factors that both carry one, which puts
h's ground set above g's, so that each factor's blocks keep their bits.
The graph checks the action when it is built. Every other graph, including
a product with an action-free factor such as K_q □ C_m, has no action.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import InputError
from .graph import Graph, GroundAction


def _sym(size: int, masks) -> GroundAction:
    """Sym(size) acting on one block whose vertices are ``masks``."""
    return GroundAction((size,), tuple(masks))


def complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise InputError(f"complete(n) needs n >= 1, got {n}")
    return Graph.from_edges(
        n, combinations(range(n), 2), action=_sym(n, (1 << v for v in range(n)))
    )


def edgeless(n: int) -> Graph:
    """The empty graph on n vertices."""
    if n < 1:
        raise InputError(f"edgeless(n) needs n >= 1, got {n}")
    return Graph.from_edges(n, [], action=_sym(n, (1 << v for v in range(n))))


def path(n: int) -> Graph:
    """P_n on vertices 0..n-1 in order."""
    if n < 1:
        raise InputError(f"path(n) needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """C_n on vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise InputError(f"cycle(n) needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def ksubsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} in lexicographic order."""
    return list(combinations(range(1, n + 1), k))


def ksubset_index(n: int, subset: tuple[int, ...]) -> int:
    """Rank of a sorted k-subset of {1..n} in lexicographic order.

    Inverse of ``ksubsets(n, k)[i]``; lets witness builders name Kneser
    vertices by their label sets.
    """
    k = len(subset)
    if list(subset) != sorted(set(subset)) or not subset or subset[0] < 1 or subset[-1] > n:
        raise InputError(f"not a sorted subset of [1..{n}]: {subset!r}")
    rank = 0
    prev = 0
    for i, a in enumerate(subset):
        for j in range(prev + 1, a):
            rank += comb(n - j, k - i - 1)
        prev = a
    return rank


def kneser(n: int, k: int) -> Graph:
    """Kneser graph K(n, k): k-subsets of {1..n}, adjacent iff disjoint."""
    if k < 1 or n < k:
        raise InputError(f"kneser(n, k) needs n >= k >= 1, got n={n}, k={k}")
    verts = ksubsets(n, k)
    sets = [frozenset(v) for v in verts]
    edges = [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if sets[i].isdisjoint(sets[j])
    ]
    labels = ["{" + ",".join(map(str, v)) + "}" for v in verts]
    action = _sym(n, (sum(1 << (e - 1) for e in v) for v in verts))
    return Graph.from_edges(len(verts), edges, labels, action)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """G □ H with vertex (a, b) at id a * h.n + b."""
    nh = h.n
    edges = []
    for a in range(g.n):
        for b, b2 in h.edges():
            edges.append((a * nh + b, a * nh + b2))
    for a, a2 in g.edges():
        for b in range(nh):
            edges.append((a * nh + b, a2 * nh + b))
    labels = [f"({a},{b})" for a in range(g.n) for b in range(nh)]
    ag, ah = g.action, h.action
    action = None
    if ag is not None and ah is not None:
        shift = sum(ag.sizes)
        points = tuple(pa | pb << shift for pa in ag.points for pb in ah.points)
        action = GroundAction(ag.sizes + ah.sizes, points)
    return Graph.from_edges(g.n * nh, edges, labels, action)


def join(g: Graph, h: Graph) -> Graph:
    """G + H: disjoint union plus every cross edge, g's vertices first."""
    off = g.n
    edges = list(g.edges())
    edges += [(u + off, v + off) for u, v in h.edges()]
    edges += [(u, v + off) for u in range(g.n) for v in range(h.n)]
    return Graph.from_edges(g.n + h.n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G ∪ H, g's vertices first, no cross edges."""
    off = g.n
    edges = list(g.edges()) + [(u + off, v + off) for u, v in h.edges()]
    return Graph.from_edges(g.n + h.n, edges)


def corona(g: Graph, h: Graph) -> Graph:
    """G ∘ H: a private copy of H per vertex of G, joined to that vertex.

    Layout: centers 0..g.n-1, then copy i occupying g.n + i*h.n .. +h.n-1.
    """
    if g.n < 1:
        raise InputError("corona(g, h) needs at least one center vertex")
    edges = list(g.edges())
    for i in range(g.n):
        base = g.n + i * h.n
        edges += [(base + u, base + v) for u, v in h.edges()]
        edges += [(i, base + j) for j in range(h.n)]
    return Graph.from_edges(g.n * (1 + h.n), edges)


def line_graph(g: Graph) -> Graph:
    """L(G): one vertex per edge of g, adjacent iff the edges share an end."""
    edge_list = g.edges()  # already sorted by (min, max)
    m = len(edge_list)
    edges = []
    for i, j in combinations(range(m), 2):
        a, b = edge_list[i]
        c, d = edge_list[j]
        if a == c or a == d or b == c or b == d:
            edges.append((i, j))
    labels = ["{" + f"{u},{v}" + "}" for u, v in edge_list]
    a = g.action
    action = None
    if a is not None and len(a.sizes) == 1 and m == g.n * (g.n - 1) // 2:
        action = _sym(a.sizes[0], (a.points[u] | a.points[v] for u, v in edge_list))
    return Graph.from_edges(m, edges, labels, action)
