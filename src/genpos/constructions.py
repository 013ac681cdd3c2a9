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
They stream their edges and labels into ``Graph.from_edges``, so its order
check runs before an edge is drawn; one that lists a point per vertex first
hands its order to that check before it does. ``kneser`` and ``line_graph``
list their edges directly, in time proportional to their number.

Some constructors also attach the symmetry they know as a
:class:`~genpos.graph.GroundAction`: ``complete`` and ``edgeless`` (Sym(n)
on the vertices), ``kneser`` (Sym(n) on {1..n}), ``line_graph`` of any
complete graph, with or without an action (Sym(n) on the ends of the
edges), and ``cartesian_product`` of two factors that both carry one, which
puts h's ground set above g's, so that each factor's blocks keep their bits.
The graph checks the action when it is built. Every other graph, including
a product with an action-free factor such as K_q □ C_m, has no action.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

from .errors import InputError
from .graph import MAX_N, Graph, GroundAction, _check_count


def _sym(size: int, masks) -> GroundAction:
    """Sym(size) acting on one block whose vertices are ``masks``."""
    return GroundAction((size,), tuple(masks))


def complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise InputError(f"complete(n) needs n >= 1, got {n}")
    _check_count(n)  # before the action lists a point per vertex
    return Graph.from_edges(n, combinations(range(n), 2), action=_sym(n, (1 << v for v in range(n))))


def edgeless(n: int) -> Graph:
    """The empty graph on n vertices."""
    if n < 1:
        raise InputError(f"edgeless(n) needs n >= 1, got {n}")
    _check_count(n)  # before the action lists a point per vertex
    return Graph.from_edges(n, [], action=_sym(n, (1 << v for v in range(n))))


def path(n: int) -> Graph:
    """P_n on vertices 0..n-1 in order."""
    if n < 1:
        raise InputError(f"path(n) needs n >= 1, got {n}")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """C_n on vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise InputError(f"cycle(n) needs n >= 3, got {n}")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


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
    # C(n, k) >= 2^min(k, n - k), so this refuses without comb, whose time grows with k
    if min(k, n - k) >= (log2_max := MAX_N.bit_length() - 1):
        raise InputError(f"kneser(n, k) has at least 2^{log2_max} vertices when min(k, n - k) >= {log2_max}")
    _check_count(comb(n, k))  # before the subsets and their points are listed
    verts = ksubsets(n, k)
    points = [sum(1 << (e - 1) for e in v) for v in verts]
    index = {p: i for i, p in enumerate(points)}
    bits = [1 << e for e in range(n)]
    # a k-subset w disjoint from v follows it in lex order iff min(w) > min(v), so
    # listing the k-subsets of the elements above min(v) that miss v gives each edge once
    edges = (
        (i, index[sum(w)])
        for i, p in enumerate(points)
        for w in combinations([b for b in bits if b > p & -p and not b & p], k)
    )
    labels = ("{" + ",".join(map(str, v)) + "}" for v in verts)
    return Graph.from_edges(len(verts), edges, labels, _sym(n, points))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """G □ H with vertex (a, b) at id a * h.n + b."""
    ng, nh = g.n, h.n
    _check_count(ng * nh)  # before the action lists a point per vertex
    h_edges = h.edges()
    edges = chain(
        ((a * nh + b, a * nh + b2) for a in range(ng) for b, b2 in h_edges),
        ((a * nh + b, a2 * nh + b) for a, a2 in g.edges() for b in range(nh)),
    )
    labels = (f"({a},{b})" for a in range(ng) for b in range(nh))
    ag, ah = g.action, h.action
    action = None
    if ag is not None and ah is not None:
        shift = sum(ag.sizes)
        action = GroundAction(ag.sizes + ah.sizes, tuple(pa | pb << shift for pa in ag.points for pb in ah.points))
    return Graph.from_edges(ng * nh, edges, labels, action)


def join(g: Graph, h: Graph) -> Graph:
    """G + H: disjoint union plus every cross edge, g's vertices first."""
    shifted = ((u + g.n, v + g.n) for u, v in h.edges())
    cross = ((u, v + g.n) for u in range(g.n) for v in range(h.n))
    return Graph.from_edges(g.n + h.n, chain(g.edges(), shifted, cross))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G ∪ H, g's vertices first, no cross edges."""
    return Graph.from_edges(g.n + h.n, chain(g.edges(), ((u + g.n, v + g.n) for u, v in h.edges())))


def corona(g: Graph, h: Graph) -> Graph:
    """G ∘ H: a private copy of H per vertex of G, joined to that vertex.

    Layout: centers 0..g.n-1, then copy i occupying g.n + i*h.n .. +h.n-1.
    """
    if g.n < 1:
        raise InputError("corona(g, h) needs at least one center vertex")
    ng, nh = g.n, h.n
    h_edges = h.edges()
    copies = ((ng + i * nh + u, ng + i * nh + v) for i in range(ng) for u, v in h_edges)
    spokes = ((i, ng + i * nh + j) for i in range(ng) for j in range(nh))
    return Graph.from_edges(ng * (1 + nh), chain(g.edges(), copies, spokes))


def line_graph(g: Graph) -> Graph:
    """L(G): one vertex per edge of g, adjacent iff the edges share an end."""
    edge_list = g.edges()  # already sorted by (min, max)
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edge_list):
        incident[u].append(i)
        incident[v].append(i)
    # two edges of a simple graph share at most one end, so each pair is listed once
    edges = chain.from_iterable(combinations(at, 2) for at in incident)
    labels = (f"{{{u},{v}}}" for u, v in edge_list)
    action = None
    if len(edge_list) == g.n * (g.n - 1) // 2:
        action = _sym(g.n, (1 << u | 1 << v for u, v in edge_list))
    return Graph.from_edges(len(edge_list), edges, labels, action)
