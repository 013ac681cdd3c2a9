"""Core graph type and metric operations.

Graphs are finite, simple, and undirected. Vertices are the integers
``0..n-1``: :class:`Graph` holds the one rule for graph data (see
:func:`_is_index`), so every graph that builds can be written and read
back. :func:`distances` hands out plain rows, ``d[u][v]``. Disconnected
graphs are first class: unreachable pairs carry the sentinel
:data:`INFINITY` (``math.inf``), whose arithmetic is absorbing
(``finite + INFINITY == INFINITY``) and which never compares equal to a
finite distance. The sentinel is deliberately not a large integer, so a
sum of distances can never silently overflow into a plausible value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InputError, digit_limit

INFINITY = math.inf

# A VertexSet is a strictly increasing tuple of vertex identifiers.
VertexSet = tuple[int, ...]


MAX_N = 1 << 18  # the order limit: every graph that builds fits graph6's 18-bit order field


def _is_index(x, bound: float = INFINITY) -> bool:
    """The one rule for graph data: a vertex id (bound n), a vertex count
    (bound :data:`MAX_N`) or a block size (no bound) is an ``int`` that is
    not a ``bool``, in ``[0, bound)``; labels, which :class:`Graph` checks,
    are strings."""
    return type(x) is int and 0 <= x < bound


def _check_count(n) -> None:
    if not _is_index(n, MAX_N):
        rule = f"vertex count must be an integer in [0, {MAX_N}), got"
        with digit_limit(f"{rule} one"):
            raise InputError(f"{rule} {n!r}")


def vertex_set(members: Iterable[int], n: int | None = None) -> VertexSet:
    """Canonicalize ``members``, vertex ids in ``[0, n)`` when ``n`` is
    given, into a sorted, duplicate-free tuple."""
    members = list(members)
    bound = INFINITY if n is None else n
    for v in members:
        if not _is_index(v, bound):
            raise InputError(f"vertex {v!r} is not an integer in [0, {bound})")
    return tuple(sorted(set(members)))


@dataclass(frozen=True, slots=True)
class GroundAction:
    """A group acting on a graph through one ground set split into blocks.

    ``points[v]`` is the bitmask over the ground set ``{0..sum(sizes)-1}``
    that vertex v stands for: the k-subset of a Kneser vertex, the two ends
    of an edge of K_n in L(K_n), one element of each block for a vertex of
    a product of complete or edgeless graphs. Block c is the bit range
    ``[offset, offset + sizes[c])``, with offset ``sum(sizes[:c])``, and
    Sym(sizes[c]) permutes it, independently for each c. A :class:`Graph`
    built with an action checks that these permutations are automorphisms.
    """

    sizes: tuple[int, ...]
    points: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph with O(1) adjacency membership.

    ``adj[v]`` is the neighbor set of ``v``. ``labels``, when present, gives
    one opaque string per vertex (for example the k-subset a Kneser vertex
    stands for); labels take no part in adjacency or distance computations.
    Data that breaks the rule of :func:`_is_index` raises InputError.
    ``action``, when present, is a symmetry the constructor knows (see
    :class:`GroundAction`), checked when the graph is built: an action that
    is not one by automorphisms raises InputError. It takes no part in
    equality, and every graph built otherwise, including every graph read
    from a file, has none.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[str, ...] | None = None
    action: GroundAction | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.n
        _check_count(n)
        if len(self.adj) != n:
            raise InputError(f"adjacency has {len(self.adj)} rows for n={n}")
        if self.labels is not None and not (len(self.labels) == n and all(isinstance(x, str) for x in self.labels)):
            raise InputError(f"labels must be {n} strings, one per vertex")
        for v, nbrs in enumerate(self.adj):
            for u in nbrs:
                if type(u) is not int or not 0 <= u < n:  # _is_index, inline for speed
                    raise InputError(f"neighbor {u!r} of vertex {v} is not an integer in [0, {n})")
                if u == v:
                    raise InputError(f"self-loop at vertex {v}")
                if v not in self.adj[u]:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")
        if self.action is not None:
            _check_action(self)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
        action: GroundAction | None = None,
    ) -> "Graph":
        _check_count(n)
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):  # _is_index, inline for speed
                raise InputError(f"edge ({u!r},{v!r}) is not a pair of integers in [0, {n})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(
            n,
            tuple(frozenset(s) for s in nbrs),
            None if labels is None else tuple(labels),
            action,
        )

    def neighbors(self, v: int) -> frozenset[int]:
        if not _is_index(v, self.n):
            raise InputError(f"vertex {v!r} is not an integer in [0, {self.n})")
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and v in self.neighbors(u)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2


def _generators(offset: int, size: int):
    """Permutations of the block ``[offset, offset + size)`` that generate
    Sym(size), acting on bitmasks: the transposition of its first two
    elements and, when size > 2, the cycle e -> e + 1 (for size 2 the cycle
    is the transposition)."""
    if size < 2:
        return ()
    low = 1 << offset
    pair = 3 << offset
    block = ((1 << size) - 1) << offset

    def swap(m: int) -> int:
        return m ^ pair if (m ^ m >> 1) & low else m

    def turn(m: int) -> int:
        b = m & block
        return m ^ b | (b << 1 & block) | (b >> (size - 1) & low)

    return (swap,) if size == 2 else (swap, turn)


def _check_action(g: Graph) -> None:
    """Raise InputError unless g.action acts on g by automorphisms.

    Each of :func:`_generators`, block by block, must map every vertex's
    point to a vertex's point and the neighbours of every vertex onto the
    neighbours of its image; a bijection of the vertices that keeps edges
    is an automorphism.
    """
    a = g.action
    if not all(_is_index(size) for size in a.sizes):
        raise InputError(f"ground action: sizes {a.sizes!r} must be nonnegative integers")
    if len(a.points) != g.n:
        raise InputError(f"ground action has {len(a.points)} points for n={g.n}")
    full = 1 << sum(a.sizes)
    for v, p in enumerate(a.points):
        if not _is_index(p, full):
            raise InputError(f"ground action: vertex {v} has point {p!r} outside ground sets {a.sizes}")
    index = {p: v for v, p in enumerate(a.points)}
    if len(index) != g.n:
        raise InputError("ground action: two vertices share one point")
    offset = 0
    for c, size in enumerate(a.sizes):
        for move in _generators(offset, size):
            image = []
            for v, p in enumerate(a.points):
                w = index.get(move(p))
                if w is None:
                    raise InputError(f"ground action: permuting block {c} maps vertex {v} to no vertex")
                image.append(w)
            for v, nbrs in enumerate(g.adj):
                if {image[u] for u in nbrs} != g.adj[image[v]]:
                    raise InputError(f"ground action: permuting block {c} does not keep the edges at vertex {v}")
        offset += size


def distances(g: Graph) -> tuple[tuple[float, ...], ...]:
    """Exact unweighted shortest-path distances, one BFS per source: row u
    holds d(u, v) at index v, and INFINITY where v is unreachable."""
    adj_lists = [tuple(g.adj[v]) for v in range(g.n)]
    rows = []
    for src in range(g.n):
        dist: list[float] = [INFINITY] * g.n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            du = dist[u] + 1
            for w in adj_lists[u]:
                if dist[w] == INFINITY:
                    dist[w] = du
                    q.append(w)
        rows.append(tuple(dist))
    return tuple(rows)


def diameter(g: Graph) -> float:
    """Max pairwise distance; INFINITY when g is disconnected; 0 when n <= 1."""
    if g.n <= 1:
        return 0
    worst: float = 0
    for row in distances(g):
        m = max(row)
        if m == INFINITY:
            return INFINITY
        worst = max(worst, m)
    return worst


def complement(g: Graph) -> Graph:
    """Same vertices (labels kept); uv is an edge iff u != v and uv not in g."""
    full = frozenset(range(g.n))
    return Graph(
        g.n,
        tuple(full - g.adj[v] - {v} for v in range(g.n)),
        g.labels,
    )


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced by ``s``, relabeled 0..|s|-1 in sorted order of s."""
    vs = vertex_set(s, g.n)
    index = {v: i for i, v in enumerate(vs)}
    adj = tuple(
        frozenset(index[u] for u in g.adj[v] if u in index) for v in vs
    )
    labels = None if g.labels is None else tuple(g.labels[v] for v in vs)
    return Graph(len(vs), adj, labels)


def connected_components(g: Graph) -> list[VertexSet]:
    """Partition of the vertices into components, each sorted, ordered by min."""
    seen = [False] * g.n
    comps: list[VertexSet] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        q = deque([start])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    q.append(w)
        comps.append(tuple(sorted(comp)))
    return comps  # already ordered by min member: starts scan in order


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1
