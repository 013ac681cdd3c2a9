"""Core graph type and metric operations.

Graphs are finite, simple, and undirected. Vertices are the integers
``0..n-1``. Disconnected graphs are first class: unreachable pairs carry the
dedicated sentinel :data:`INFINITY` (``math.inf``), whose arithmetic is
absorbing (``finite + INFINITY == INFINITY``) and which never compares equal
to a finite distance. The sentinel is deliberately not a large integer, so a
sum of distances can never silently overflow into a plausible value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InputError

INFINITY = math.inf

# A VertexSet is a strictly increasing tuple of vertex identifiers.
VertexSet = tuple[int, ...]


def vertex_set(members: Iterable[int], n: int | None = None) -> VertexSet:
    """Canonicalize ``members`` into a sorted, duplicate-free tuple.

    When ``n`` is given, every member must lie in ``[0, n)``.
    """
    vs = tuple(sorted(set(members)))
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"vertex identifiers must be integers, got {v!r}")
        if v < 0 or (n is not None and v >= n):
            raise InputError(f"vertex {v} out of range for a graph on {n} vertices")
    return vs


@dataclass(frozen=True, slots=True)
class GroundAction:
    """A group acting on a graph through ground sets, one per coordinate.

    ``points[v][c]`` is the bitmask over coordinate c's ground set
    ``{0..sizes[c]-1}`` that vertex v stands for: the k-subset of a Kneser
    vertex, the two ends of an edge of K_n in L(K_n), the one vertex of a
    complete or edgeless factor in a Cartesian product. Sym(sizes[c])
    permutes coordinate c's ground set, independently for each c. The claim
    that these permutations are automorphisms is checked by the solver
    before it relies on it.
    """

    sizes: tuple[int, ...]
    points: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph with O(1) adjacency membership.

    ``adj[v]`` is the neighbor set of ``v``. ``labels``, when present, gives
    one opaque string per vertex (for example the k-subset a Kneser vertex
    stands for); labels take no part in adjacency or distance computations.
    ``action``, when present, is a symmetry the constructor knows (see
    :class:`GroundAction`); it takes no part in equality, and every graph
    built otherwise, including every graph read from a file, has none.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[str, ...] | None = None
    action: GroundAction | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise InputError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise InputError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise InputError(f"labels has {len(self.labels)} entries for n={self.n}")
        for v, nbrs in enumerate(self.adj):
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise InputError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise InputError(f"self-loop at vertex {v}")
                if v not in self.adj[u]:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
        action: GroundAction | None = None,
    ) -> "Graph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(
            n,
            tuple(frozenset(s) for s in nbrs),
            None if labels is None else tuple(labels),
            action,
        )

    def neighbors(self, v: int) -> frozenset[int]:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range")
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


@dataclass(frozen=True, slots=True)
class DistanceMatrix:
    """All-pairs shortest-path distances; unreachable pairs hold INFINITY."""

    n: int
    d: tuple[tuple[float, ...], ...]

    def dist(self, u: int, v: int) -> float:
        return self.d[u][v]

    def is_finite(self, u: int, v: int) -> bool:
        return self.d[u][v] != INFINITY


def distances(g: Graph) -> DistanceMatrix:
    """Exact unweighted shortest-path distances, one BFS per source."""
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
    return DistanceMatrix(g.n, tuple(rows))


def diameter(g: Graph) -> float:
    """Max pairwise distance; INFINITY when g is disconnected; 0 when n <= 1."""
    if g.n <= 1:
        return 0
    dm = distances(g)
    worst: float = 0
    for row in dm.d:
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
