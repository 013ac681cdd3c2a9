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

A set S is in general position when no member lies on a geodesic between
two others; a triple touching INFINITY never violates, as no geodesic joins
its ends (the finiteness guards of :func:`is_general_position` are
load-bearing, since ``INFINITY == x + INFINITY``). :func:`is_general_position`
tests that definition on the rows of :func:`distances`, and
:func:`characterization_check` the structural characterization on the same
rows: the components of G[S] are cliques whose vertex sets form a
distance-constant, in-transitive partition; it returns that partition or the
first condition that fails. :func:`is_cluster_set` checks a ρ witness, G[S]
a disjoint union of cliques. This module imports nothing from
:mod:`genpos.solver`, so no check shares code with the searches it checks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError, digit_limit

INFINITY = math.inf

# A VertexSet is a strictly increasing tuple of vertex identifiers.
VertexSet = tuple[int, ...]


# the order limit: graph6 writes orders from 258,048 up in its 8-byte '~~'
# form, so every graph that builds has a 1-byte or a '~' plus 3-byte header
MAX_N = 258048


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


# the order limit of the gp and ρ searches, whose mask table holds one mask of
# up to n bits per unordered pair. Under a 600,000 KiB address-space limit gp
# on P_1900 and ρ on G(1700, 1/2) fit (549 and 484 MB peak RSS) and gp on
# P_2000 raises MemoryError. At 1,200 the peaks are 160 MB (gp, P_1200), 226 MB
# (gp and ρ, G(1200, 1/2)) and 263 MB (ρ, G(1200, 0.9)), the largest measured.
MAX_SEARCH_N = 1200


def _check_search_order(n: int) -> None:
    if n > MAX_SEARCH_N:
        raise InputError(f"gp and rho search graphs of at most {MAX_SEARCH_N} vertices, got {n}")


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
    a product. Block c is the bit range ``[offset, offset + sizes[c])``,
    with offset ``sum(sizes[:c])``, and the group ``groups[c]`` acts on it,
    independently for each c: ``"sym"``, Sym(sizes[c]); ``"dihedral"``, D_n
    on the block's cyclic order, n = sizes[c]; ``"mirror"``, the reversal
    e -> n - 1 - e. In a dihedral or mirror block every point holds exactly
    one element. A :class:`Graph` built with an action checks that rule and
    that the groups act by automorphisms.
    """

    sizes: tuple[int, ...]
    points: tuple[int, ...]
    groups: tuple[str, ...]


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


def _generators(offset: int, size: int, group: str):
    """Permutations of the block ``[offset, offset + size)`` that generate
    its group, acting on bitmasks: the cycle e -> e + 1 and the reflection
    e -> -e for D_size, the reversal e -> size - 1 - e for the mirror (both
    read a point's one element of the block), and for Sym(size) the
    transposition of its first two elements and, when size > 2, the cycle
    (for size 2 the cycle is the transposition)."""
    if size < 2:
        return ()
    low = 1 << offset
    pair = 3 << offset
    block = ((1 << size) - 1) << offset
    t = 0 if group == "dihedral" else size - 1

    def swap(m: int) -> int:
        return m ^ pair if (m ^ m >> 1) & low else m

    def turn(m: int) -> int:
        b = m & block
        return m ^ b | (b << 1 & block) | (b >> (size - 1) & low)

    def reflect(m: int) -> int:  # e -> t - e
        b = m & block
        return m ^ b | low << (t + offset + 1 - b.bit_length()) % size

    if group == "sym":
        return (swap,) if size == 2 else (swap, turn)
    return (turn, reflect) if group == "dihedral" else (reflect,)


def _check_action(g: Graph) -> None:
    """Raise InputError unless g.action acts on g by automorphisms.

    Each of :func:`_generators`, block by block, must map every vertex's
    point to a vertex's point, and so permute the vertices, and every edge
    onto an edge; a bijection of the vertices that keeps edges is an
    automorphism.
    """
    a = g.action
    if not all(_is_index(size) for size in a.sizes):
        raise InputError(f"ground action: sizes {a.sizes!r} must be nonnegative integers")
    if len(a.groups) != len(a.sizes) or not all(gr in ("sym", "dihedral", "mirror") for gr in a.groups):
        raise InputError(f"ground action: groups {a.groups!r} must name sym, dihedral or mirror per block")
    if len(a.points) != g.n:
        raise InputError(f"ground action has {len(a.points)} points for n={g.n}")
    full = 1 << sum(a.sizes)
    for v, p in enumerate(a.points):
        if not _is_index(p, full):
            raise InputError(f"ground action: vertex {v} has point {p!r} outside ground sets {a.sizes}")
    index = {p: v for v, p in enumerate(a.points)}
    if len(index) != g.n:
        raise InputError("ground action: two vertices share one point")
    adj = g.adj
    offset = 0
    for c, (size, group) in enumerate(zip(a.sizes, a.groups)):
        block = ((1 << size) - 1) << offset
        if group != "sym" and any((p & block).bit_count() != 1 for p in a.points):
            raise InputError(f"ground action: a point holds other than one element of {group} block {c}")
        for move in _generators(offset, size, group):
            image = []
            for v, p in enumerate(a.points):
                w = index.get(move(p))
                if w is None:
                    raise InputError(f"ground action: permuting block {c} maps vertex {v} to no vertex")
                image.append(w)
            for v, nbrs in enumerate(adj):
                if not adj[image[v]].issuperset(map(image.__getitem__, nbrs)):
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
    """Max pairwise distance; INFINITY when g is disconnected; 0 when n <= 1.
    One bitset BFS per source; the first source that misses a vertex ends it."""
    nbits = [sum(1 << u for u in nbrs) for nbrs in g.adj]
    diam = 0
    for src in range(g.n):
        ecc, seen, frontier = -1, 1 << src, 1 << src
        while frontier:
            ecc, reach = ecc + 1, 0
            while frontier:
                v = frontier.bit_length() - 1
                frontier ^= 1 << v
                reach |= nbits[v]
            frontier = reach & ~seen
            seen |= frontier
        if seen.bit_count() < g.n:
            return INFINITY
        diam = max(diam, ecc)
    return diam


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


def is_cluster_set(g: Graph, members) -> bool:
    """True iff g[members] is a disjoint union of cliques (P_3-free)."""
    h = induced_subgraph(g, members)
    return all(len(h.adj[v]) == len(comp) - 1 for comp in connected_components(h) for v in comp)
