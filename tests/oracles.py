"""Brute-force reference implementations, independent of the package.

Everything here works from a plain ``(n, edges)`` pair with its own data
structures: Floyd-Warshall instead of BFS, subset enumeration instead of
branch and bound, definitional triple scans instead of precomputed
conflict masks. Slow on purpose; disagreement with genpos means a bug.
The integer programs ``gp_ilp`` and ``rho_ilp`` need scipy, and they check
the search loop that gp and rho share. ``gp_ilp`` takes distance rows from
its caller: the tests pass ``genpos.distances``, the float BFS that the gp
search does not use.
"""

import itertools

INF = float("inf")


def dist_matrix(n, edges):
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def violating(d, a, b, c):
    """True when one of a, b, c lies on a geodesic between the other two."""
    for u, w, v in ((a, b, c), (b, a, c), (a, c, b)):
        if d[u][v] == INF or d[u][w] == INF or d[w][v] == INF:
            continue  # a triple that leaves the component never violates
        if d[u][v] == d[u][w] + d[w][v]:
            return True
    return False


def is_gp(d, subset):
    return not any(violating(d, a, b, c) for a, b, c in itertools.combinations(subset, 3))


def gp_enum(n, edges):
    """Exact gp by subset DP over bitmasks; returns (value, witness).

    ok[mask] extends ok[mask minus lowest bit]: general position is
    hereditary, so only triples through the new vertex need checking.
    """
    if n == 0:
        return 0, ()
    d = dist_matrix(n, edges)
    viol = [[0] * n for _ in range(n)]
    for a, b, c in itertools.combinations(range(n), 3):
        if violating(d, a, b, c):
            viol[a][b] |= 1 << c
            viol[b][a] |= 1 << c
            viol[a][c] |= 1 << b
            viol[c][a] |= 1 << b
            viol[b][c] |= 1 << a
            viol[c][b] |= 1 << a
    ok = bytearray(1 << n)
    ok[0] = 1
    best, best_mask = 0, 0
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if not ok[rest]:
            continue
        vv = viol[v]
        m = rest
        good = True
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if vv[u] & rest:
                good = False
                break
        if good:
            ok[mask] = 1
            pc = mask.bit_count()
            if pc > best:
                best, best_mask = pc, mask
    return best, tuple(i for i in range(n) if best_mask >> i & 1)


def gp_enum_slow(n, edges):
    """Same answer as gp_enum via a direct top-down subset scan (n <= ~10)."""
    d = dist_matrix(n, edges)
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if is_gp(d, combo):
                return r, combo
    return 0, ()


def largest_extension(d, s, c):
    """Largest general position T with s <= T <= s + c, by a top-down scan
    of the subsets of c (|c| <= ~12); None when s itself is not in general
    position."""
    for r in range(len(c), -1, -1):
        for combo in itertools.combinations(c, r):
            if is_gp(d, tuple(s) + combo):
                return tuple(s) + combo
    return None


def _adj_matrix(n, edges):
    a = [[False] * n for _ in range(n)]
    for u, v in edges:
        a[u][v] = a[v][u] = True
    return a


def omega_enum(n, edges):
    a = _adj_matrix(n, edges)
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(a[u][v] for u, v in itertools.combinations(combo, 2)):
                return r
    return 0


def alpha_enum(n, edges):
    a = _adj_matrix(n, edges)
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if not any(a[u][v] for u, v in itertools.combinations(combo, 2)):
                return r
    return 0


def rho_enum(n, edges):
    """Max vertices inducing a disjoint union of cliques.

    A graph is a disjoint union of cliques iff it has no induced P_3,
    i.e. no three vertices spanning exactly two edges.
    """
    a = _adj_matrix(n, edges)
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(
                a[x][y] + a[x][z] + a[y][z] != 2
                for x, y, z in itertools.combinations(combo, 3)
            ):
                return r
    return 0


def eta_enum(n, edges):
    """Max order of an induced complete multipartite subgraph of the complement.

    Complete multipartite (single-class graphs included) == no induced
    K_2 + K_1: no three vertices spanning exactly one edge. Evaluated on
    complement adjacency, so this shares no arithmetic with rho_enum.
    """
    a = _adj_matrix(n, edges)
    c = [[not a[i][j] and i != j for j in range(n)] for i in range(n)]
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(
                c[x][y] + c[x][z] + c[y][z] != 1
                for x, y, z in itertools.combinations(combo, 3)
            ):
                return r
    return 0


def _ilp_max(n, triples):
    """Largest subset of range(n) holding no triple of ``triples`` whole, as
    a 0-1 integer program: maximise the sum of x subject to x_a + x_b + x_c
    <= 2 per triple, solved by ``scipy.optimize.milp`` (HiGHS). Returns
    (value, witness)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    if n == 0:
        return 0, ()
    constraints = []
    if triples:
        cols = np.array(triples).ravel()
        rows = np.repeat(np.arange(len(triples)), 3)
        a = csr_array((np.ones(len(cols)), (rows, cols)), shape=(len(triples), n))
        constraints = [LinearConstraint(a, -np.inf, 2)]
    res = milp(-np.ones(n), constraints=constraints, integrality=np.ones(n), bounds=Bounds(0, 1))
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    witness = tuple(int(i) for i in np.flatnonzero(np.round(res.x)))
    if len(witness) != round(-res.fun):
        raise RuntimeError(f"milp solution {witness} does not match objective {-res.fun}")
    return len(witness), witness


def gp_ilp(d):
    """Exact gp as a 0-1 integer program over the distance rows ``d``: no
    collinear triple whole. The triples come from a definitional scan of
    ``d``, not from any conflict mask. Returns (value, witness)."""
    n = len(d)
    return _ilp_max(n, [t for t in itertools.combinations(range(n), 3) if violating(d, *t)])


def rho_ilp(n, edges):
    """Exact rho as a 0-1 integer program: no induced P_3 whole, the triples
    (three vertices spanning exactly two edges) read off a plain adjacency
    matrix. Returns (value, witness)."""
    a = _adj_matrix(n, edges)
    triples = [
        (x, y, z)
        for x, y, z in itertools.combinations(range(n), 3)
        if a[x][y] + a[x][z] + a[y][z] == 2
    ]
    return _ilp_max(n, triples)
