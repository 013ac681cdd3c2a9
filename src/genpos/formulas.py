"""Closed-form gp predictions with constructive witnesses.

Each predictor returns a :class:`Prediction` rather than raising on
out-of-range parameters, so a verification sweep can distinguish "the
formula is silent here" from "the formula disagrees with the solver".
Witnesses are emitted in the canonical vertex labelings of
:mod:`genpos.constructions`, which keeps regression output byte-stable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

from .errors import InputError
from .graph import MAX_N, Graph, VertexSet, vertex_set
from .constructions import _comb_log2_lower, ksubset_index


@dataclass(frozen=True, slots=True)
class Prediction:
    """A formula's output: an exact value or an interval, plus a witness.

    Exactly one of ``value`` / (``lower``, ``upper``) is populated when
    applicable; ``upper`` may be None for a one-sided bound. ``witness``
    is present when the argument is constructive and the graph not too large.
    """

    applicable: bool
    value: int | None = None
    lower: int | None = None
    upper: int | None = None
    witness: VertexSet | None = None
    reason: str = ""

    @property
    def interval(self) -> tuple[int | None, int | None]:
        """(lower, upper) with an exact value collapsing to a point."""
        if self.value is not None:
            return self.value, self.value
        return self.lower, self.upper


def _na(reason: str) -> Prediction:
    return Prediction(applicable=False, reason=reason)


def _negative(**args: int | None) -> Prediction | None:
    """Not applicable, naming the first negative argument; None if there is none."""
    for name, v in args.items():
        if v is not None and v < 0:
            return _na(f"needs {name} >= 0, got {v}")
    return None


def _capped(order: int, witness) -> VertexSet | None:
    """``witness()``, or None when the graph is past the order limit
    (``graph.MAX_N``): every prediction's witness follows this rule."""
    return witness() if order < MAX_N else None


def _printable_comb(n: int, k: int) -> int:
    """C(n, k); once its lower bound 2^b (b from ``constructions._comb_log2_lower``) is too long to print,
    Python's ValueError for that (see :func:`genpos.errors.digit_limit`) instead, raised before ``comb``."""
    limit = sys.get_int_max_str_digits()
    # 2^b has more than `limit` digits iff 2^b > 10^limit iff b >= bit_length(10^limit)
    if limit and _comb_log2_lower(n, k) >= (10**limit).bit_length():
        raise ValueError(f"C(n, k) has more than {limit} digits")
    return comb(n, k)


def kneser_star_witness(n: int, k: int) -> VertexSet | None:
    """Ids in kneser(n, k) of all k-subsets containing the element 1, which
    come first in lex order; None past the graph6 order limit."""
    return _capped(comb(n, k), lambda: tuple(range(comb(n - 1, k - 1))))


def gp_kneser2(n: int) -> Prediction:
    """gp(K(n,2)): 6 for 4 <= n <= 6, n-1 for n >= 7.

    Witness: the six 2-subsets of {1..4} (three independent edges) in the
    small range, the star {{1,j}} for n >= 7.
    """
    if n < 4:
        return _na(f"needs n >= 4, got {n}")
    if n <= 6:
        witness = tuple(
            sorted(ksubset_index(n, pair) for pair in combinations(range(1, 5), 2))
        )
        return Prediction(True, value=6, witness=witness)
    return Prediction(True, value=n - 1, witness=kneser_star_witness(n, 2))


def gp_kneser3(n: int) -> Prediction:
    """gp(K(n,3)): 20 for n = 6, C(n-1,2) for n >= 7.

    Witness: every vertex of K(6,3) (which is 10K_2), else the star of
    3-subsets containing 1.
    """
    if n < 6:
        return _na(f"needs n >= 6, got {n}")
    if n == 6:
        return Prediction(True, value=20, witness=tuple(range(20)))
    return Prediction(True, value=comb(n - 1, 2), witness=kneser_star_witness(n, 3))


def kneser_condition(n: int, k: int) -> Prediction:
    """Sufficient condition for gp(K(n,k)) = C(n-1,k-1) with star witness.

    Requires n >= 3k-1 (so that K(n,k) has diameter 2) and, for every
    t in [2, k]:  k^t * C(n-t, k-t) + t <= C(n-1, k-1).
    """
    if k < 2:
        return _na(f"needs k >= 2, got k={k}")
    if n < 3 * k - 1:
        return _na(f"needs n >= 3k-1 = {3 * k - 1} for diameter 2, got n={n}")
    target = _printable_comb(n - 1, k - 1)
    for t in range(2, k + 1):
        lhs = k**t * comb(n - t, k - t) + t
        if lhs > target:
            return _na(f"inequality fails at t={t}: {lhs} > {target}")
    return Prediction(True, value=target, witness=kneser_star_witness(n, k))


def gp_cartesian_lower(gp_g: int, gp_h: int, n_g: int | None = None, n_h: int | None = None) -> Prediction:
    """gp(G □ H) >= gp(G) + gp(H) - 2 for connected factors.

    The trivial upper bound n(G)·n(H) is attached when the orders are
    supplied; connectivity of the factors is the caller's responsibility
    (only the gp values travel in). A connected factor has 1 <= gp <= n.
    """
    if (na := _negative(gp_g=gp_g, gp_h=gp_h, n_g=n_g, n_h=n_h)) is not None:
        return na
    for name, n, gp in (("n_g", n_g, gp_g), ("n_h", n_h, gp_h)):
        if n is not None and n < max(1, gp):
            return _na(f"needs {name} >= max(1, gp_{name[-1]}) = {max(1, gp)}, got {n}")
    upper = n_g * n_h if n_g is not None and n_h is not None else None
    return Prediction(True, lower=gp_g + gp_h - 2, upper=upper)


def cartesian_witness(g: Graph, s_g, h: Graph, s_h, anchor_g: int, anchor_h: int) -> VertexSet:
    """The cross set ((S_G × {h0}) ∪ ({g0} × S_H)) \\ {(g0, h0)}.

    Size |S_G| + |S_H| - 2, in general position in G □ H whenever S_G and
    S_H are in general position in the (connected) factors. Ids follow the
    product labeling (a, b) -> a·n(H) + b.
    """
    sg = vertex_set(s_g, g.n)
    sh = vertex_set(s_h, h.n)
    if anchor_g not in sg:
        raise InputError(f"anchor {anchor_g} is not in the G-side set")
    if anchor_h not in sh:
        raise InputError(f"anchor {anchor_h} is not in the H-side set")
    ids = {a * h.n + anchor_h for a in sg} | {anchor_g * h.n + b for b in sh}
    ids.discard(anchor_g * h.n + anchor_h)
    return tuple(sorted(ids))


def hamming_witness(ns) -> VertexSet:
    """Union of the axis sets X_i in K_{n1} □ ... □ K_{nk}.

    X_i holds the points all-0 except coordinate i running over 1..n_i-1.
    Ids use the left-fold product labeling: (a_1,...,a_k) has the
    mixed-radix id ((a_1·n_2 + a_2)·n_3 + ...) + a_k.
    """
    dims = list(ns)
    if len(dims) < 2 or any(d < 2 for d in dims):
        raise InputError(f"needs k >= 2 factors, each of order >= 2, got {dims}")
    weights = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        weights[i] = weights[i + 1] * dims[i + 1]
    ids = {j * weights[i] for i, d in enumerate(dims) for j in range(1, d)}
    return tuple(sorted(ids))


def hamming_lower(ns) -> Prediction:
    """gp(K_{n1} □ ... □ K_{nk}) >= Σn_i - k; equality when k = 2."""
    dims = list(ns)
    if len(dims) < 2:
        return _na(f"needs at least two factors, got {len(dims)}")
    if any(d < 2 for d in dims):
        return _na(f"every factor needs order >= 2, got {dims}")
    bound = sum(dims) - len(dims)
    witness = _capped(prod(dims), lambda: hamming_witness(dims))
    if len(dims) == 2:
        return Prediction(True, value=bound, witness=witness)
    return Prediction(True, lower=bound, upper=None, witness=witness)


def gp_join(omega_g: int, omega_h: int, rho_g: int, rho_h: int) -> Prediction:
    """gp(G + H) = max{ω(G)+ω(H), ρ(G), ρ(H)}.

    The paper states this with η as well; η = ρ here (a single clique counts
    as a complete multipartite complement, see :mod:`genpos.solver`), so
    the η form is the same number. Two complete factors need no special case:
    ω(G)+ω(H) = n(G)+n(H) already bounds ρ.
    """
    if (na := _negative(omega_g=omega_g, omega_h=omega_h, rho_g=rho_g, rho_h=rho_h)) is not None:
        return na
    return Prediction(True, value=max(omega_g + omega_h, rho_g, rho_h))


def gp_corona(n_g: int, rho_h: int) -> Prediction:
    """gp(G ∘ H) = n(G)·ρ(H) for n(G) >= 2."""
    if n_g < 2:
        return _na(f"needs n(G) >= 2, got {n_g}")
    if (na := _negative(rho_h=rho_h)) is not None:
        return na
    return Prediction(True, value=n_g * rho_h)


def _edge_index(n: int, u: int, v: int) -> int:
    # position of edge (u, v), u < v, in the lex-ordered edge list of K_n
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def gp_line_complete(n: int) -> Prediction:
    """gp(L(K_n)): n when 3 | n, else n-1.

    Witness when 3 | n: the edges of a partition of K_n into n/3 vertex
    disjoint triangles. Otherwise: the n-1 edges at vertex 0, a maximum
    clique of L(K_n).
    """
    if n < 3:
        return _na(f"needs n >= 3, got {n}")
    if n % 3 == 0:
        value, edges = n, ((a + i, a + j) for a in range(0, n, 3) for i, j in ((0, 1), (0, 2), (1, 2)))
    else:
        value, edges = n - 1, ((0, v) for v in range(1, n))
    witness = _capped(comb(n, 2), lambda: tuple(sorted(_edge_index(n, u, v) for u, v in edges)))
    return Prediction(True, value=value, witness=witness)


def ekr_bound(n: int, k: int) -> Prediction:
    """Erdős–Ko–Rado: α(K(n,k)) <= C(n-1,k-1) for n >= 2k (star attains)."""
    if k < 1 or n < 2 * k:
        return _na(f"EKR bound needs n >= 2k >= 2, got n={n}, k={k}")
    return Prediction(True, value=_printable_comb(n - 1, k - 1))
