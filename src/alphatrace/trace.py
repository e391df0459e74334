"""Exact spectral moments of the weighted degree/adjacency tensor.

For a k-uniform hypergraph H on n vertices, the tensor under study is
T(alpha) = alpha * D + (1 - alpha) * A, where D is the diagonal degree
tensor and A the adjacency tensor (edge entries 1/(k-1)!).  The d-th
moment is the power sum of its n(k-1)^{n-1} eigenvalues.  It equals a
weighted sum over index assignments: each assignment contributes the
product of its tensor entries times a closed-walk count of the arc
digraph its rows induce.  Order 0 is no special case: its one (empty)
assignment counts n(k-1)^{n-1} = (k-1)^{n-1} sum deg^0 eigenvalues.

Two independent evaluation routes are implemented:

* ``trace_bruteforce``: direct enumeration of assignments, grouped by
  arc star (root plus target multiset); the (k-1)! row permutations of
  an edge row collapse against the 1/(k-1)! entry, so each edge row
  carries weight (1-alpha) and each diagonal row alpha * deg(v).
  Unbalanced or disconnected digraphs are pruned.  It refuses orders
  needing more than ``MAX_ASSIGNMENT_CLASSES`` classes with
  ``BudgetExceeded``.
* ``trace_structural``: the same sum reorganized over connected
  k-valent sub-multigraphs (Veblen infragraphs).  An assignment with a
  nonzero walk count consists of edge rows whose multiset forms such an
  infragraph -- each vertex v then roots exactly deg(v)/k rows -- plus
  diagonal rows confined to its vertices.  The sum splits into an
  order-free part and a cheap per-order part.  The order-free part,
  cached per (hypergraph, edge-row count e), is an integer per degree
  multiset: each infragraph's rooting-weighted in-arborescence sum,
  filed under the host degrees of its vertices, vertex v listed
  deg_F(v)/k times.  That rooting sum depends only on the infragraph's
  shape (its rows on vertices renumbered by F-degree, incident-row
  signatures and host label), so it is cached per shape, in one cache
  shared by every hypergraph and every order of the process: K6 minus
  a path roots 127 shapes for its 2,314 infragraphs up to order 8, and
  a relabelled host roots few or none.  Spreading t diagonal rows over
  those vertices weighs the infragraph by the complete homogeneous
  symmetric polynomial h_t of that multiset (from
  sum_j (r+j-1)! (x y)^j / j! = (r-1)! (1 - x y)^{-r}, x a host
  degree), so order d needs one
  h_{d-e} per multiset and one ``Fraction`` per entry of the moment
  table.  The infragraphs with e rows come from a walk over the edges
  in order that fixes one multiplicity per edge: an edge that is the
  last one at some vertex may only take multiplicities that make that
  vertex's degree a multiple of k, so the walk steps through one
  residue class mod k, and it ends a branch as soon as the e rows are
  spent.  This is the production path; it is cheap on trees and
  unicyclic inputs but grows quickly with order on dense ones.  Each
  walk is capped at ``MAX_WALK_NODES`` partial assignments and raises
  ``BudgetExceeded`` with (k, n, m, e, nodes, infragraphs so far) past
  it.

Both routes produce a table indexed by (diagonal rows, edge rows) and
build the moment polynomial from it; the degree-tensor slice
(alpha = 1), the adjacency slice (alpha = 0) and the signless-Laplacian
scaling (2^d times alpha = 1/2) are evaluations of that polynomial.
``trace`` is the structural route; ``check_against_bruteforce`` is the
one cross-check of any route's result against the brute force.

Closed forms: orders 0..k-1 are pure degree moments; order k adds a
term linear in the edge count; order k+1 adds the degree square sum and
one term per complete subhypergraph on k+1 vertices, weighted by that
subhypergraph's rooted spanning-tree sum W' (the same W' the structural
route caches; there are none in a linear hypergraph with k >= 3);
order k+2 is assembled from per-edge degree correlations and the same
W' times the degree sum of each complete subhypergraph.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .digraph import count_in_arborescences
from .errors import BudgetExceeded, MethodDisagreement, UnsupportedError
from .hypergraph import Hypergraph, complete_subhypergraphs, connects
from .polynomial import AlphaPoly, basis_term

MAX_ASSIGNMENT_CLASSES = 2_000_000
MAX_WALK_NODES = 10_000_000
TRACE_CACHE_SIZE = 16384

Components = dict[tuple[int, int], Fraction]


def degree_moment(h: Hypergraph, d: int) -> Fraction:
    """The d-th moment of the pure degree tensor: (k-1)^{n-1} sum deg^d."""
    return Fraction((h.k - 1) ** (h.n - 1) * sum(x**d for x in h.degrees()))


def phi(h: Hypergraph, s: int) -> AlphaPoly:
    """(k-1)^{n-1} * (sum of deg^s) * alpha^s, the pure-degree monomial."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return AlphaPoly.monomial(s, degree_moment(h, s))


def components_to_poly(comp: Components) -> AlphaPoly:
    out = AlphaPoly.zero()
    for (t, e), value in sorted(comp.items()):
        out = out + basis_term(t, e) * value
    return out


# ---------------------------------------------------------------------------
# Brute force over assignment classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Star:
    root: int
    targets: tuple[int, ...]
    diag: bool


def _star_classes(h: Hypergraph) -> list[_Star]:
    stars = [_Star(v, (v,) * (h.k - 1), True) for v in range(h.n)]
    for e in h.edges:
        for r in e:
            stars.append(_Star(r, tuple(x for x in e if x != r), False))
    return stars


def brute_components(h: Hypergraph, d: int) -> Components:
    """Moment table by direct enumeration of assignment classes."""
    if d == 0:
        return {(0, 0): Fraction(h.n * (h.k - 1) ** (h.n - 1))}
    stars = _star_classes(h)
    S = len(stars)
    estimate = math.comb(S + d - 1, d)
    if estimate > MAX_ASSIGNMENT_CLASSES:
        raise BudgetExceeded(
            f"assignment enumeration needs {estimate} classes (cap {MAX_ASSIGNMENT_CLASSES})",
            {"classes": estimate, "cap": MAX_ASSIGNMENT_CLASSES, "order": d},
        )
    km1 = h.k - 1
    deg = h.degrees()
    comp: Components = defaultdict(Fraction)
    out = defaultdict(int)
    inn = defaultdict(int)
    chosen: list[tuple[int, int]] = []

    def apply_star(st: _Star, sign: int) -> int:
        if st.diag:
            out[st.root] += sign * km1
            inn[st.root] += sign * km1
            return 0
        delta = 0
        before = abs(out[st.root] - inn[st.root])
        out[st.root] += sign * km1
        delta += abs(out[st.root] - inn[st.root]) - before
        for t in st.targets:
            before = abs(out[t] - inn[t])
            inn[t] += sign
            delta += abs(out[t] - inn[t]) - before
        return delta

    def leaf():
        arcs: dict[tuple[int, int], int] = defaultdict(int)
        rows_at = defaultdict(int)
        diag_at = defaultdict(int)
        total_diag = 0
        for si, c in chosen:
            st = stars[si]
            rows_at[st.root] += c
            if st.diag:
                diag_at[st.root] += c
                total_diag += c
                arcs[(st.root, st.root)] += c * km1
            else:
                for t in st.targets:
                    arcs[(st.root, t)] += c
        support = sorted({u for u, _ in arcs} | {v for _, v in arcs})
        if not connects(support, arcs):
            return
        tau = count_in_arborescences(arcs, support, support[0])
        if tau == 0:
            return
        num = d * km1 * tau
        den = 1
        for v in support:
            num *= math.factorial(rows_at[v])
            den *= km1 * rows_at[v]
        for _, c in chosen:
            den *= math.factorial(c)
        for v, cnt in diag_at.items():
            num *= deg[v] ** cnt
        comp[(total_diag, d - total_diag)] += Fraction(num, den)

    def rec(si: int, rem: int, imbalance: int):
        if rem == 0:
            if imbalance == 0:
                leaf()
            return
        if si == S or imbalance > 2 * km1 * rem:
            return
        rec(si + 1, rem, imbalance)
        st = stars[si]
        applied = 0
        for c in range(1, rem + 1):
            imbalance += apply_star(st, 1)
            applied += 1
            chosen.append((si, c))
            rec(si + 1, rem - c, imbalance)
            chosen.pop()
        for _ in range(applied):
            imbalance += apply_star(st, -1)

    rec(0, d, 0)
    scale = (h.k - 1) ** (h.n - 1)
    return {key: value * scale for key, value in comp.items()}


def trace_bruteforce(h: Hypergraph, d: int) -> AlphaPoly:
    """The d-th moment by assignment enumeration (exact, budget-capped)."""
    return components_to_poly(brute_components(h, d))


def check_against_bruteforce(
    h: Hypergraph, d: int, poly: AlphaPoly, route: str = "structural"
) -> None:
    """Raise ``MethodDisagreement`` unless ``poly``, the d-th moment by
    ``route``, equals ``trace_bruteforce(h, d)``."""
    ref = trace_bruteforce(h, d)
    if ref != poly:
        raise MethodDisagreement(
            f"moment of order {d} disagrees between methods",
            {
                "order": d,
                "hypergraph": h.to_json_dict(),
                route: poly.to_json(),
                "bruteforce": ref.to_json(),
            },
        )


def trace_decomposed(h: Hypergraph, d: int) -> tuple[AlphaPoly, AlphaPoly, AlphaPoly]:
    """Split the brute-force sum by row kinds into (w1, w2, w3).

    w1 collects all-diagonal assignments, w2 all-edge, w3 mixed; the
    full moment is (k-1)^{n-1} (w1 + w2 + w3).
    """
    if d < 1:
        raise ValueError("decomposition defined for d >= 1")
    comp = brute_components(h, d)
    scale = Fraction(1, (h.k - 1) ** (h.n - 1))
    w1 = basis_term(d, 0) * (comp.get((d, 0), Fraction(0)) * scale)
    w2 = basis_term(0, d) * (comp.get((0, d), Fraction(0)) * scale)
    w3 = AlphaPoly.zero()
    for (t, e), value in sorted(comp.items()):
        if 0 < t < d:
            w3 = w3 + basis_term(t, e) * (value * scale)
    return w1, w2, w3


# ---------------------------------------------------------------------------
# Connected k-valent infragraphs and the structural route
# ---------------------------------------------------------------------------

def _veblen_vectors(
    h: Hypergraph, total: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(edge_indices, multiplicities) of all connected k-valent infragraphs
    with total multiplicity exactly ``total``, in lexicographic order of
    the multiplicity vector.

    Edge i closes the vertices whose last edge it is, so its multiplicity
    must be -deg(v) mod k for each of them: the walk steps through that
    residue class only, and stops at once where two closing vertices
    disagree.  When the budget runs out, one check over the vertices still
    open settles the rest.  Each visited partial assignment counts against
    ``MAX_WALK_NODES``.
    """
    m, k = h.m, h.k
    if m == 0 or total < 1:
        return []
    last_edge = {}
    for i, e in enumerate(h.edges):
        for v in e:
            last_edge[v] = i
    close_at: list[list[int]] = [[] for _ in range(m)]
    for v, i in last_edge.items():
        close_at[i].append(v)
    open_from = [[v for v, last in last_edge.items() if last >= i] for i in range(m + 1)]
    deg = dict.fromkeys(last_edge, 0)
    mu = [0] * m
    found = []
    nodes = 0

    def rec(i: int, budget: int):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_WALK_NODES:
            raise BudgetExceeded(
                f"infragraph walk of a {k}-graph with n={h.n}, m={m} at e={total} "
                f"edge rows passed {MAX_WALK_NODES} nodes; "
                f"infragraphs found so far: {len(found)}",
                {"k": k, "n": h.n, "m": m, "e": total, "nodes": nodes,
                 "infragraphs": len(found)},
            )
        if budget == 0:
            if all(deg[v] % k == 0 for v in open_from[i]):
                support = [j for j in range(i) if mu[j]]
                edges = [h.edges[j] for j in support]
                if connects({v for e in edges for v in e}, edges):
                    found.append((tuple(support), tuple(mu[j] for j in support)))
            return
        if i == m:
            return
        close = close_at[i]
        if close:
            start = -deg[close[0]] % k
            for v in close[1:]:
                if (deg[v] + start) % k:
                    return
            step = k
        else:
            start, step = 0, 1
        e = h.edges[i]
        c = start
        for v in e:
            deg[v] += c
        while c <= budget:
            mu[i] = c
            rec(i + 1, budget - c)
            c += step
            for v in e:
                deg[v] += step
        for v in e:
            deg[v] -= c
        mu[i] = 0

    rec(0, total)
    return found


Shape = tuple[tuple[tuple[int, ...], int], ...]


def _infragraph_shape(
    h: Hypergraph, support: tuple[int, ...], mu: tuple[int, ...]
) -> tuple[Shape, dict[int, int]]:
    """The infragraph's edge rows on relabelled vertices, and deg_F by host vertex.

    Vertices are numbered 0..|V|-1 in order of deg_F(v), then of the sorted
    signatures (mu, sorted deg_F of its vertices) of their incident rows,
    then of host label; the shape is the sorted tuple of (vertex tuple, mu)
    rows.  Equal shapes are the same labelled infragraph, so they share W';
    isomorphic infragraphs whose ties fall differently merely get two
    shapes.
    """
    edges = [h.edges[i] for i in support]
    deg_f = dict.fromkeys([v for e in edges for v in e], 0)
    for e, c in zip(edges, mu):
        for v in e:
            deg_f[v] += c
    incident: dict[int, list] = {v: [] for v in deg_f}
    for e, c in zip(edges, mu):
        signature = (c, sorted([deg_f[v] for v in e]))
        for v in e:
            incident[v].append(signature)
    keys = sorted([(deg_f[v], sorted(sigs), v) for v, sigs in incident.items()])
    label = {key[2]: i for i, key in enumerate(keys)}
    rows = [(tuple(sorted([label[v] for v in e])), c) for e, c in zip(edges, mu)]
    return tuple(sorted(rows)), deg_f


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _rooted_tree_weight(shape: Shape) -> int:
    """W' of an infragraph shape: the sum, over every way to root its edge
    rows (row (e, mu) stands for mu rows of edge e, and vertex v roots
    deg_F(v)/k of them, k the row length), of the in-arborescence count of
    the induced arc digraph times prod_j multinomial(mu_j; rooting of edge
    j).  0 when no rooting exists.  Shared by every hypergraph and order."""
    k = len(shape[0][0])
    edges = [e for e, _ in shape]
    verts = list(range(1 + max(v for e in edges for v in e)))
    deg_f = [0] * len(verts)
    last = [0] * len(verts)
    for j, (e, c) in enumerate(shape):
        for v in e:
            deg_f[v] += c
            last[v] = j
    left = [r // k for r in deg_f]
    arcs: dict[tuple[int, int], int] = defaultdict(int)
    total = 0

    def root(j: int, weight: int):
        nonlocal total
        if j == len(edges):
            total += weight * count_in_arborescences(arcs, verts, 0)
        else:
            place(j, 0, shape[j][1], weight)

    def place(j: int, vi: int, rows: int, weight: int):
        # vertex v = edges[j][vi] roots c of edge j's ``rows`` unrooted rows
        e = edges[j]
        v = e[vi]
        lo = rows if vi == len(e) - 1 else 0
        if last[v] == j:
            lo = max(lo, left[v])  # no later edge can meet v's quota
        for c in range(lo, min(rows, left[v]) + 1):
            left[v] -= c
            for x in e:
                if x != v:
                    arcs[(v, x)] += c
            w = weight * math.comb(rows, c)
            if vi == len(e) - 1:
                root(j + 1, w)
            else:
                place(j, vi + 1, rows - c, w)
            left[v] += c
            for x in e:
                if x != v:
                    arcs[(v, x)] -= c

    root(0, 1)
    return total


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _infragraph_table(h: Hypergraph, e: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The order-free part of the structural sum over the infragraphs F
    with exactly e edge rows, as sorted (degrees, C) pairs.

    ``degrees`` is a sorted multiset of host degrees in which each vertex v
    of F appears rho_v = deg_F(v)/k times; C sums, over the infragraphs
    sharing it, (k-1)^{n-|V(F)|} * e!/prod mu_j! * prod_v (rho_v - 1)! * W'
    (see ``_rooted_tree_weight``, which is keyed by F's shape).
    Infragraphs without a rooting add nothing and are left out.
    """
    k = h.k
    deg = h.degrees()
    table: dict[tuple[int, ...], int] = defaultdict(int)
    for support, mu in _veblen_vectors(h, e):
        shape, deg_f = _infragraph_shape(h, support, mu)
        w = _rooted_tree_weight(shape)
        if not w:
            continue
        rho = {v: r // k for v, r in deg_f.items()}
        w *= (k - 1) ** (h.n - len(rho)) * math.factorial(e)
        for c in mu:
            w //= math.factorial(c)
        for r in rho.values():
            w *= math.factorial(r - 1)
        table[tuple(sorted(deg[v] for v, r in rho.items() for _ in range(r)))] += w
    return tuple(sorted(table.items()))


def _complete_homogeneous(values: tuple[int, ...], t: int) -> int:
    """h_t(values): the sum of all degree-t monomials in ``values``."""
    h = [1] + [0] * t
    for x in values:
        for i in range(1, t + 1):
            h[i] += x * h[i - 1]
    return h[t]


def structural_components(h: Hypergraph, d: int) -> Components:
    """Moment table via the infragraph decomposition.

    Placing t diagonal rows on an infragraph F weighs vertex v's j of them
    by (rho_v + j - 1)! deg(v)^j / j!, so all placements together weigh F
    by prod_v (rho_v - 1)! times h_t of F's degree multiset.  Entry
    (d - e, e) is therefore d / e! times the sum of C * h_{d-e}(degrees)
    over ``_infragraph_table(h, e)``.
    """
    comp: Components = {(d, 0): degree_moment(h, d)}
    for e in range(1, d + 1):
        table = _infragraph_table(h, e)
        if table:
            total = sum(c * _complete_homogeneous(degs, d - e) for degs, c in table)
            comp[(d - e, e)] = Fraction(d * total, math.factorial(e))
    return comp


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _structural_components_cached(h: Hypergraph, d: int) -> AlphaPoly:
    return components_to_poly(structural_components(h, d))


def trace_structural(h: Hypergraph, d: int) -> AlphaPoly:
    """The d-th moment via the infragraph decomposition."""
    return _structural_components_cached(h, d)


def trace(h: Hypergraph, d: int) -> AlphaPoly:
    """The d-th moment, by the structural route."""
    return trace_structural(h, d)


def adjacency_moment(h: Hypergraph, d: int) -> Fraction:
    """The d-th moment of the pure adjacency tensor (a rational number)."""
    return _structural_components_cached(h, d).evaluate(Fraction(0))


def signless_laplacian_moment(h: Hypergraph, d: int) -> Fraction:
    """Moment of D + A, which equals 2^d times the alpha = 1/2 evaluation."""
    return 2**d * _structural_components_cached(h, d).evaluate(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Closed forms through order k+2
# ---------------------------------------------------------------------------

def _clique_tree_weight(k: int) -> int:
    """W' of the complete k-graph on k+1 vertices (see ``_rooted_tree_weight``):
    the sum, over the ways to root each edge at one of its vertices with every
    vertex rooting one edge, of the in-arborescence count of the arc digraph."""
    return _rooted_tree_weight(tuple((e, 1) for e in combinations(range(k + 1), k)))


def trace_closed(h: Hypergraph, d: int) -> AlphaPoly:
    """Closed-form moment for 0 <= d <= k+2."""
    k, n = h.k, h.n
    if not 0 <= d <= k + 2:
        raise UnsupportedError(f"closed forms cover orders 0..k+2, got {d}")
    if d <= k - 1:
        return phi(h, d)
    if d == k:
        return phi(h, k) + basis_term(0, k) * ((k - 1) ** (n - k) * k ** (k - 1) * h.m)
    if d == k + 1:
        deg2 = sum(x**2 for x in h.degrees())
        result = phi(h, k + 1) + basis_term(1, k) * (
            (k + 1) * (k - 1) ** (n - k) * k ** (k - 2) * deg2
        )
        cliques = complete_subhypergraphs(h)
        if cliques:
            result = result + basis_term(0, k + 1) * (
                (k + 1) * (k - 1) ** (n - k - 1) * _clique_tree_weight(k) * len(cliques)
            )
        return result
    return trace_k_plus_2(h)


def trace_k_plus_2(h: Hypergraph) -> AlphaPoly:
    """Order k+2: degree part, adjacency part, per-edge degree correlations,
    and the complete-subhypergraph tree-count term."""
    k, n = h.k, h.n
    d = k + 2
    deg = h.degrees()
    result = phi(h, d) + basis_term(0, d) * adjacency_moment(h, d)
    corr = 0
    for e in h.edges:
        ds = [deg[v] for v in e]
        pair_sum = sum(
            ds[i] * ds[j] for i in range(len(ds)) for j in range(i + 1, len(ds))
        )
        corr += pair_sum + sum(x**2 for x in ds)
    result = result + basis_term(2, k) * (
        (k + 2) * (k - 1) ** (n - k) * k ** (k - 2) * corr
    )
    cliques = complete_subhypergraphs(h)
    if cliques:
        degsum = sum(deg[v] for S in cliques for v in S)
        result = result + basis_term(1, k + 1) * (
            (k + 2) * (k - 1) ** (n - k - 1) * _clique_tree_weight(k) * degsum
        )
    return result
