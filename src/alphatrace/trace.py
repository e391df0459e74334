"""Exact spectral moments of the weighted degree/adjacency tensor.

For a k-uniform hypergraph H on n vertices, the tensor under study is
T(alpha) = alpha * D + (1 - alpha) * A, where D is the diagonal degree
tensor and A the adjacency tensor (edge entries 1/(k-1)!).  The d-th
moment is the power sum of its n(k-1)^{n-1} eigenvalues.  It equals a
weighted sum over index assignments: each assignment contributes the
product of its tensor entries times a closed-walk count of the arc
digraph its rows induce.  Order 0 is no special case: its one (empty)
assignment counts n(k-1)^{n-1} = (k-1)^{n-1} sum deg^0 eigenvalues.

Two independent evaluation routes are implemented (for k = 2 the
structural one counts closed walks; see Graphs below):

* ``trace_bruteforce``: direct enumeration of assignments, grouped by
  arc star (root plus target multiset); the (k-1)! row permutations of
  an edge row collapse against the 1/(k-1)! entry, so each edge row
  carries weight (1-alpha) and each diagonal row alpha * deg(v).
  Unbalanced or disconnected digraphs are pruned.  It refuses orders
  needing more than ``MAX_ASSIGNMENT_CLASSES`` classes with
  ``BudgetExceeded``.
* ``trace_structural``: the same sum reorganized over connected
  k-valent sub-multigraphs (Veblen infragraphs).  An assignment with a
  nonzero walk count consists of edge rows whose multiset forms such
  an infragraph -- each vertex v then roots exactly deg(v)/k rows --
  plus diagonal rows confined to its vertices.  The sum splits into an
  order-free part and a cheap per-order part.  The order-free part,
  cached per (hypergraph, edge-row count e), is an integer per degree
  multiset: each infragraph's rooting-weighted in-arborescence sum,
  filed under the host degrees of its vertices, vertex v listed
  deg_F(v)/k times.  That rooting sum W' has a closed form when F's
  support is a hypertree (below); otherwise it depends only on F's
  shape (its rows on vertices renumbered by F-degree, incident-row
  signatures and host label), so it is cached per shape, in one cache
  shared by every hypergraph and every order of the process: K6 minus
  a path roots 127 shapes for its 2,314 infragraphs up to order 8, and
  a relabelled host roots few or none.  Spreading t diagonal rows over
  those vertices weighs the infragraph by the complete homogeneous
  symmetric polynomial h_t of that multiset (from sum_j (r+j-1)!
  (x y)^j / j! = (r-1)! (1 - x y)^{-r}, x a host degree), so order d
  needs one h_{d-e} per multiset and one exact integer division per
  entry of the moment table.  No infragraph has fewer than k rows,
  since each of its vertices meets a positive multiple of k of them.
  This is the production path for k >= 3; it is cheap on trees and
  unicyclic inputs but grows quickly with order on dense ones.  For
  k = 2 the production path counts closed walks instead (below), and
  the infragraph sum stays its oracle.

Where the infragraphs with e rows come from depends on the host.  Call
a host *peelable* when its edges can be deleted one at a time, each
through a vertex that lies in no other remaining edge.  Hypertrees
and hyperforests are peelable, and so is a unicyclic host in which
each cycle edge has a vertex in no other cycle edge (every linear one
with k >= 3); a k = 2 cycle and a complete graph are not.

Both sources read the host's closing order (``_closing_order``, built
once per host): take a vertex in the fewest remaining edges, list those
edges, repeat; an edge *closes* the vertices whose last edge it is.  A
host is peelable exactly when every edge closes a vertex (``_peelable``).
Proof.  If so, delete the edges in closing order, each through a vertex
it closes.  Conversely, a peelable host stays peelable as edges go (its
deletion order still works on the rest), so while edges remain some
vertex lies in exactly one of them; the closing order takes such a
vertex first, and its one edge closes it.  []

Lemma.  In a peelable host, every sub-multigraph F whose vertex degrees
are all multiples of k has every edge multiplicity a multiple of k.

Proof.  By induction on the number of edges in F's support.  Take the
support edge f that the peel deletes first.  When f is deleted, all
other support edges still remain, so f has a vertex v that no other
support edge contains.  Then deg_F(v) = mu_F(f), so k divides mu_F(f).
Removing f's rows from F lowers each vertex degree by mu_F(f) or 0,
leaving every degree a multiple of k on a smaller support.  []

Conversely, any connected edge set S with multiplicities k * c_j, c_j
>= 1, is an infragraph.  So a peelable host's infragraphs with e rows
are its connected edge sets S with |S| <= e/k, each with k times every
composition of e/k into |S| positive parts, and there are none unless k
divides e (``_peeled_vectors``; ``structural_components`` asks only for
those e).  Every other host gets a walk (``_veblen_vectors``) over the
edges in closing order, from each edge straight to the next one with a
nonzero count.  Let r_v = -deg_F(v) mod k be v's residue under the rows
placed so far (v is *open* while r_v > 0), D = sum_v r_v the residue
deficit and L the rows left.  An edge passed over takes count 0, so the
vertices it closes must be at residue 0 already: the candidates stop at
the first edge that closes an open vertex.  An edge that closes vertices
steps through their one residue class mod k.  A branch with its rows
spent and no vertex open is an infragraph when its edges' vertex
bitmasks join into one union; the recursion is as deep as the edges
used, at most e.  Either source hands each infragraph's deg_F to the
table with its rows.  Either is capped at ``MAX_WALK_NODES`` nodes per
(host, e) and raises ``BudgetExceeded`` with (k, n, m, e, nodes,
infragraphs so far) past it.

Three cuts.  In a completion of a branch let a_v be the incidences v
takes from the L rows left: a_v = r_v mod k with 0 <= r_v < k, so a_v -
r_v is a nonnegative multiple of k; a_v <= L, as a row meets v at most
once; and sum_v a_v = k L, so sum_v (a_v - r_v) = k L - D.  Hence
* deficit cut: no branch with D > k L completes.  A row lowers D by at
  most k and k L by exactly k, so once a count on an edge is cut, so is
  every larger one;
* short tail: if D < k L, some a_v >= r_v + k >= k, so L >= k; a branch
  with L < k completes only if D = k L;
* tight tail: if D = k L, every a_v = r_v, so each row left lies inside
  the open vertices, a count on an edge is at most its least residue,
  and D stays k L down the branch.  []

Tree supports.  A connected support S is a hypertree exactly when
|V(F)| = (k-1)|S| + 1.  Then mu_j = k c_j (the lemma; a hypertree is
peelable), and W'(F) = prod_j (k c_j)!/(c_j!)^k * c_j^{k-1} * k^{k-2}.

Proof.  Vertex v roots the sum of c_j over its edges j.  A leaf edge f
of S has k-1 vertices in no other support edge; each roots c_f of f's
rows, so its last vertex roots mu_f - (k-1) c_f = c_f, and the rest is a
rooting of F minus f.  By induction each edge j is rooted c_j times at
each of its vertices: one rooting, of weight prod_j (k c_j)!/(c_j!)^k.
Its arc digraph is a tree of blocks, edge j giving the c_j-fold
complete digraph on its vertices.  An in-arborescence is one in each
block, rooted at the block's vertex nearest the root, and any such
choice glues to one; a block is Eulerian, so its count, c_j^{k-1}
k^{k-2} by Cayley, does not depend on that vertex.  []

Exterior pass.  Any other shape is rooted in one pass over its vertices
(``_rooted_tree_weight``), relabelled 0..|V|-1 in closing order (next,
the vertex that leaves the fewest edges part-visited): vertex v takes
c_j of the rows edge j has left, deg_F(v)/k in all, and all of them
where v is j's last vertex.  Proof.  Along the vertex order,
multinomial(mu_j; rooting of j) is the product of the binomials C(rows
left, c_j).  A rooting's arc digraph has in- and out-degree (k-1)
deg_F(v)/k at each v, so its out-Laplacian has zero row and column sums
and equal cofactors, and its in-arborescence count is det L
(matrix-tree theorem), L that Laplacian with row 0 set to e_0; row v
has (k-1) deg_F(v)/k at v and -c_j at each other vertex of edge j.  det is multilinear and
alternating in the rows, so it is the top coefficient of their wedge,
and a row depends only on v's choice and the rows each edge has left
(the state): adding the wedges of equal states is exact.  []

Graphs.  For k = 2 the tensor is the matrix M = alpha D + (1-alpha) A,
and ``trace`` reads the table off closed walks
(``_closed_walk_components``): entry (t, e) sums tr(w) over the words w
in D and A with t letters D and e letters A, a count polynomial in n
and d.  Proof that it is the structural table.  An order-2 tensor has
n (k-1)^{n-1} = n eigenvalues, those of M, so Tr_d = tr(M^d), and
expanding the product gives sum_{t+e=d} alpha^t (1-alpha)^e times
that entry.  The polynomials alpha^t (1-alpha)^{d-t}, t = 0..d, are
linearly independent, so two tables with the same moment agree entry by
entry.  []

Both routes produce a table indexed by (diagonal rows, edge rows) and
build the moment polynomial from it (the structural one in integers);
the degree-tensor slice (alpha = 1), the adjacency slice (alpha = 0)
and the signless-Laplacian scaling (2^d times alpha = 1/2) are
evaluations of that polynomial.
``trace`` is the structural route (closed walks for k = 2);
``cross_check`` checks its result against ``trace_closed`` for d <= k+2
(at k+2 only the edge and clique tables, see below) and against the
brute force at every order its budget reaches.

Closed forms.  ``trace_closed`` (orders 0..k+2) builds its own tables
for e = k and e = k+1 in closed form and sums them with the structural
route's entry loop, adding at d = k+2 that route's table with k+2 rows.
An infragraph F with e rows has sum_v deg_F(v) = k e, each deg_F(v) >= k.
* e = k: F is one edge taken k times.  Proof.  So |V(F)| <= k, and every
  row has k vertices.  []  C = (k-1)^{n-k} k! k^{k-2} (a tree, c = 1).
* e = k+1: F is the k+1 k-subsets of a (k+1)-set, each taken once.
  Proof.  If |V(F)| = k, F is one edge of multiplicity k+1, no multiple
  of k.  So |V(F)| = k+1 and every deg_F(v) = k: each vertex is missing
  from exactly one row and each row misses one, so the rows differ.  []
  These are the complete subhypergraphs on k+1 vertices (none in a
  linear host with k >= 3), with C = (k-1)^{n-k-1} (k+1)! W'(clique).
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

def _spread(h: Hypergraph, j: int) -> int:
    """(k-1)^{n-j}, what a term on j vertices takes from the other n - j;
    0 where n < j, since no such term exists."""
    return (h.k - 1) ** (h.n - j) if h.n >= j else 0


def _check_order(d: int) -> None:
    if d < 0:  # every moment entry point refuses a negative order alike
        raise ValueError(f"moment order must be nonnegative, got {d}")


def degree_moment(h: Hypergraph, d: int) -> int:
    """The d-th moment of the pure degree tensor: (k-1)^{n-1} sum deg^d."""
    _check_order(d)
    return _spread(h, 1) * sum(x**d for x in h.degrees())


def phi(h: Hypergraph, s: int) -> AlphaPoly:
    """(k-1)^{n-1} * (sum of deg^s) * alpha^s, the pure-degree monomial."""
    return AlphaPoly.monomial(s, degree_moment(h, s))


def components_to_poly(comp: dict[tuple[int, int], int | Fraction]) -> AlphaPoly:
    """The sum of value * alpha^t (1-alpha)^e over the table's (t, e) entries."""
    out = [0] * (1 + max((t + e for t, e in comp), default=-1))
    for (t, e), value in comp.items():
        for j, c in enumerate(basis_term(0, e).coeffs, t):
            out[j] += c * value
    return AlphaPoly(out)


# ---------------------------------------------------------------------------
# Brute force over assignment classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Star:
    root: int
    targets: tuple[int, ...]
    diag: bool


def brute_components(h: Hypergraph, d: int) -> dict[tuple[int, int], Fraction]:
    """Moment table by direct enumeration of assignment classes, in Fraction."""
    _check_order(d)
    if d == 0:
        return {(0, 0): Fraction(h.n * _spread(h, 1))}
    stars = [_Star(v, (v,) * (h.k - 1), True) for v in range(h.n)]
    stars += [_Star(r, tuple(x for x in e if x != r), False) for e in h.edges for r in e]
    S = len(stars)
    estimate = math.comb(S + d - 1, d)
    if estimate > MAX_ASSIGNMENT_CLASSES:
        raise BudgetExceeded(
            f"assignment enumeration needs {estimate} classes (cap {MAX_ASSIGNMENT_CLASSES})",
            {"classes": estimate, "cap": MAX_ASSIGNMENT_CLASSES, "order": d},
        )
    km1 = h.k - 1
    deg = h.degrees()
    comp: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
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
    scale = _spread(h, 1)
    return {key: value * scale for key, value in comp.items()}


def trace_bruteforce(h: Hypergraph, d: int) -> AlphaPoly:
    """The d-th moment by assignment enumeration (exact, budget-capped)."""
    return components_to_poly(brute_components(h, d))


def cross_check(h: Hypergraph, d: int, poly: AlphaPoly) -> None:
    """Raise ``MethodDisagreement`` unless ``poly``, the d-th moment by the
    structural route, equals ``trace_closed(h, d)`` (for d <= k+2, checked
    first: cheap and unbudgeted) and ``trace_bruteforce(h, d)``."""
    routes = (("closed", trace_closed),) if d <= h.k + 2 else ()
    for route, moment in routes + (("bruteforce", trace_bruteforce),):
        ref = moment(h, d)
        if ref != poly:
            context = {"order": d, "hypergraph": h.to_json_dict(),
                       "structural": poly.to_json(), route: ref.to_json()}
            raise MethodDisagreement(f"moment of order {d} disagrees between methods", context)


def trace_decomposed(h: Hypergraph, d: int) -> tuple[AlphaPoly, AlphaPoly, AlphaPoly]:
    """Split the brute-force sum by row kinds into (w1, w2, w3).

    w1 collects all-diagonal assignments, w2 all-edge, w3 mixed; the
    full moment is (k-1)^{n-1} (w1 + w2 + w3).
    """
    if d < 1:
        raise ValueError("decomposition defined for d >= 1")
    parts: list[dict] = [{}, {}, {}]
    for (t, e), value in brute_components(h, d).items():  # none when n = 0
        parts[0 if e == 0 else 1 if t == 0 else 2][(t, e)] = value / _spread(h, 1)
    return tuple(map(components_to_poly, parts))


# ---------------------------------------------------------------------------
# Connected k-valent infragraphs and the structural route
# ---------------------------------------------------------------------------

def _walk_budget(h: Hypergraph, total: int, nodes: int, found: int) -> BudgetExceeded:
    """The error either infragraph source raises past ``MAX_WALK_NODES``."""
    return BudgetExceeded(
        f"infragraph walk of a {h.k}-graph with n={h.n}, m={h.m} at e={total} "
        f"edge rows passed {MAX_WALK_NODES} nodes; infragraphs found so far: {found}",
        {"k": h.k, "n": h.n, "m": h.m, "e": total, "nodes": nodes, "infragraphs": found},
    )


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _closing_order(h: Hypergraph) -> tuple[tuple, tuple, tuple]:
    """The host's closing order (module docstring), built once per host:
    (at, order, close_at), where at[v] lists the edges at vertex v, order
    the edges in closing order, and close_at[i] the vertices whose last
    edge is order[i]."""
    m = h.m
    at: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(h.edges):
        for v in e:
            at[v].append(i)
    count = [len(a) for a in at]
    buckets: list[list[int]] = [[] for _ in range(m + 1)]
    for v, c in enumerate(count):
        buckets[c].append(v)
    order, close_at, taken, low = [], [], [False] * m, 1
    while len(order) < m:  # close a vertex in the fewest remaining edges
        low = next(c for c in range(low, m + 1) if buckets[c])
        v = buckets[low].pop()
        for i in at[v] if count[v] == low else ():  # else a stale entry
            if not taken[i]:
                taken[i] = True
                order.append(i)
                close_at.append([])
                for x in h.edges[i]:
                    count[x] -= 1
                    buckets[count[x]].append(x)
                    low = min(low, count[x] or low)
                    if not count[x]:
                        close_at[-1].append(x)
    return tuple(map(tuple, at)), tuple(order), tuple(map(tuple, close_at))


def _peelable(h: Hypergraph) -> bool:
    """Whether h is peelable: whether every edge of its closing order
    closes a vertex (module docstring)."""
    return all(_closing_order(h)[2])


def _peeled_vectors(h: Hypergraph, total: int):
    """Yield (edge_indices, multiplicities, deg_F) of every connected
    k-valent infragraph of a peelable host with total multiplicity exactly
    ``total``.

    By the lemma in the module docstring these are the connected edge sets
    S with |S| <= total/k, each with k times every composition of total/k
    into |S| positive parts; there are none unless k divides total.  The
    sets grow by ESU (Wernicke 2006) on the graph of edges that share a
    vertex: a set rooted at its least edge r only takes neighbours above r
    that no earlier member or its neighbours reached, so each connected
    set comes out once.  Every set and every composition counts against
    ``MAX_WALK_NODES``, a set's C(q-1, |S|-1) compositions before the
    first of them is made; they are made one at a time, never stored.
    Edge indices are in growth order, not sorted.
    """
    k = h.k
    q, r = divmod(total, k)
    if r or q < 1:
        return
    at = _closing_order(h)[0]
    nbrs = [{j for v in e for j in at[v]} - {i} for i, e in enumerate(h.edges)]
    nodes = found = 0
    for root in range(h.m):
        stack = [((root,), [j for j in nbrs[root] if j > root], nbrs[root] | {root})]
        while stack:
            support, ext, reached = stack.pop()
            s = len(support)
            nodes += 1 + math.comb(q - 1, s - 1)
            if nodes > MAX_WALK_NODES:
                raise _walk_budget(h, total, nodes, found)
            for cuts in combinations(range(1, q), s - 1):
                mu = tuple(k * (b - a) for a, b in zip((0, *cuts), (*cuts, q)))
                deg_f: dict[int, int] = defaultdict(int)
                for i, c in zip(support, mu):
                    for v in h.edges[i]:
                        deg_f[v] += c
                yield support, mu, deg_f
            found += math.comb(q - 1, s - 1)
            if s < q:
                for x, w in enumerate(ext):
                    new = [u for u in nbrs[w] if u > root and u not in reached]
                    stack.append((support + (w,), ext[x + 1:] + new, reached | nbrs[w]))


def _joined(masks: list[int]) -> bool:
    """Whether the vertex sets given as bitmasks form one connected union."""
    reach, rest = masks[0], masks[1:]
    while rest:
        left = []
        for x in rest:
            if x & reach:
                reach |= x
            else:
                left.append(x)
        if len(left) == len(rest):
            return False
        rest = left
    return True


Infragraph = tuple[tuple[int, ...], tuple[int, ...], dict[int, int]]


def _veblen_vectors(h: Hypergraph, total: int) -> list[Infragraph]:
    """(edge_indices, multiplicities, deg_F) of all connected k-valent
    infragraphs with total multiplicity exactly ``total``, supports sorted
    by host index, in the order the walk finds them; deg_F maps each vertex
    of F to its degree there.

    The walk and its cuts are in the module docstring.  Candidates are
    tried from the last back, so count vectors come out in lexicographic
    closing order; the last edge takes exactly the rows left.  Each (edge,
    count) the walk enters counts against ``MAX_WALK_NODES``.
    """
    m, k = h.m, h.k
    _, order, close_at = _closing_order(h)
    edges = [h.edges[i] for i in order]
    masks = [sum(1 << v for v in e) for e in edges]
    closes = [sum(1 << v for v in close) for close in close_at]
    deg = [0] * h.n
    used: list[tuple[int, int]] = []  # (position in closing order, count)
    found: list[Infragraph] = []
    nodes = 0

    def walk(i: int, rows: int, deficit: int, open_: int):
        # the edges before position i are settled, every vertex they close at
        # residue 0; ``open_`` is the bitmask of the vertices of nonzero residue
        nonlocal nodes
        if not rows:
            if used and _joined([masks[j] for j, _ in used]):
                support, mult = zip(*sorted((order[j], c) for j, c in used))
                found.append((support, mult, {v: deg[v] for j in support for v in h.edges[j]}))
            return
        tight = deficit == k * rows
        stop = i if open_ else m - 1
        while open_ and not closes[stop] & open_:
            stop += 1
        for j in range(stop, i - 1, -1):
            if tight and masks[j] & ~open_:
                continue  # the tight-tail lemma
            e, close = edges[j], close_at[j]
            first, step = (-deg[close[0]] % k or k, k) if close else (1, 1)
            if j == m - 1:  # every vertex closes here: the rows left, if they fit
                first = rows if (rows - first) % k == 0 else rows + 1
            res = [-deg[v] % k for v in e]
            for c in range(first, (min(res) if tight else rows) + 1, step):
                child, grown = deficit - sum(res), open_ & ~masks[j]
                for v, r in zip(e, res):
                    r = (r - c) % k
                    if r:
                        child += r
                        grown |= 1 << v
                if grown & closes[j]:
                    break  # two closing vertices disagree
                if child > k * (rows - c):
                    break  # the deficit cut, and no larger c passes it
                if rows - c < k and child < k * (rows - c):
                    continue  # the short-tail lemma
                nodes += 1
                if nodes > MAX_WALK_NODES:
                    raise _walk_budget(h, total, nodes, len(found))
                for v in e:
                    deg[v] += c
                used.append((j, c))
                walk(j + 1, rows - c, child, grown)
                used.pop()
                for v in e:
                    deg[v] -= c

    walk(0, total, 0, 0)
    del walk  # it refers to itself; the cycle would keep ``found`` until a collection
    return found


Shape = tuple[tuple[tuple[int, ...], int], ...]


def _infragraph_shape(
    h: Hypergraph, support: tuple[int, ...], mu: tuple[int, ...], deg_f: dict[int, int]
) -> Shape:
    """The infragraph's edge rows on relabelled vertices, given deg_F by host vertex.

    Vertices are numbered 0..|V|-1 in order of deg_F(v), then of the sorted
    signatures (mu, sorted deg_F of its vertices) of their incident rows,
    then of host label; the shape is the sorted tuple of (vertex tuple, mu)
    rows.  Equal shapes are the same labelled infragraph, so they share W';
    isomorphic infragraphs whose ties fall differently merely get two
    shapes.
    """
    edges = [h.edges[i] for i in support]
    incident: dict[int, list] = {v: [] for v in deg_f}
    for e, c in zip(edges, mu):
        signature = (c, sorted([deg_f[v] for v in e]))
        for v in e:
            incident[v].append(signature)
    keys = sorted([(deg_f[v], sorted(sigs), v) for v, sigs in incident.items()])
    label = {key[2]: i for i, key in enumerate(keys)}
    rows = [(tuple(sorted([label[v] for v in e])), c) for e, c in zip(edges, mu)]
    return tuple(sorted(rows))


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _splits(q: int, bounds: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """The vectors c with sum q and lo <= c_j <= hi for each (lo, hi) in ``bounds``."""
    if not bounds:
        return () if q else ((),)
    (lo, hi), rest = bounds[0], bounds[1:]
    return tuple((c, *tail) for c in range(max(lo, q - sum(b for _, b in rest)), min(hi, q) + 1)
                 for tail in _splits(q - c, rest))


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _rooted_tree_weight(shape: Shape) -> int:
    """W' of an infragraph shape: the sum, over every way to root its edge
    rows (row (e, mu) stands for mu rows of edge e, and vertex v roots
    deg_F(v)/k of them, k the row length), of the in-arborescence count of
    the induced arc digraph times prod_j multinomial(mu_j; rooting of edge
    j).  0 when no rooting exists.  Shared by every hypergraph and order.
    By the exterior pass (module docstring): a state's wedge is a dict from
    column bitmask to integer, and every (state, choice) step counts
    against ``MAX_WALK_NODES``, a state's before the first is taken.
    """
    k, n = len(shape[0][0]), 1 + max(e[-1] for e, _ in shape)
    masks, seen, pos = [sum(1 << x for x in e) for e, _ in shape], 0, {}
    while len(pos) < n:  # next, the vertex that leaves the fewest edges part-visited
        v = min((x for x in range(n) if x not in pos),
                key=lambda x: sum(0 != m & (seen | 1 << x) != m for m in masks))
        pos[v], seen = len(pos), seen | 1 << v
    ordered = tuple(sorted((tuple(sorted(pos[v] for v in e)), c) for e, c in shape))
    if ordered != shape:  # relabelled in visit order, it shares the cache
        return _rooted_tree_weight(ordered)
    at = [[(j, e) for j, (e, _) in enumerate(shape) if v in e] for v in range(n)]
    states, steps = {tuple(c for _, c in shape): {0: 1}}, 0
    for v in range(n):
        q = sum(shape[j][1] for j, _ in at[v]) // k
        edges = [(j, e[-1] == v, [x for x in e if x not in (0, v)]) for j, e in at[v]]
        grown: dict[tuple[int, ...], dict[int, int]] = {}
        for left, wedge in states.items():
            live = [(j, xs) for j, _, xs in edges if left[j]]
            splits = _splits(q, tuple((left[j] * last, left[j]) for j, last, _ in edges if left[j]))
            steps += len(splits)
            if steps > MAX_WALK_NODES:
                rows = sum(c for _, c in shape)
                raise BudgetExceeded(
                    f"rooting of an infragraph shape with {n} vertices and {rows} edge rows passed "
                    f"{MAX_WALK_NODES} steps at vertex {v}; states so far: {len(grown)}",
                    {"vertices": n, "rows": rows, "vertex": v, "states": len(grown)})
            for split in splits:
                rest, weight, row = list(left), 1, {v: (k - 1) * q}
                for (j, xs), c in zip(live, split):
                    weight *= math.comb(left[j], c)
                    rest[j] -= c
                    for x in xs if c else ():
                        row[x] = row.get(x, 0) - c
                out = grown.setdefault(tuple(rest), {})
                for mask, a in wedge.items():
                    a *= weight
                    for x, b in row.items() if v else ((0, 1),):  # the root's row is e_0
                        if not mask >> x & 1:
                            new, t = mask | 1 << x, -a * b if (mask >> x).bit_count() & 1 else a * b
                            out[new] = out.get(new, 0) + t
        states = grown
    return sum(wedge.get((1 << n) - 1, 0) for wedge in states.values())


def _infragraph_weight(
    h: Hypergraph, support: tuple[int, ...], mu: tuple[int, ...], deg_f: dict[int, int]
) -> int:
    """W' of an infragraph: in closed form when its support is a hypertree
    (|V(F)| = (k-1)|S| + 1; see the module docstring), else by its shape."""
    k = h.k
    if len(deg_f) != (k - 1) * len(support) + 1:
        return _rooted_tree_weight(_infragraph_shape(h, support, mu, deg_f))
    return math.prod(math.factorial(c) // math.factorial(c // k) ** k * (c // k) ** (k - 1)
                     * k ** (k - 2) for c in mu)


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _infragraph_table(h: Hypergraph, e: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The order-free part of the structural sum over the infragraphs F
    with exactly e edge rows, as sorted (degrees, C) pairs.

    ``degrees`` is a sorted multiset of host degrees in which each vertex v
    of F appears rho_v = deg_F(v)/k times; C sums, over the infragraphs
    sharing it, (k-1)^{n-|V(F)|} * e!/prod mu_j! * prod_v (rho_v - 1)! * W'
    (see ``_infragraph_weight``).
    Infragraphs without a rooting add nothing and are left out.
    """
    k = h.k
    deg = h.degrees()
    table: dict[tuple[int, ...], int] = defaultdict(int)
    for support, mu, deg_f in (_peeled_vectors if _peelable(h) else _veblen_vectors)(h, e):
        w = _infragraph_weight(h, support, mu, deg_f)
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


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _complete_homogeneous(values: tuple[int, ...], t: int) -> int:
    """h_t(values): the sum of all degree-t monomials in ``values``; 0 for t < 0."""
    if t < 0:
        return 0
    h = [1] + [0] * t
    for x in values:
        for i in range(1, t + 1):
            h[i] += x * h[i - 1]
    return h[t]


def _table_entries(h: Hypergraph, d: int, tables) -> dict[tuple[int, int], int]:
    """The order-d moment table from (e, rows) pairs, rows as ``_infragraph_table``'s.

    Placing t diagonal rows on an infragraph F weighs vertex v's j of them
    by (rho_v + j - 1)! deg(v)^j / j!, so all placements together weigh F
    by prod_v (rho_v - 1)! times h_t of F's degree multiset.  Entry
    (d - e, e) is therefore d / e! times the sum of C * h_{d-e}(degrees)
    over the rows.  The division is exact on every input checked; a
    remainder raises ``ArithmeticError``, never rounds.
    """
    comp = {(d, 0): degree_moment(h, d)}
    for e, table in tables:
        if table:
            total = sum(c * _complete_homogeneous(degs, d - e) for degs, c in table)
            value, rem = divmod(d * total, math.factorial(e))
            if rem:
                raise ArithmeticError(f"table entry ({d - e}, {e}) of {h}: {d * total}/{e}!")
            comp[(d - e, e)] = value
    return comp


def structural_components(h: Hypergraph, d: int) -> dict[tuple[int, int], int]:
    """Moment table via the infragraph decomposition: the entries of
    ``_infragraph_table(h, e)`` for e from k to d, in steps of k if peelable.
    Below order k no table is summed, so peelability is not read."""
    steps = range(h.k, d + 1, h.k if d < h.k or _peelable(h) else 1)
    return _table_entries(h, d, ((e, _infragraph_table(h, e)) for e in steps))


def _closed_walk_components(h: Hypergraph, d: int) -> dict[tuple[int, int], int]:
    """The moment table of a graph (k = 2) by closed walks: entry (t, e)
    sums tr(w) over the words w in D and A with t letters D and e letters A.

    From each start vertex i it keeps one sparse layer of vectors, the
    words applied to e_i, and steps x_{t,e} = D x_{t-1,e} + A x_{t,e-1}
    d times before reading entry i.  The d+1 vectors of a layer are held
    as the base-2^s digits of one integer per vertex (digit t for t
    letters D), so a step costs one product and a few sums per vertex.
    All words are nonnegative and the digits of the whole sum add up to
    at most 1^T (D + A)^d 1 <= n (2 maxdeg)^d < 2^s, so no digit carries.
    Each vertex step counts against ``MAX_WALK_NODES``.
    """
    deg = h.degrees()
    s = (h.n * (2 * max(deg, default=0)) ** d).bit_length()
    weight = [x << s for x in deg]
    nbrs: list[list[int]] = [[] for _ in range(h.n)]
    for u, v in h.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    total = steps = 0
    for i in range(h.n):
        layer = {i: 1}
        for _ in range(d):
            steps += len(layer)
            if steps > MAX_WALK_NODES:
                raise BudgetExceeded(
                    f"closed walks of a 2-graph with n={h.n}, m={h.m} to order {d} passed "
                    f"{MAX_WALK_NODES} vertex steps at start vertex {i}; steps so far: {steps}",
                    {"k": 2, "n": h.n, "m": h.m, "d": d, "steps": steps},
                )
            nxt: dict[int, int] = defaultdict(int)
            for u, x in layer.items():
                nxt[u] += weight[u] * x
                for v in nbrs[u]:
                    nxt[v] += x
            layer = nxt
        total += layer.get(i, 0)
    comp = {}
    for t in range(d + 1):  # as in structural_components: (d, 0), then nonzero entries
        value = total >> (s * t) & ((1 << s) - 1)
        if value or t == d:
            comp[(t, d - t)] = value
    return comp


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _structural_components_cached(h: Hypergraph, d: int) -> AlphaPoly:
    _check_order(d)
    components = _closed_walk_components if h.k == 2 else structural_components
    return components_to_poly(components(h, d))


def trace_structural(h: Hypergraph, d: int) -> AlphaPoly:
    """The d-th moment: by closed walks for k = 2, else by the infragraph
    decomposition."""
    return _structural_components_cached(h, d)


def trace(h: Hypergraph, d: int) -> AlphaPoly:
    """The d-th moment, by the structural route (closed walks for k = 2)."""
    return trace_structural(h, d)


def adjacency_moment(h: Hypergraph, d: int) -> int:
    """The d-th moment of the pure adjacency tensor (the alpha = 0 value)."""
    return trace(h, d).scaled_value(0, 1)


def signless_laplacian_moment(h: Hypergraph, d: int) -> int:
    """Moment of D + A, which equals 2^d times the alpha = 1/2 evaluation."""
    return trace(h, d).scaled_value(1, 2, d)


# ---------------------------------------------------------------------------
# Closed forms through order k+2
# ---------------------------------------------------------------------------

def trace_closed(h: Hypergraph, d: int) -> AlphaPoly:
    """Closed-form moment for 0 <= d <= k+2: the structural sum over its
    own tables with k and k+1 rows (module docstring) and, at d = k+2,
    the structural route's table with k+2 rows."""
    k = h.k
    _check_order(d)
    if d > k + 2:
        raise UnsupportedError(f"closed forms cover orders 0..k+2, got {d}")
    deg = h.degrees()
    tables = []  # the table with e rows adds to orders d >= e only
    if d >= k:
        c = _spread(h, k) * math.factorial(k) * k ** (k - 2)
        tables.append((k, [(tuple(sorted(deg[v] for v in e)), c) for e in h.edges]))
    if d >= k + 1:
        clique = tuple((e, 1) for e in combinations(range(k + 1), k))
        c = _spread(h, k + 1) * math.factorial(k + 1) * _rooted_tree_weight(clique)
        tables.append((k + 1, [(tuple(sorted(deg[v] for v in S)), c)
                               for S in complete_subhypergraphs(h)]))
    if d >= k + 2:
        tables.append((k + 2, _infragraph_table(h, k + 2)))
    return components_to_poly(_table_entries(h, d, tables))


def trace_k_plus_2(h: Hypergraph) -> AlphaPoly:
    """The closed-form moment of order k+2; against the structural route
    it tests only the edge and clique tables."""
    return trace_closed(h, h.k + 2)
