"""Literal reference implementations used only as test oracles.

``lemma_sum_reference`` transcribes the assignment-sum trace formula
word by word: it enumerates every sorted row tuple with nonzero tensor
entries, builds the arc digraph per row, and counts closed arc
sequences by backtracking.  It shares no code with the production
routes (no grouping, no balance pruning, no tree-count formula), so it
is slow and only usable on tiny instances.

``veblen_vectors_reference`` lists the connected k-valent infragraphs
with e edge rows literally: every way to split e rows among the m edges,
kept when each vertex degree is a multiple of k and the rows used are
connected.  ``enumerate_veblen`` wraps its results as objects, and
``rooted_tree_weight`` roots one of them on the host's own labels; the
production route reaches the same infragraphs through a pruned walk and
the same weights through infragraph shapes.

``Assignment`` and ``from_assignment`` spell out one index assignment
of the brute-force moment sum and the arc digraph it induces;
``labeled_trees_k2`` lists every labeled tree through Pruefer
sequences, an independent count for k = 2 tree enumeration.

``canonical_form_reference`` is a general search canon that shares no
code with the incidence-tree code: twin vertices collapse into one
weighted class node, then colour refinement with individualization
branches on every member of the first non-singleton colour class and
keeps the smallest certificate.  It accepts any hypergraph and is
exponential on symmetric inputs, so it only partitions small families.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from alphatrace.digraph import MultiDigraph, count_in_arborescences, multidigraph
from alphatrace.errors import BudgetExceeded, HypergraphError
from alphatrace.hypergraph import Hypergraph, hypergraph
from alphatrace.polynomial import AlphaPoly

MAX_VEBLEN_EDGES = 40


def count_closed_sequences(arcs: dict[tuple[int, int], int]) -> int:
    """Closed arc sequences with a distinguished start; parallel arcs
    indistinguishable (sequences are lists of (tail, head) keys)."""
    total = sum(arcs.values())
    if total == 0:
        return 0
    remaining = dict(arcs)

    def rec(at: int, end: int, left: int) -> int:
        if left == 0:
            return 1 if at == end else 0
        c = 0
        for (u, v), mu in list(remaining.items()):
            if u == at and mu > 0:
                remaining[(u, v)] -= 1
                c += rec(v, end, left - 1)
                remaining[(u, v)] += 1
        return c

    count = 0
    for (u, v), mu in list(remaining.items()):
        if mu > 0:
            remaining[(u, v)] -= 1
            count += rec(v, u, total - 1)
            remaining[(u, v)] += 1
    return count


def count_rotation_tours(arcs: dict[tuple[int, int], int]) -> int:
    """Euler tours with distinguishable parallel arcs, up to rotation:
    sequences pinned to start with one fixed copy of the smallest arc."""
    total = sum(arcs.values())
    if total == 0:
        return 0
    remaining = dict(arcs)
    first = min(k for k, mu in remaining.items() if mu > 0)
    remaining[first] -= 1

    def rec(at: int, left: int) -> int:
        if left == 0:
            return 1 if at == first[0] else 0
        c = 0
        for (u, v), mu in list(remaining.items()):
            if u == at and mu > 0:
                remaining[(u, v)] -= 1
                c += mu * rec(v, left - 1)
                remaining[(u, v)] += 1
        return c

    return rec(first[1], total - 1)


def lemma_sum_reference(h: Hypergraph, d: int) -> AlphaPoly:
    """The d-th moment, summed row tuple by row tuple."""
    n, k = h.n, h.k
    deg = h.degrees()
    alpha = AlphaPoly.monomial(1)
    edge_entry = AlphaPoly((1, -1)) * Fraction(1, math.factorial(k - 1))
    rows_by_root: dict[int, list[tuple[str, tuple[int, ...]]]] = {}
    for r in range(n):
        rows: list[tuple[str, tuple[int, ...]]] = [("diag", (r,) * (k - 1))]
        for e in h.edges:
            if r in e:
                for p in permutations([x for x in e if x != r]):
                    rows.append(("edge", p))
        rows_by_root[r] = rows
    if d == 0:
        return AlphaPoly.constant(n * (k - 1) ** (n - 1))
    total = AlphaPoly.zero()
    for roots in combinations_with_replacement(range(n), d):
        for choice in product(*[range(len(rows_by_root[r])) for r in roots]):
            arcs: dict[tuple[int, int], int] = {}
            pi = AlphaPoly.constant(1)
            for pos, r in enumerate(roots):
                kind, word = rows_by_root[r][choice[pos]]
                if kind == "diag":
                    arcs[(r, r)] = arcs.get((r, r), 0) + (k - 1)
                    pi = pi * (alpha * deg[r])
                else:
                    for x in word:
                        arcs[(r, x)] = arcs.get((r, x), 0) + 1
                    pi = pi * edge_entry
            w = count_closed_sequences(arcs)
            if w == 0:
                continue
            b = 1
            for mu in arcs.values():
                b *= math.factorial(mu)
            outdeg: dict[int, int] = {}
            for (u, _), mu in arcs.items():
                outdeg[u] = outdeg.get(u, 0) + mu
            c = 1
            for x in outdeg.values():
                c *= math.factorial(x)
            total = total + pi * Fraction(b * w, c)
    return total * ((k - 1) ** (n - 1))


@dataclass(frozen=True, slots=True)
class VeblenInfragraph:
    """A connected sub-multigraph of the host in which every vertex degree
    is a multiple of k."""

    host: Hypergraph
    edge_indices: tuple[int, ...]
    multiplicities: tuple[int, ...]

    def degrees(self) -> dict[int, int]:
        deg: dict[int, int] = defaultdict(int)
        for i, mu in zip(self.edge_indices, self.multiplicities):
            for v in self.host.edges[i]:
                deg[v] += mu
        return dict(deg)


def veblen_vectors_reference(
    h: Hypergraph, e: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Sorted (edge_indices, multiplicities) of every connected k-valent
    infragraph with exactly e edge rows, from all compositions of e into
    h.m nonnegative parts (stars and bars)."""
    m = h.m
    found = []
    if m == 0:
        return found
    for bars in combinations(range(e + m - 1), m - 1):
        cuts = (-1, *bars, e + m - 1)
        mu = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
        support = [i for i in range(m) if mu[i]]
        deg: dict[int, int] = defaultdict(int)
        for i in support:
            for v in h.edges[i]:
                deg[v] += mu[i]
        if any(x % h.k for x in deg.values()):
            continue
        reached = {h.edges[support[0]][0]}
        grew = True
        while grew:
            grew = False
            for i in support:
                if reached.intersection(h.edges[i]) and not reached.issuperset(h.edges[i]):
                    reached.update(h.edges[i])
                    grew = True
        if reached == set(deg):
            found.append((tuple(support), tuple(mu[i] for i in support)))
    return sorted(found)


def enumerate_veblen(
    h: Hypergraph, max_edges: int, limit: int = MAX_VEBLEN_EDGES
) -> list[VeblenInfragraph]:
    """All connected k-valent infragraphs with total multiplicity <= max_edges,
    one per multiplicity vector, in deterministic order."""
    if max_edges > limit:
        raise BudgetExceeded(
            f"infragraph enumeration capped at {limit} edges, asked {max_edges}",
            {"max_edges": max_edges, "cap": limit},
        )
    found = sorted(
        v for e in range(1, max_edges + 1) for v in veblen_vectors_reference(h, e)
    )
    return [VeblenInfragraph(h, s, mu) for s, mu in found]


def rooted_tree_weight(f: VeblenInfragraph) -> int:
    """W' of one infragraph on its host labels, rooting by rooting: over
    every split of each edge's mu rows among its k vertices in which
    vertex v roots deg_F(v)/k rows in all, the in-arborescence count of
    the induced arc digraph times prod_j multinomial(mu_j; split of j)."""
    h = f.host
    edges = [h.edges[i] for i in f.edge_indices]
    quota = {v: r // h.k for v, r in f.degrees().items()}
    verts = sorted(quota)
    splits = [
        [c for c in product(range(mu + 1), repeat=h.k) if sum(c) == mu]
        for mu in f.multiplicities
    ]
    total = 0
    for rooting in product(*splits):
        rooted = dict.fromkeys(verts, 0)
        arcs: dict[tuple[int, int], int] = defaultdict(int)
        weight = 1
        for e, mu, split in zip(edges, f.multiplicities, rooting):
            ways = math.factorial(mu)
            for v, c in zip(e, split):
                ways //= math.factorial(c)
                rooted[v] += c
                for x in e:
                    if x != v:
                        arcs[(v, x)] += c
            weight *= ways
        if rooted == quota:
            total += weight * count_in_arborescences(arcs, verts, verts[0])
    return total


# -- index assignments: the unit of the brute-force moment sum ---------------
#
# An assignment is a sorted tuple of d rows; each row is either the
# diagonal index (v, v, ..., v) or a hyperedge rooted at one of its
# vertices with a chosen permutation of the remaining k-1 vertices.
# These are exactly the rows that can contribute a nonzero entry product
# for the weighted degree/adjacency tensor.


@dataclass(frozen=True, slots=True)
class DiagonalRow:
    vertex: int

    @property
    def root(self) -> int:
        return self.vertex


@dataclass(frozen=True, slots=True)
class EdgeRow:
    edge: int
    root: int
    perm: int = 0  # which of the (k-1)! orderings of the non-root vertices


Row = DiagonalRow | EdgeRow


@dataclass(frozen=True, slots=True)
class Assignment:
    rows: tuple[Row, ...]

    @property
    def order(self) -> int:
        return len(self.rows)

    def validate(self, h) -> None:
        prev = None
        for row in self.rows:
            if isinstance(row, DiagonalRow):
                if not 0 <= row.vertex < h.n:
                    raise HypergraphError(f"diagonal row vertex {row.vertex} out of range")
            else:
                if not 0 <= row.edge < h.m:
                    raise HypergraphError(f"edge index {row.edge} out of range")
                if row.root not in h.edges[row.edge]:
                    raise HypergraphError(
                        f"root {row.root} not in edge {h.edges[row.edge]}"
                    )
                if not 0 <= row.perm < math.factorial(h.k - 1):
                    raise HypergraphError(f"permutation id {row.perm} out of range")
            if prev is not None and row.root < prev:
                raise HypergraphError("rows must be sorted by root index")
            prev = row.root

    def word(self, row: Row, h) -> tuple[int, ...]:
        """The full index tuple (root, then k-1 trailing indices) of a row."""
        if isinstance(row, DiagonalRow):
            return (row.vertex,) * h.k
        others = tuple(v for v in h.edges[row.edge] if v != row.root)
        perm = list(permutations(others))[row.perm]
        return (row.root,) + perm


def from_assignment(f: Assignment, h: Hypergraph) -> MultiDigraph:
    """The arc multiset induced by an assignment: each row contributes the
    star of k-1 arcs from its root (a diagonal row yields k-1 loops)."""
    f.validate(h)
    counts: dict[tuple[int, int], int] = {}
    for row in f.rows:
        if isinstance(row, DiagonalRow):
            a = (row.vertex, row.vertex)
            counts[a] = counts.get(a, 0) + h.k - 1
        else:
            for x in h.edges[row.edge]:
                if x != row.root:
                    a = (row.root, x)
                    counts[a] = counts.get(a, 0) + 1
    return multidigraph(counts)


def labeled_trees_k2(m: int) -> list[Hypergraph]:
    """Independent oracle for k = 2 tree counts: all labeled trees on m+1
    vertices via Pruefer sequences."""
    n = m + 1
    if n == 1:
        return [hypergraph(2, 1, [])]
    if n == 2:
        return [hypergraph(2, 2, [(0, 1)])]
    out = []
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        seq_list = list(seq)
        leaves = sorted(v for v in range(n) if degree[v] == 1)
        heap = leaves[:]
        heapq.heapify(heap)
        for v in seq_list:
            leaf = heapq.heappop(heap)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        edges.append(tuple(sorted(heap)))
        out.append(hypergraph(2, n, edges))
    return out


def _refine(adj: list[list[int]], colors: list[int]) -> list[int]:
    """Iterated neighborhood refinement to a stable coloring (parallel
    incidences appear as repeated neighbors and are counted)."""
    ncolors = len(set(colors))
    while True:
        sigs = [
            (colors[x], tuple(sorted(colors[y] for y in adj[x])))
            for x in range(len(adj))
        ]
        order = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        if len(order) == ncolors:
            return colors
        ncolors = len(order)


def _canonize(adj: list[list[int]], colors: list[int], encode) -> bytes:
    colors = _refine(adj, colors)
    counts = Counter(colors)
    target = min((c for c in counts if counts[c] > 1), default=None)
    if target is None:
        return encode(colors)
    best: bytes | None = None
    for x in range(len(adj)):
        if colors[x] != target:
            continue
        branched = [(c, 0 if i == x else 1) for i, c in enumerate(colors)]
        order = sorted(set(branched))
        rank = {s: i for i, s in enumerate(order)}
        cert = _canonize(adj, [rank[s] for s in branched], encode)
        if best is None or cert < best:
            best = cert
    assert best is not None
    return best


def canonical_form_reference(h: Hypergraph) -> bytes:
    """Isomorphism-class key of any hypergraph by individualization search."""
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(h.edges):
        for v in e:
            incident[v].append(i)
    twin_groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(h.n):
        twin_groups.setdefault(tuple(incident[v]), []).append(v)
    classes = sorted(twin_groups.values())
    sizes = [len(c) for c in classes]
    class_of = {v: idx for idx, members in enumerate(classes) for v in members}
    C, E = len(classes), h.m
    adj: list[list[int]] = [[] for _ in range(C + E)]
    edge_profiles: list[Counter] = []
    for j, e in enumerate(h.edges):
        profile = Counter(class_of[v] for v in e)
        edge_profiles.append(profile)
        for c, cnt in profile.items():
            adj[c].extend([C + j] * cnt)
            adj[C + j].extend([c] * cnt)
    size_rank = {s: r for r, s in enumerate(sorted(set(sizes)))}
    colors = [size_rank[s] for s in sizes] + [len(size_rank)] * E

    def encode(final: list[int]) -> bytes:
        class_order = sorted(range(C), key=lambda c: final[c])
        class_pos = {c: i for i, c in enumerate(class_order)}
        rows = sorted(
            tuple(sorted((class_pos[c], cnt) for c, cnt in profile.items()))
            for profile in edge_profiles
        )
        size_row = tuple(sizes[c] for c in class_order)
        return repr((h.k, h.n, size_row, rows)).encode()

    return _canonize(adj, colors, encode)
