"""Simple k-uniform hypergraphs with labeled vertices.

The one input object everything else consumes.  Values are immutable;
every operation returns a new hypergraph.  Edges are distinct k-sets,
as in the hypertrees and linear unicyclic hypergraphs the moments are
ordered over.

JSON interchange format::

    {"k": int, "n": int, "edges": [[v, ...], ...]}

Every number is a JSON integer.  Edges are sorted ascending on load; a
repeated edge is an error.  An optional ``mult`` list is accepted only
when every entry is 1.

One leaf-layer peel of the incidence graph (``_peel``) gives the canonical
key, class, girth, diameter and its own domain (connected, cyclomatic
number at most 1); ``girth`` needs that domain, ``diameter`` a hypertree.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import HypergraphError, UnsupportedError


@dataclass(frozen=True, slots=True)
class Hypergraph:
    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 2:
            raise HypergraphError(f"edge cardinality k={self.k} must be >= 2")
        if self.n < 0:
            raise HypergraphError("negative vertex count")
        prev = None
        for e in self.edges:
            if len(e) != self.k or len(set(e)) != self.k:
                raise HypergraphError(f"edge {e} must have {self.k} distinct vertices")
            if tuple(sorted(e)) != e:
                raise HypergraphError(f"edge {e} is not sorted")
            if not all(0 <= v < self.n for v in e):
                raise HypergraphError(f"edge {e} has a vertex outside [0, {self.n})")
            if prev is not None and e <= prev:
                raise HypergraphError(
                    f"edges must be distinct and strictly increasing, got {e} after {prev}"
                )
            prev = e

    # -- construction ---------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return tuple(deg)

    def relabel(self, perm: Sequence[int]) -> "Hypergraph":
        """Apply the vertex permutation v -> perm[v]."""
        return hypergraph(self.k, self.n, [tuple(perm[v] for v in e) for e in self.edges])

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "edges": [list(e) for e in self.edges]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __str__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, edges={list(self.edges)})"


def hypergraph(k: int, n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Normalizing constructor: sorts each edge and the edge list."""
    return Hypergraph(k=k, n=n, edges=tuple(sorted(tuple(sorted(e)) for e in edges)))


def _json_int(value, what: str) -> int:
    """``value`` itself when it is a JSON integer; floats, strings and
    booleans are rejected rather than truncated or parsed."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise HypergraphError(f"{what} must be an integer, got {value!r}")
    return value


def from_json_dict(data: dict) -> Hypergraph:
    edges = data["edges"]
    mult = data.get("mult", [1] * len(edges))
    if len(mult) != len(edges) or any(_json_int(x, "mult entry") != 1 for x in mult):
        raise HypergraphError(f"mult must give multiplicity 1 to each of the {len(edges)} edges")
    return hypergraph(
        _json_int(data["k"], "k"),
        _json_int(data["n"], "n"),
        [tuple(_json_int(v, "edge entry") for v in e) for e in edges],
    )


def loads(text: str) -> Hypergraph:
    return from_json_dict(json.loads(text))


# -- structural predicates ---------------------------------------------------

def connects(vertices: Iterable[int], links: Iterable[Sequence[int]]) -> bool:
    """Whether ``links`` (vertex groups, each a subset of ``vertices``)
    join all of ``vertices`` into one component; union-find."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in links:
        r = find(group[0])
        for v in group[1:]:
            parent[find(v)] = r
    return len({find(v) for v in parent}) <= 1


def is_connected(h: Hypergraph) -> bool:
    return connects(range(h.n), h.edges)


def is_linear(h: Hypergraph) -> bool:
    """Any two edges share at most one vertex."""
    for i, e in enumerate(h.edges):
        se = set(e)
        for f in h.edges[i + 1:]:
            if len(se.intersection(f)) > 1:
                return False
    return True


def _peel(h: Hypergraph) -> tuple[list[list[int]], list[int], list[int]]:
    """Peel the incidence graph (vertex nodes ``0..n-1``, edge nodes
    ``n..n+m-1``) one layer of leaves at a time.  Returns the layers, each
    node's parent (the node it was peeled into; -1 in the core) and the
    core: a hypertree's center, or a unicyclic hypergraph's cycle in
    order.  Defined on connected inputs with n >= 1 and cyclomatic number
    at most 1 (k*m <= n+m); anything else raises ``UnsupportedError``.
    The core decides: each component leaves a node, and one of cyclomatic
    number 2 or more a node of degree 3 or more, so the input is in the
    domain exactly when one node is left, or one cycle of degree-2 nodes."""
    k, n, edges = h.k, h.n, h.edges
    total = n + len(edges)
    deg = [0] * n + [k] * (total - n)
    link = [0] * total  # the sum of each node's neighbours not yet peeled
    for node, e in enumerate(edges, n):
        link[node] = sum(e)
        for v in e:
            deg[v] += 1
            link[v] += node
    parent = [-1] * total
    layers = []
    # edge nodes have degree k >= 2, so every leaf is a vertex node; a
    # longest path of the tree then has even length and one center
    layer = [v for v in range(n) if deg[v] == 1]
    while layer:
        layers.append(layer)
        nxt = []
        for x in layer:  # a leaf's link is its one neighbour left
            p = parent[x] = link[x]
            link[p] -= x
            deg[p] -= 1
            if deg[p] == 1:
                nxt.append(p)
        layer = [p for p in nxt if deg[p] == 1]  # the center ends at degree 0
    core = [x for x in range(total) if parent[x] < 0]
    cycle = core[:1]
    if len(core) > 1 and all(deg[x] == 2 for x in core):
        # cycles, each node linking its two neighbours: walk one from an edge node
        cycle = [next(v for v in edges[core[-1] - n] if parent[v] < 0), core[-1]]
        while (x := link[cycle[-1]] - cycle[-2]) != cycle[0]:
            cycle.append(x)
    if not core or len(cycle) < len(core):
        raise UnsupportedError(
            f"needs a connected hypertree or unicyclic hypergraph, got k={k}, n={n}, m={total - n}"
        )
    return layers, parent, cycle


def girth(h: Hypergraph) -> int | None:
    """Length (in edges) of the one Berge cycle, half the incidence
    cycle's (two edges on a shared pair give 2); None for a hypertree.
    Defined where ``_peel`` is."""
    core = _peel(h)[2]
    return len(core) // 2 if len(core) > 1 else None


def diameter(h: Hypergraph) -> int:
    """Max over vertex pairs of the least number of edges on a connecting
    walk: a hypertree's number of peel layers.  A disconnected input
    raises ``HypergraphError``, any other non-tree ``UnsupportedError``."""
    if not is_connected(h):
        raise HypergraphError("diameter of a disconnected hypergraph")
    layers, _, core = _peel(h)
    if len(core) > 1:
        raise UnsupportedError("diameter needs a hypertree, got a unicyclic hypergraph")
    return len(layers)


HYPERTREE = "hypertree"
LINEAR_UNICYCLIC = "linear-unicyclic"
OTHER = "other"


@dataclass(frozen=True, slots=True)
class Classification:
    kind: str
    girth: int | None = None


def classify(h: Hypergraph) -> Classification:
    """Hypertree / linear unicyclic (with girth) / other, read off one
    ``_peel``: a hypertree leaves one node, a unicyclic hypergraph its
    Berge cycle, which is linear exactly when it has at least 3 edges.
    Outside the peel's domain the class is other."""
    try:
        core = _peel(h)[2]
    except UnsupportedError:
        return Classification(OTHER)
    if len(core) == 1:
        return Classification(HYPERTREE)
    g = len(core) // 2
    return Classification(LINEAR_UNICYCLIC, g) if g >= 3 else Classification(OTHER)


def pendant_edges_at(h: Hypergraph, u: int) -> list[int]:
    """Indices of pendant edges attached at u.

    An edge is pendant when exactly one of its vertices has degree >= 2;
    that vertex is its attachment.
    """
    deg = h.degrees()
    out = []
    for i, e in enumerate(h.edges):
        heavy = [v for v in e if deg[v] >= 2]
        if len(heavy) == 1 and heavy[0] == u:
            out.append(i)
    return out


def complete_subhypergraphs(h: Hypergraph) -> list[tuple[int, ...]]:
    """Sorted vertex sets S of size k+1 whose k+1 k-subsets are all edges of
    h; each is the union of any two of its edges, which share k-1 vertices."""
    edge_set = set(h.edges)
    by_ridge = defaultdict(list)
    for e in h.edges:
        for ridge in combinations(e, h.k - 1):
            by_ridge[ridge].append(e)
    unions = {tuple(sorted({*e, *f})) for g in by_ridge.values() for e, f in combinations(g, 2)}
    return sorted(s for s in unions if all(t in edge_set for t in combinations(s, h.k)))
