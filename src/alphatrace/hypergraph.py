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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import HypergraphError


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

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

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


def _incidence_adjacency(h: Hypergraph) -> list[list[int]]:
    """Bipartite incidence graph: nodes 0..n-1 vertices, n..n+m-1 edges."""
    adj: list[list[int]] = [[] for _ in range(h.n + h.m)]
    for i, e in enumerate(h.edges):
        node = h.n + i
        for v in e:
            adj[v].append(node)
            adj[node].append(v)
    return adj


def girth(h: Hypergraph) -> int | None:
    """Length (in edges) of a shortest Berge cycle; None when acyclic.

    Two edges meeting in >= 2 vertices form a cycle of length 2.  Longer
    cycles are found as cycles of the bipartite incidence graph (a Berge
    cycle of length g is an incidence cycle of length 2g).
    """
    for i, e in enumerate(h.edges):
        se = set(e)
        for f in h.edges[i + 1:]:
            if len(se.intersection(f)) > 1:
                return 2
    adj = _incidence_adjacency(h)
    best: int | None = None
    total = len(adj)
    for start in range(h.n, total):  # every cycle passes through an edge node
        dist = [-1] * total
        par = [-1] * total
        dist[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            if best is not None and dist[x] >= best // 2:
                break
            for y in adj[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    par[y] = x
                    queue.append(y)
                elif par[x] != y and par[y] != x:
                    cyc = dist[x] + dist[y] + 1
                    if best is None or cyc < best:
                        best = cyc
    if best is None:
        return None
    return best // 2


def diameter(h: Hypergraph) -> int:
    """Max over vertex pairs of the least number of edges on a connecting walk."""
    if not is_connected(h):
        raise HypergraphError("diameter of a disconnected hypergraph")
    if h.n <= 1:
        return 0
    adj = _incidence_adjacency(h)
    worst = 0
    for s in range(h.n):
        dist = {s: 0}
        queue = [s]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        worst = max(worst, max(d for node, d in dist.items() if node < h.n))
    return worst // 2


HYPERTREE = "hypertree"
LINEAR_UNICYCLIC = "linear-unicyclic"
OTHER = "other"


@dataclass(frozen=True, slots=True)
class Classification:
    kind: str
    girth: int | None = None


def classify(h: Hypergraph) -> Classification:
    """Hypertree / linear unicyclic (with girth) / other.

    A connected hypergraph on n = m(k-1)+1 vertices is acyclic; a
    connected linear one on n = m(k-1) vertices carries exactly one Berge
    cycle (its incidence graph has cyclomatic number 1).
    """
    if not is_connected(h):
        return Classification(OTHER)
    if h.n == h.m * (h.k - 1) + 1:
        return Classification(HYPERTREE)
    if is_linear(h) and h.n == h.m * (h.k - 1):
        return Classification(LINEAR_UNICYCLIC, girth(h))
    return Classification(OTHER)


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
    """Vertex sets S of size k+1 whose k+1 k-subsets are all edges of h."""
    edge_set = set(h.edges)
    candidates = sorted({v for e in h.edges for v in e})
    found = []
    for s in combinations(candidates, h.k + 1):
        if all(tuple(sorted(set(s) - {v})) in edge_set for v in s):
            found.append(s)
    return found
