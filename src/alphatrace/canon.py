"""Canonical forms for hypertrees and unicyclic hypergraphs.

Two hypergraphs map to the same byte string exactly when they are
isomorphic.  The key is read off the bipartite incidence graph (vertex
nodes ``0..n-1``, edge nodes ``n..n+m-1``), which is a tree for a
hypertree and has exactly one cycle for a unicyclic hypergraph, so no
search is needed (Aho, Hopcroft and Ullman 1974).  Leaves are peeled
layer by layer; a peeled node's code is its side (``V`` or ``E``)
followed by the sorted codes of the nodes peeled into it, in
parentheses.  A tree stops at its center, or at two adjacent centers
where the smaller of the two rootings wins.  A unicyclic graph stops at
its cycle, whose code is the least rotation or reflection of the
cycle's codes.  The cost is the total length of the codes written.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .errors import UnsupportedError
from .hypergraph import Hypergraph, _incidence_adjacency, is_connected

CANON_CACHE_SIZE = 16384


def _least_rotation(codes: list[str]) -> str:
    """The least concatenation of ``codes`` over its rotations."""
    s = "".join(codes)
    ss = s + s
    return min(ss[i:i + len(s)] for i in accumulate(map(len, codes[:-1]), initial=0))


@lru_cache(maxsize=CANON_CACHE_SIZE)
def canonical_form(h: Hypergraph) -> bytes:
    """Isomorphism-class key; equal keys iff isomorphic hypergraphs.

    Defined on connected hypergraphs with n >= 1 and cyclomatic number
    at most 1 (k*m <= n+m): every hypertree and every unicyclic
    hypergraph, linear or not.  Anything else raises ``UnsupportedError``.
    Memoized by hypergraph value (``Hypergraph`` is frozen and hashable)."""
    n = h.n
    if n == 0 or h.k * h.m > n + h.m or not is_connected(h):
        raise UnsupportedError(
            "canonical forms need a connected hypertree or unicyclic hypergraph, "
            f"got k={h.k}, n={n}, m={h.m}"
        )
    adj = _incidence_adjacency(h)
    # codes are strings, not nested tuples: repr, sorted and min recurse on those
    kids: list[list[str]] = [[] for _ in adj]
    deg = [len(a) for a in adj]
    peeled = [False] * len(adj)

    def code(x: int) -> str:
        return ("V(" if x < n else "E(") + "".join(sorted(kids[x])) + ")"

    layer = [x for x in range(len(adj)) if deg[x] == 1]
    remaining = len(adj)
    while layer and remaining > 2:
        for x in layer:
            peeled[x] = True
        remaining -= len(layer)
        nxt = []
        for x in layer:
            (p,) = [y for y in adj[x] if not peeled[y]]
            kids[p].append(code(x))
            deg[p] -= 1
            if deg[p] == 1:
                nxt.append(p)
        layer = nxt
    rest = [x for x in range(len(adj)) if not peeled[x]]
    if len(rest) == 1:
        body = code(rest[0])
    elif len(rest) == 2:
        # two adjacent centers are a vertex node and an edge node; "E" sorts
        # before "V", so the rooting at the edge node is the smaller one
        v, e = rest
        kids[e].append(code(v))
        body = code(e)
    else:
        cycle, prev = [rest[0]], None
        while True:
            x = next(y for y in adj[cycle[-1]] if not peeled[y] and y != prev)
            if x == cycle[0]:
                break
            prev = cycle[-1]
            cycle.append(x)
        codes = [code(x) for x in cycle]
        body = "C" + min(_least_rotation(codes), _least_rotation(codes[::-1]))
    return f"{h.k},{n}:{body}".encode()


def are_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    if (h1.k, h1.n, h1.m) != (h2.k, h2.n, h2.m):
        return False
    if sorted(h1.degrees()) != sorted(h2.degrees()):
        return False
    return canonical_form(h1) == canonical_form(h2)
