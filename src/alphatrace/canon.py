"""Canonical forms for hypertrees and unicyclic hypergraphs.

Two hypergraphs map to the same byte string exactly when they are
isomorphic.  The key is read off the bipartite incidence graph (vertex
nodes ``0..n-1``, edge nodes ``n..n+m-1``), which is a tree for a
hypertree and has exactly one cycle for a unicyclic hypergraph, so no
search is needed (Aho, Hopcroft and Ullman 1974).  ``hypergraph._peel``
peels leaves layer by layer; the same peel gives girth, diameter and
class.  A peeled node's code is its side (``V`` or ``E``) followed by
the sorted codes of the nodes peeled into it, in parentheses.  A tree
stops at its one center (incidence-tree leaves are all vertex nodes).
A unicyclic graph stops at its cycle, whose code is the least rotation
or reflection of the cycle's codes.  The cost is the total length of
the codes written.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .hypergraph import Hypergraph, _peel

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
    layers, parent, core = _peel(h)
    n = h.n
    # codes are strings, not nested tuples: repr, sorted and min recurse on those
    kids: list[list[str]] = [[] for _ in parent]

    def code(x: int) -> str:
        return ("V(" if x < n else "E(") + "".join(sorted(kids[x])) + ")"

    for layer in layers:
        for x in layer:
            kids[parent[x]].append(code(x))
    if len(core) == 1:
        body = code(core[0])
    else:
        codes = [code(x) for x in core]
        body = "C" + min(_least_rotation(codes), _least_rotation(codes[::-1]))
    return f"{h.k},{n}:{body}".encode()


def are_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    if (h1.k, h1.n, h1.m) != (h2.k, h2.n, h2.m):
        return False
    if sorted(h1.degrees()) != sorted(h2.degrees()):
        return False
    return canonical_form(h1) == canonical_form(h2)
