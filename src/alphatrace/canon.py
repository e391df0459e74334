"""Canonical forms for hypergraphs at desk scale.

Two hypergraphs map to the same byte string exactly when they are
isomorphic.  Twin vertices (vertices lying in exactly the same edges,
e.g. the interior vertices of one pendant edge) are first collapsed
into a single class node weighted by the class size; the reduced
vertex-class/edge incidence structure is then canonized by color
refinement with individualization, branching on every member of the
first non-singleton color class and keeping the smallest certificate.
The collapse removes the factorial branching over interchangeable
leaves, and is exact: twin classes are label-independent, so the
reduced colored structure determines the hypergraph up to isomorphism.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .errors import BudgetExceeded
from .hypergraph import Hypergraph

MAX_CANON_VERTICES = 24
CANON_CACHE_SIZE = 16384


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
    counts: dict[int, int] = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    target = None
    for c in sorted(counts):
        if counts[c] > 1:
            target = c
            break
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


@lru_cache(maxsize=CANON_CACHE_SIZE)
def canonical_form(h: Hypergraph) -> bytes:
    """Isomorphism-class key; equal keys iff isomorphic hypergraphs.

    Memoized by hypergraph value (``Hypergraph`` is frozen and hashable)."""
    if h.n > MAX_CANON_VERTICES:
        raise BudgetExceeded(
            f"canonical form capped at {MAX_CANON_VERTICES} vertices, got {h.n}",
            {"n": h.n},
        )
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(h.edges):
        for v in e:
            incident[v].append(i)
    twin_groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(h.n):
        twin_groups.setdefault(tuple(incident[v]), []).append(v)
    classes = sorted(twin_groups.values())
    sizes = [len(c) for c in classes]
    class_of = {}
    for idx, members in enumerate(classes):
        for v in members:
            class_of[v] = idx
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
        # the trailing 1 keeps keys byte-stable: keys order enumerated
        # members, so new key bytes would change enumerate and verify output
        rows = sorted(
            (tuple(sorted((class_pos[c], cnt) for c, cnt in profile.items())), 1)
            for profile in edge_profiles
        )
        size_row = tuple(sizes[c] for c in class_order)
        return repr((h.k, h.n, size_row, rows)).encode()

    return _canonize(adj, colors, encode)


def are_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    if (h1.k, h1.n, h1.m) != (h2.k, h2.n, h2.m):
        return False
    if sorted(h1.degrees()) != sorted(h2.degrees()):
        return False
    return canonical_form(h1) == canonical_form(h2)
