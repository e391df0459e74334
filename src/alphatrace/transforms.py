"""Edge- and subtree-moving transformations on k-uniform hypergraphs.

All four operations return new hypergraphs with the same k, n and edge
count; inputs are never mutated.  Preconditions are validated and raise
TransformError when violated, as does a vertex outside 0..n-1.

* ``sigma_transform`` moves all s pendant edges at u to v (requires
  d(u) < d(v) + s); it strictly increases the degree square sum.

The three slides act on a path site: a hyperpath, given as its r edges
in order, plus the attachment, every other edge, which meets the path
only at the vertex ``attach``.  Joint u_l (1 <= l < r) is the vertex
shared by path edges l and l+1; every other path vertex but ``attach``
has degree 1.

* ``first_path_slide`` (k >= 3) moves the attachment from any joint to
  any degree-1 path vertex; strictly decreases the degree square sum.
* ``second_path_slide`` (k >= 3, r >= 3) moves an attachment sitting at
  a degree-1 vertex of path edge l to a degree-1 vertex of path edge l-1
  (2 <= l <= ceil(r/2)); preserves the degree multiset.
* ``third_path_slide`` (r >= 2) moves the attachment from joint u_l to
  u_{l-1} (1 <= l <= floor(r/2)), where u_0 is any degree-1 vertex of
  the first path edge.  For l >= 2 the degree multiset is preserved; for
  l = 1 the degree square sum drops by 2 * s, where s is the number of
  the attachment's edges at u_1.

Each slide moves to the least target it allows unless a target is
given; a given target outside that set raises TransformError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

from .errors import TransformError
from .hypergraph import Hypergraph, hypergraph, pendant_edges_at


def _move(h: Hypergraph, moving: set[int], old: int, new: int) -> Hypergraph:
    """h with ``old`` replaced by ``new`` in the edges of ``moving`` that hold it."""
    edges = [
        tuple(sorted({*e} - {old} | {new})) if i in moving and old in e else e
        for i, e in enumerate(h.edges)
    ]
    return hypergraph(h.k, h.n, edges)


def _sigma_fault(h: Hypergraph, u: int, v: int) -> str | None:
    """Why sigma_transform(h, u, v) does not apply, or None when it does."""
    if not (0 <= u < h.n and 0 <= v < h.n):
        return f"vertices {u} and {v} must lie in 0..{h.n - 1}"
    if u == v:
        return "u and v must differ"
    moved = pendant_edges_at(h, u)
    if not moved:
        return f"vertex {u} carries no pendant edge"
    deg = h.degrees()
    if not deg[u] < deg[v] + len(moved):
        return f"degree condition fails: d(u)={deg[u]} not < d(v)+s={deg[v] + len(moved)}"
    if any(v in h.edges[i] for i in moved):
        return f"target vertex {v} lies inside a moved pendant edge"
    return None


def sigma_transform(h: Hypergraph, u: int, v: int) -> Hypergraph:
    """Re-attach every pendant edge at u to v."""
    fault = _sigma_fault(h, u, v)
    if fault:
        raise TransformError(fault)
    return _move(h, set(pendant_edges_at(h, u)), u, v)


def sigma_candidates(h: Hypergraph) -> list[tuple[int, int]]:
    """All (u, v) pairs on which sigma_transform is applicable."""
    return [(u, v) for u in range(h.n) for v in range(h.n) if _sigma_fault(h, u, v) is None]


@dataclass(frozen=True, slots=True)
class PathSite:
    """A pendant-path decomposition: ordered path edge indices plus the
    vertex where the rest of the hypergraph is attached."""

    path_edges: tuple[int, ...]
    attach: int
    target: int | None = None


FIRST = "first"
SECOND = "second"
THIRD = "third"

# slide -> (least k, least number of path edges)
_NEEDS = {FIRST: (3, 1), SECOND: (3, 3), THIRD: (2, 2)}


def _slide_targets(h: Hypergraph, which: str, path_edges: Sequence[int], attach: int) -> list[int]:
    """The sorted targets slide ``which`` allows for the attachment at ``attach``."""
    if which not in _NEEDS:
        raise TransformError(f"unknown slide kind {which!r}")
    least_k, least_r = _NEEDS[which]
    r = len(path_edges)
    if h.k < least_k or r < least_r:
        raise TransformError(f"{which} slide needs k >= {least_k} and >= {least_r} path edges")
    if len(set(path_edges)) != r or not all(0 <= i < h.m for i in path_edges):
        raise TransformError("path edge indices invalid")
    sets = [set(h.edges[i]) for i in path_edges]
    joints: list[int] = []  # u_1 .. u_{r-1}
    for a, b in combinations(range(r), 2):
        inter = sets[a] & sets[b]
        if len(inter) != (1 if b == a + 1 else 0):
            raise TransformError("path edges must meet in one vertex when consecutive, else not")
        joints.extend(inter)
    free = [sorted(s.difference(joints)) for s in sets]  # each edge's degree-1 vertices
    if which == SECOND:
        # attach on path edge l, off its joints
        l = next((a + 1 for a, f in enumerate(free) if attach in f), None)
        if l is None:
            raise TransformError(f"vertex {attach} is not a degree-1 path vertex")
        lo, hi = 2, (r + 1) // 2
    else:
        # attach = u_l
        if attach not in joints:
            raise TransformError(f"vertex {attach} is not a joint of the path")
        l = joints.index(attach) + 1
        lo, hi = 1, r - 1 if which == FIRST else r // 2
    if not lo <= l <= hi:
        raise TransformError(f"position l={l} outside [{lo}, {hi}] for r={r}")
    if which == FIRST:
        return sorted(chain(*free))
    if which == SECOND:
        return free[l - 2]
    return free[0] if l == 1 else [joints[l - 2]]


def path_slide(h: Hypergraph, which: str, site: PathSite) -> Hypergraph:
    """Slide ``which`` of the attachment at ``site``: to its target, or to
    the least target the slide allows."""
    targets = _slide_targets(h, which, site.path_edges, site.attach)
    path = set(site.path_edges)
    rest = {i for i in range(h.m) if i not in path}
    on_path = {v for i in path for v in h.edges[i]}
    overlap = on_path & {v for i in rest for v in h.edges[i]}
    if overlap != {site.attach}:
        raise TransformError(f"the rest meets the path at {sorted(overlap)}, not {site.attach}")
    target = targets[0] if site.target is None else site.target
    if target not in targets:
        raise TransformError(f"target {target} is not among the {which} slide's targets {targets}")
    return _move(h, rest, site.attach, target)


def first_path_slide(
    h: Hypergraph, path_edges: Sequence[int], attach: int, target: int | None = None
) -> Hypergraph:
    """Move the attachment from a path joint to a degree-1 path vertex."""
    return path_slide(h, FIRST, PathSite(tuple(path_edges), attach, target))


def second_path_slide(
    h: Hypergraph, path_edges: Sequence[int], attach: int, target: int | None = None
) -> Hypergraph:
    """Move the attachment from a degree-1 vertex of path edge l to one of
    path edge l-1, for 2 <= l <= ceil(r/2)."""
    return path_slide(h, SECOND, PathSite(tuple(path_edges), attach, target))


def third_path_slide(
    h: Hypergraph, path_edges: Sequence[int], attach: int, target: int | None = None
) -> Hypergraph:
    """Move the attachment from joint u_l to u_{l-1}, 1 <= l <= floor(r/2);
    u_0 is any degree-1 vertex of the first path edge."""
    return path_slide(h, THIRD, PathSite(tuple(path_edges), attach, target))
