"""Edge- and subtree-moving transformations on k-uniform hypergraphs.

All four operations return new hypergraphs with the same k, n and edge
count; inputs are never mutated.  Preconditions are validated and raise
TransformError when violated.

* ``sigma_transform`` moves all pendant edges from u to v (requires
  d(u) < d(v) + s); it strictly increases the degree square sum.
* ``first_path_slide`` moves an attached hypergraph from a joint of a
  pendant path to a degree-1 path vertex; strictly decreases the degree
  square sum.
* ``second_path_slide`` moves an attachment sitting at a degree-1 vertex
  of path edge l to one of path edge l-1 (2 <= l <= ceil(r/2)); preserves
  the degree multiset.
* ``third_path_slide`` moves an attachment from joint u_l to u_{l-1}
  (1 <= l <= floor(r/2)); for l = 1 the degree square sum drops by
  2 * d0, for l >= 2 the degree multiset is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import TransformError
from .hypergraph import Hypergraph, hypergraph, pendant_edges_at


def sigma_transform(h: Hypergraph, u: int, v: int) -> Hypergraph:
    """Re-attach every pendant edge at u to v."""
    if u == v:
        raise TransformError("u and v must differ")
    moved = pendant_edges_at(h, u)
    s = len(moved)
    if s == 0:
        raise TransformError(f"vertex {u} carries no pendant edge")
    deg = h.degrees()
    if not deg[u] < deg[v] + s:
        raise TransformError(
            f"degree condition fails: d(u)={deg[u]} not < d(v)+s={deg[v] + s}"
        )
    moved_set = set(moved)
    if any(v in h.edges[i] for i in moved_set):
        raise TransformError(f"target vertex {v} lies inside a moved pendant edge")
    edges = [
        tuple(sorted((set(e) - {u}) | {v})) if i in moved_set else e
        for i, e in enumerate(h.edges)
    ]
    return hypergraph(h.k, h.n, edges)


def sigma_candidates(h: Hypergraph) -> list[tuple[int, int]]:
    """All (u, v) pairs on which sigma_transform is applicable."""
    deg = h.degrees()
    out = []
    for u in range(h.n):
        moved = pendant_edges_at(h, u)
        s = len(moved)
        if s == 0:
            continue
        blocked = {w for i in moved for w in h.edges[i]}
        for v in range(h.n):
            if v == u or v in blocked:
                continue
            if deg[u] < deg[v] + s:
                out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# Path decompositions
# ---------------------------------------------------------------------------

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


def _validate_path(h: Hypergraph, path_edges: Sequence[int]) -> list[int]:
    """Check the edges form a hyperpath in the given order; return joints."""
    r = len(path_edges)
    if r == 0:
        raise TransformError("empty path")
    if len(set(path_edges)) != r or not all(0 <= i < h.m for i in path_edges):
        raise TransformError("path edge indices invalid")
    sets = [set(h.edges[i]) for i in path_edges]
    joints: list[int] = []
    for a in range(r):
        for b in range(a + 1, r):
            inter = sets[a] & sets[b]
            if b == a + 1:
                if len(inter) != 1:
                    raise TransformError("consecutive path edges must share one vertex")
                joints.append(next(iter(inter)))
            elif inter:
                raise TransformError("non-consecutive path edges must be disjoint")
    return joints


def _split_attachment(
    h: Hypergraph, path_edges: Sequence[int], attach: int
) -> tuple[list[int], set[int]]:
    """Return the non-path edge indices and vertices, verifying they meet
    the path exactly in {attach}."""
    path_set = set(path_edges)
    rest = [i for i in range(h.m) if i not in path_set]
    if not rest:
        raise TransformError("nothing is attached to the path")
    path_vertices = {v for i in path_edges for v in h.edges[i]}
    rest_vertices = {v for i in rest for v in h.edges[i]}
    if attach not in path_vertices or attach not in rest_vertices:
        raise TransformError(f"vertex {attach} does not join the path and the rest")
    overlap = path_vertices & rest_vertices
    if overlap != {attach}:
        raise TransformError(
            f"attachment must meet the path only at {attach}, found {sorted(overlap)}"
        )
    return rest, rest_vertices


def _move_attachment(h: Hypergraph, rest: Sequence[int], old: int, new: int) -> Hypergraph:
    edges = []
    rest_set = set(rest)
    for i, e in enumerate(h.edges):
        if i in rest_set and old in e:
            edges.append(tuple(sorted((set(e) - {old}) | {new})))
        else:
            edges.append(e)
    return hypergraph(h.k, h.n, edges)


def first_path_slide(
    h: Hypergraph, path_edges: Sequence[int], attach: int, target: int | None = None
) -> Hypergraph:
    """Move the attachment from a path joint to a degree-1 path vertex."""
    if h.k < 3:
        raise TransformError("first path slide needs k >= 3")
    joints = _validate_path(h, path_edges)
    if attach not in joints:
        raise TransformError(f"vertex {attach} is not a joint of the path")
    rest, _ = _split_attachment(h, path_edges, attach)
    deg = h.degrees()
    cored = sorted(
        v for i in path_edges for v in h.edges[i] if deg[v] == 1
    )
    if target is None:
        target = cored[0]
    elif target not in cored:
        raise TransformError(f"target {target} is not a degree-1 path vertex")
    return _move_attachment(h, rest, attach, target)


def second_path_slide(
    h: Hypergraph, path_edges: Sequence[int], attach: int, target: int | None = None
) -> Hypergraph:
    """Move the attachment from a degree-1 vertex of path edge l to one of
    path edge l-1, for 2 <= l <= ceil(r/2)."""
    if h.k < 3:
        raise TransformError("second path slide needs k >= 3")
    r = len(path_edges)
    if r < 3:
        raise TransformError("second path slide needs a path of length >= 3")
    joints = _validate_path(h, path_edges)
    if attach in joints:
        raise TransformError("attachment must sit at a non-joint path vertex")
    holders = [pos for pos, i in enumerate(path_edges) if attach in h.edges[i]]
    if len(holders) != 1:
        raise TransformError("attachment vertex must lie on exactly one path edge")
    l = holders[0] + 1  # 1-based edge index along the path
    if not 2 <= l <= (r + 1) // 2:
        raise TransformError(f"edge position l={l} outside [2, ceil(r/2)] for r={r}")
    rest, _ = _split_attachment(h, path_edges, attach)
    deg = h.degrees()
    prev_edge = h.edges[path_edges[l - 2]]
    cored = sorted(v for v in prev_edge if deg[v] == 1)
    if not cored and target is None:
        raise TransformError("previous path edge has no degree-1 vertex")
    if target is None:
        target = cored[0]
    elif target not in cored:
        raise TransformError(f"target {target} is not a degree-1 vertex of edge l-1")
    return _move_attachment(h, rest, attach, target)


def third_path_slide(
    h: Hypergraph, path_edges: Sequence[int], attach: int, target: int | None = None
) -> Hypergraph:
    """Move the attachment from joint u_l to u_{l-1}, 1 <= l <= floor(r/2).

    For l = 1 the destination u_0 is a degree-1 vertex of the first path
    edge (all such vertices are equivalent; the smallest label is used).
    """
    r = len(path_edges)
    if r < 2:
        raise TransformError("third path slide needs a path of length >= 2")
    joints = _validate_path(h, path_edges)
    if attach not in joints:
        raise TransformError(f"vertex {attach} is not a joint of the path")
    l = joints.index(attach) + 1  # attach = u_l, the joint of edges l and l+1
    if not 1 <= l <= r // 2:
        raise TransformError(f"joint position l={l} outside [1, floor(r/2)] for r={r}")
    rest, _ = _split_attachment(h, path_edges, attach)
    if target is None:
        if l >= 2:
            target = joints[l - 2]
        else:
            deg = h.degrees()
            cored = sorted(v for v in h.edges[path_edges[0]] if deg[v] == 1)
            if not cored:
                raise TransformError("first path edge has no degree-1 vertex")
            target = cored[0]
    return _move_attachment(h, rest, attach, target)


def path_slide(h: Hypergraph, which: str, site: PathSite) -> Hypergraph:
    """Dispatch to the first/second/third slide for an explicit site."""
    if which == FIRST:
        return first_path_slide(h, site.path_edges, site.attach, site.target)
    if which == SECOND:
        return second_path_slide(h, site.path_edges, site.attach, site.target)
    if which == THIRD:
        return third_path_slide(h, site.path_edges, site.attach, site.target)
    raise TransformError(f"unknown slide kind {which!r}")
