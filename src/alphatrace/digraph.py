"""Multi-digraphs and their exact counting kernels.

Arcs form a multiset; loops count toward both the in- and out-degree.
All counts are arbitrary-precision integers.

Conventions fixed here and relied on by the trace engine:

* ``arborescence_count(g, root)`` counts spanning in-trees (every
  non-root vertex has one tree arc, following tree arcs reaches the
  root), via a fraction-free determinant of the reduced out-degree
  Laplacian.  Loops never change the count.
* ``euler_tour_count(g)`` counts Euler tours with distinguishable
  parallel arcs, up to rotation of the closed arc sequence:
  arborescences times prod (outdeg-1)!.
* ``tour_sequence_count(g)`` counts closed arc sequences with a
  distinguished starting position and indistinguishable parallel arcs,
  i.e. arcs * euler_tour_count / b.  This is the weight the trace
  formula needs (pinned against the k=2 matrix oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import HypergraphError
from .hypergraph import connects

Arc = tuple[int, int]


@dataclass(frozen=True, slots=True)
class MultiDigraph:
    vertices: tuple[int, ...]
    arcs: tuple[tuple[Arc, int], ...]  # ((tail, head), multiplicity), sorted

    def __post_init__(self):
        vs = set(self.vertices)
        for (u, v), mu in self.arcs:
            if mu < 1:
                raise HypergraphError("arc multiplicity must be positive")
            if u not in vs or v not in vs:
                raise HypergraphError(f"arc ({u},{v}) endpoint outside vertex set")

    @property
    def arc_count(self) -> int:
        """Total number of arcs, counting multiplicity."""
        return sum(mu for _, mu in self.arcs)

    def out_degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for (u, _), mu in self.arcs:
            deg[u] += mu
        return deg

    def in_degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for (_, v), mu in self.arcs:
            deg[v] += mu
        return deg

    def is_balanced(self) -> bool:
        return self.out_degrees() == self.in_degrees()

    def is_connected(self) -> bool:
        """Weak connectivity of the non-isolated vertices."""
        touched = {u for (u, v), _ in self.arcs} | {v for (u, v), _ in self.arcs}
        return connects(touched, (a for a, _ in self.arcs))

    def to_debug_text(self) -> str:
        lines = [f"vertices {list(self.vertices)}"]
        for (u, v), mu in self.arcs:
            lines.append(f"{u} -> {v} x{mu}")
        return "\n".join(lines)


def multidigraph(
    arcs: Mapping[Arc, int] | Iterable[Arc],
    vertices: Iterable[int] | None = None,
) -> MultiDigraph:
    """Normalizing constructor; vertex set defaults to the arc endpoints."""
    counts: dict[Arc, int] = {}
    if isinstance(arcs, Mapping):
        for a, mu in arcs.items():
            counts[a] = counts.get(a, 0) + int(mu)
    else:
        for a in arcs:
            counts[a] = counts.get(a, 0) + 1
    counts = {a: mu for a, mu in counts.items() if mu}
    if vertices is None:
        vs = sorted({u for u, _ in counts} | {v for _, v in counts})
    else:
        vs = sorted(set(vertices) | {u for u, _ in counts} | {v for _, v in counts})
    return MultiDigraph(tuple(vs), tuple(sorted(counts.items())))


def b_factor(g: MultiDigraph) -> int:
    """Product of factorials of arc multiplicities."""
    out = 1
    for _, mu in g.arcs:
        out *= math.factorial(mu)
    return out


def c_factor(g: MultiDigraph) -> int:
    """Product of factorials of vertex out-degrees."""
    out = 1
    for d in g.out_degrees().values():
        out *= math.factorial(d)
    return out


# ---------------------------------------------------------------------------
# Determinants and arborescences
# ---------------------------------------------------------------------------

def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    m = [list(map(int, row)) for row in matrix]
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    return _bareiss_in_place(m)


def _bareiss_in_place(m: list[list[int]]) -> int:
    """Bareiss elimination on a square integer matrix the caller owns."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def count_in_arborescences(
    arc_counts: Mapping[Arc, int], vertices: Sequence[int], root: int
) -> int:
    """Spanning in-trees toward ``root``: reduced out-Laplacian determinant.

    Loops drop out of the Laplacian, so they are ignored.  The root's row
    and column are never built.
    """
    if root not in vertices:
        raise HypergraphError(f"root {root} not a vertex")
    idx = {v: i for i, v in enumerate(v for v in vertices if v != root)}
    lap = [[0] * len(idx) for _ in idx]
    for (u, v), mu in arc_counts.items():
        if u == v or u == root:
            continue
        row = lap[idx[u]]
        row[idx[u]] += mu
        if v != root:
            row[idx[v]] -= mu
    return _bareiss_in_place(lap)


def arborescence_count(g: MultiDigraph, root: int) -> int:
    """Number of spanning in-trees of g oriented toward ``root``."""
    return count_in_arborescences(dict(g.arcs), g.vertices, root)


# ---------------------------------------------------------------------------
# Euler tours
# ---------------------------------------------------------------------------

def euler_tour_count(g: MultiDigraph) -> int:
    """Euler tours with distinguishable arcs, up to rotation.

    0 when the digraph has no arcs, is unbalanced, or is disconnected on
    its non-isolated vertices.
    """
    if g.arc_count == 0:
        return 0
    if not g.is_balanced() or not g.is_connected():
        return 0
    touched = sorted({u for (u, v), _ in g.arcs} | {v for (u, v), _ in g.arcs})
    tw = count_in_arborescences(dict(g.arcs), touched, touched[0])
    out = tw
    for v in touched:
        d = sum(mu for (u, _), mu in g.arcs if u == v)
        out *= math.factorial(d - 1)
    return out


def tour_sequence_count(g: MultiDigraph) -> int:
    """Closed arc sequences with a distinguished start, parallel arcs
    indistinguishable: arcs * euler_tour_count / b."""
    tours = euler_tour_count(g)
    if tours == 0:
        return 0
    total = g.arc_count * tours
    b = b_factor(g)
    assert total % b == 0, "sequence count must be integral"
    return total // b


def hierholzer_tour(g: MultiDigraph) -> list[Arc] | None:
    """Construct one Euler tour (as an arc list) or return None."""
    if g.arc_count == 0:
        return None
    if not g.is_balanced() or not g.is_connected():
        return None
    remaining: dict[int, list[int]] = {}
    for (u, v), mu in g.arcs:
        remaining.setdefault(u, []).extend([v] * mu)
    start = min(remaining)
    circuit: list[int] = [start]
    pos = 0
    while pos < len(circuit):
        u = circuit[pos]
        if remaining.get(u):
            # peel one closed subwalk from u and splice it in
            walk = [u]
            w = u
            while remaining.get(w):
                w2 = remaining[w].pop()
                walk.append(w2)
                w = w2
            if w != u:
                return None  # unbalanced, should not happen past the checks
            circuit = circuit[:pos] + walk + circuit[pos + 1:]
        else:
            pos += 1
    if any(remaining.get(u) for u in remaining):
        return None
    return list(zip(circuit, circuit[1:]))
