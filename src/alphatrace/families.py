"""Constructions of the named hypergraph families.

Vertex labeling is fixed by construction order (cycle/path spine first,
then interior vertices, then attachments) so every build is reproducible
bit for bit.  Hypertree families come out with n = m(k-1)+1 vertices,
unicyclic families with n = m(k-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParameterError
from .hypergraph import Hypergraph, hypergraph


def coalesce(h1: Hypergraph, v1: int, h2: Hypergraph, v2: int) -> Hypergraph:
    """Disjoint union identifying v1 in h1 with v2 in h2.

    Vertices of h1 keep their labels; vertices of h2 are appended in order
    (skipping v2, which becomes v1).
    """
    if h1.k != h2.k:
        raise ParameterError("cannot coalesce hypergraphs of different rank")
    mapping: dict[int, int] = {}
    nxt = h1.n
    for v in range(h2.n):
        if v == v2:
            mapping[v] = v1
        else:
            mapping[v] = nxt
            nxt += 1
    edges = list(h1.edges) + [tuple(mapping[v] for v in e) for e in h2.edges]
    return hypergraph(h1.k, nxt, edges)


def add_pendant_edge(h: Hypergraph, v: int) -> Hypergraph:
    """Attach a fresh edge at v; the other k-1 vertices are new."""
    if not 0 <= v < h.n:
        raise ParameterError(f"attachment vertex {v} out of range")
    new = tuple(range(h.n, h.n + h.k - 1))
    return hypergraph(h.k, h.n + h.k - 1, list(h.edges) + [(v,) + new])


def hyperpath(k: int, m: int) -> Hypergraph:
    """Path of m edges; consecutive edges share one vertex."""
    _check_k(k)
    if m < 0:
        raise ParameterError("hyperpath needs m >= 0")
    if m == 0:
        return hypergraph(k, 1, [])
    edges = [tuple(range(i * (k - 1), i * (k - 1) + k)) for i in range(m)]
    return hypergraph(k, m * (k - 1) + 1, edges)


def hyperstar(k: int, m: int) -> Hypergraph:
    """m edges through the common center vertex 0."""
    _check_k(k)
    if m < 0:
        raise ParameterError("hyperstar needs m >= 0")
    if m == 0:
        return hypergraph(k, 1, [])
    edges = [
        (0,) + tuple(range(1 + i * (k - 1), 1 + (i + 1) * (k - 1)))
        for i in range(m)
    ]
    return hypergraph(k, m * (k - 1) + 1, edges)


def hypercycle(k: int, m: int) -> Hypergraph:
    """Cycle of m >= 3 edges; consecutive edges share one vertex."""
    _check_k(k)
    if m < 3:
        raise ParameterError(f"hypercycle needs m >= 3, got {m}")
    n = m * (k - 1)
    edges = []
    for i in range(m):
        block = list(range(i * (k - 1), i * (k - 1) + k))
        block[-1] %= n
        edges.append(tuple(block))
    return hypergraph(k, n, edges)


def cycle_with_pendant_star(k: int, g: int, m: int) -> Hypergraph:
    """Hypercycle of girth g with m-g pendant edges at one cycle joint."""
    if not 3 <= g <= m:
        raise ParameterError(f"need 3 <= g <= m, got g={g}, m={m}")
    h = hypercycle(k, g)
    for _ in range(m - g):
        h = add_pendant_edge(h, 0)
    return h


def triangle_with_pendant_counts(k: int, n1: int, n2: int, n3: int) -> Hypergraph:
    """Girth-3 hypercycle with n1, n2, n3 pendant edges at its three joints."""
    if min(n1, n2, n3) < 0:
        raise ParameterError("pendant counts must be nonnegative")
    h = hypercycle(k, 3)
    joints = (0, k - 1, 2 * (k - 1))
    for joint, count in zip(joints, (n1, n2, n3)):
        for _ in range(count):
            h = add_pendant_edge(h, joint)
    return h


def cycle_with_tail(k: int, g: int, m: int) -> Hypergraph:
    """Hypercycle of girth g with a path of m-g edges hung at a degree-1
    cycle vertex (requires k >= 3, so such a vertex exists)."""
    if k < 3:
        raise ParameterError("cycle-with-tail needs k >= 3")
    if not 3 <= g <= m:
        raise ParameterError(f"need 3 <= g <= m, got g={g}, m={m}")
    h = hypercycle(k, g)
    if m == g:
        return h
    return coalesce(h, 1, hyperpath(k, m - g), 0)


def starlike(k: int, arms: tuple[int, ...]) -> Hypergraph:
    """Paths of lengths arms[i] sharing the common end vertex 0."""
    _check_k(k)
    if not arms or any(a < 1 for a in arms):
        raise ParameterError("starlike needs at least one arm, every arm >= 1")
    h = hyperpath(k, arms[0])
    for length in arms[1:]:
        h = coalesce(h, 0, hyperpath(k, length), 0)
    return h


def path_with_branch(k: int, m: int) -> Hypergraph:
    """Path of m-1 edges with a pendant edge at a degree-1 vertex of its
    second edge (requires k >= 3 so the second edge has such a vertex)."""
    if k < 3:
        raise ParameterError("path-with-branch needs k >= 3")
    if m < 3:
        raise ParameterError(f"path-with-branch needs m >= 3, got {m}")
    h = hyperpath(k, m - 1)
    return add_pendant_edge(h, k)  # lowest interior vertex of edge 2


def diameter_star(k: int, m: int, d: int) -> Hypergraph:
    """Starlike hypertree with arm lengths floor(d/2), d - floor(d/2),
    and m - d arms of length 1; has diameter d."""
    if not 2 <= d <= m:
        raise ParameterError(f"need 2 <= d <= m, got d={d}, m={m}")
    arms = (d // 2, d - d // 2) + (1,) * (m - d)
    return starlike(k, arms)


def _check_k(k: int):
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")


# ---------------------------------------------------------------------------
# Tagged family specs, usable from the CLI and serializable configs.
# ---------------------------------------------------------------------------

# kind -> (required params, builder); the builder takes k, then the
# params in the listed order.
KINDS = {
    "hyperpath": (("m",), hyperpath),
    "hyperstar": (("m",), hyperstar),
    "hypercycle": (("m",), hypercycle),
    "cg-odot-s": (("g", "m"), cycle_with_pendant_star),
    "c3-split": (("n1", "n2", "n3"), triangle_with_pendant_counts),
    "cg-dot-p": (("g", "m"), cycle_with_tail),
    "starlike": (("arms",), starlike),
    "fmk": (("m",), path_with_branch),
}


@dataclass(frozen=True, slots=True)
class FamilySpec:
    kind: str
    k: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        names = KINDS[self.kind][0]
        missing = [p for p in names if p not in self.params]
        if missing:
            raise ParameterError(f"family {self.kind!r} missing params {missing}")
        unknown = sorted(set(self.params) - set(names))
        if unknown:
            raise ParameterError(f"family {self.kind!r} does not take params {unknown}")


def build_family(spec: FamilySpec) -> Hypergraph:
    names, build = KINDS[spec.kind]
    return build(spec.k, *(spec.params[name] for name in names))


def parse_arms(text: str) -> tuple[int, ...]:
    """Starlike arm lengths written like "2-1-1"."""
    try:
        return tuple(int(x) for x in text.split("-"))
    except ValueError:
        raise ParameterError(f"arm lengths must be integers joined by '-', got {text!r}") from None


def parse_family_string(text: str) -> FamilySpec:
    """Parse e.g. "hyperpath:k=3,m=4" or "starlike:k=3,arms=2-1-1"."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    params: dict = {}
    for piece in filter(None, (s.strip() for s in rest.split(","))):
        key, _, value = piece.partition("=")
        key = key.strip()
        if key in params:
            raise ParameterError(f"family string {text!r} sets {key} more than once")
        if key == "arms":
            params["arms"] = parse_arms(value)
            continue
        try:
            number = int(value)
        except ValueError:
            raise ParameterError(
                f"family string {text!r}: {key} must be an integer, got {value!r}"
            ) from None
        params[key] = number
    k = params.pop("k", None)
    if k is None:
        raise ParameterError(f"family string {text!r} must set k")
    return FamilySpec(kind, k, params)
