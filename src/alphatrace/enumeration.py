"""Isomorph-free exhaustive generation of hypertrees and linear
unicyclic hypergraphs at desk scale.

Generation is edge-incremental: grow by one pendant edge at a time and
deduplicate each level through canonical forms, so exactly one
representative per isomorphism class survives.  Hypertrees grow m edges
from the single vertex; linear unicyclic hypergraphs of girth g grow
m-g edges from the bare hypercycle (attaching a pendant edge can neither
create a second cycle nor change the girth).

Each growth, one per (class, k, m, girth), runs once per process and is
kept in key order, and so are the diameters of a hypertree growth.  A
growth counts the children it builds, one canonical form each, and
raises ``BudgetExceeded`` past ``MAX_GROWTH_CHILDREN``, naming the layer
it reached and the members kept so far.
``enumerate_family`` is the one entry point: it merges the growths a
filter needs (one girth, or girths 3..m) and applies the diameter and
maximum-degree filters to that list, so every family it returns is
sorted by canonical key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .canon import canonical_form
from .errors import BudgetExceeded, ParameterError
from .families import add_pendant_edge, hypercycle, hyperpath
from .hypergraph import (
    HYPERTREE,
    LINEAR_UNICYCLIC,
    Hypergraph,
    classify,
    diameter,
)

MAX_GROWTH_CHILDREN = 500_000


@dataclass(frozen=True, slots=True)
class FamilyFilter:
    """What to enumerate: class, rank, size, optional girth/diameter,
    optional restriction to maximum degree two."""

    cls: str
    k: int
    m: int
    girth: int | None = None
    diam: int | None = None
    max_degree_two: bool = False

    def __post_init__(self):
        if self.cls not in (HYPERTREE, LINEAR_UNICYCLIC):
            raise ParameterError(f"unknown family class {self.cls!r}")
        if self.k < 2:
            raise ParameterError(f"k must be >= 2, got {self.k}")
        if self.m < 0:
            raise ParameterError(f"m must be >= 0, got {self.m}")
        if self.girth is not None:
            if self.cls != LINEAR_UNICYCLIC:
                raise ParameterError("girth filter applies to linear unicyclic only")
            if not 3 <= self.girth <= self.m:
                raise ParameterError(f"girth must lie in [3, m], got {self.girth}")
        if self.diam is not None:
            if self.cls != HYPERTREE:
                raise ParameterError("diameter filter applies to hypertrees only")
            if not 2 <= self.diam <= self.m:
                raise ParameterError(f"diameter must lie in [2, m], got {self.diam}")


@cache
def _growth(cls: str, k: int, m: int, girth: int | None) -> tuple[tuple[bytes, Hypergraph], ...]:
    """The sorted ``(canonical key, member)`` pairs of one growth: the
    hypertrees with m edges, or the linear unicyclic hypergraphs with m
    edges and the given girth.

    Each layer attaches a pendant edge at the vertices of every member in
    ascending order and keeps the first child of each class.  Of the
    degree-1 vertices of one edge only the least is tried: swapping two
    of them is an automorphism, so their children are isomorphic, and
    the least is tried first, so every class is first seen at a vertex
    that is tried.  Each layer, and so each growth, is the one that
    trying every vertex gives, member for member."""
    seed, steps = (hyperpath(k, 0), m) if cls == HYPERTREE else (hypercycle(k, girth), m - girth)
    layer, children = {canonical_form(seed): seed}, 0
    for step in range(steps):
        nxt: dict[bytes, Hypergraph] = {}
        for h in layer.values():
            deg = h.degrees()
            least = {min((v for v in e if deg[v] == 1), default=None) for e in h.edges}
            for v in range(h.n):
                if deg[v] != 1 or v in least:
                    g = add_pendant_edge(h, v)
                    nxt.setdefault(canonical_form(g), g)
                    children += 1
                    if children > MAX_GROWTH_CHILDREN:
                        raise BudgetExceeded(
                            f"{cls} growth with k={k}, m={m}, girth={girth} built {children} "
                            f"children (cap {MAX_GROWTH_CHILDREN}) in layer {step + 1} of {steps}; "
                            f"members so far: {len(nxt)}",
                            {"class": cls, "k": k, "m": m, "girth": girth, "layer": step + 1,
                             "children": children, "members": len(nxt)},
                        )
        layer = nxt
    for h in layer.values():
        got = classify(h)
        assert got.kind == cls, f"enumerated a non-{cls}: {h}"
    return tuple(sorted(layer.items()))


@cache
def _diameters(k: int, m: int) -> tuple[int, ...]:
    """The diameter of each hypertree of one growth, in the growth's order,
    so every diameter variant of a family filters without recomputing it."""
    return tuple(diameter(h) for _, h in _growth(HYPERTREE, k, m, None))


def enumerate_hypertrees(k: int, m: int) -> list[Hypergraph]:
    return enumerate_family(FamilyFilter(HYPERTREE, k, m))


def enumerate_linear_unicyclic(k: int, m: int, girth: int | None = None) -> list[Hypergraph]:
    return enumerate_family(FamilyFilter(LINEAR_UNICYCLIC, k, m, girth=girth))


def enumerate_family(filt: FamilyFilter, max_edges: int | None = None) -> list[Hypergraph]:
    """A fresh list of the family's members, sorted by canonical key.  An
    m above an explicit ``max_edges`` raises ``BudgetExceeded`` before any
    growth runs."""
    if max_edges is not None and filt.m > max_edges:
        raise BudgetExceeded(
            f"enumeration capped at {max_edges} edges, asked m={filt.m}",
            {"m": filt.m, "cap": max_edges},
        )
    if filt.cls == HYPERTREE:
        girths = (None,)
    else:
        girths = (filt.girth,) if filt.girth is not None else range(3, filt.m + 1)
    pairs = [pair for g in girths for pair in _growth(filt.cls, filt.k, filt.m, g)]
    members = [h for _, h in sorted(pairs)]
    if filt.diam is not None:  # a hypertree filter: members are the one growth, in order
        members = [h for h, x in zip(members, _diameters(filt.k, filt.m)) if x == filt.diam]
    if filt.max_degree_two:
        members = [h for h in members if max(h.degrees(), default=0) <= 2]
    return members


def dump_family(
    directory: str | Path, members: list[Hypergraph], filt: FamilyFilter
) -> Path:
    """Write one JSON file per member plus an index manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = []
    for i, h in enumerate(members):
        name = f"{filt.cls}-k{filt.k}-m{filt.m}-{i:03d}.json"
        (directory / name).write_text(h.dumps() + "\n")
        entry = {
            "file": name,
            "class": filt.cls,
            "k": filt.k,
            "m": filt.m,
            "canonical": canonical_form(h).hex(),
        }
        c = classify(h)
        if c.girth is not None:
            entry["girth"] = c.girth
        if filt.cls == HYPERTREE:
            entry["diameter"] = diameter(h)
        index.append(entry)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return manifest
