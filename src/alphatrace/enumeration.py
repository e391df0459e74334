"""Isomorph-free exhaustive generation of hypertrees and linear
unicyclic hypergraphs at desk scale.

Generation is edge-incremental: grow by one pendant edge at a time and
deduplicate each level through canonical forms, so exactly one
representative per isomorphism class survives.  Unicyclic generation
seeds each girth with the bare hypercycle and attaches trees (attaching
a pendant edge can neither create a second cycle nor change the girth).
Output order is deterministic (sorted by canonical key).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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

DEFAULT_MAX_EDGES = 6
SUPPORTED_K = (2, 3, 4)


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


def _grow_with_pendants(seeds: list[Hypergraph], steps: int) -> list[Hypergraph]:
    layer = {canonical_form(h): h for h in seeds}
    for _ in range(steps):
        nxt: dict[bytes, Hypergraph] = {}
        for h in layer.values():
            for v in range(h.n):
                g = add_pendant_edge(h, v)
                nxt.setdefault(canonical_form(g), g)
        layer = nxt
    return [h for _, h in sorted(layer.items())]


def enumerate_hypertrees(
    k: int, m: int, max_edges: int = DEFAULT_MAX_EDGES
) -> list[Hypergraph]:
    _check_budget(k, m, max_edges)
    if m == 0:
        from .hypergraph import hypergraph

        return [hypergraph(k, 1, [])]
    return _grow_with_pendants([hyperpath(k, 1)], m - 1)


def enumerate_linear_unicyclic(
    k: int, m: int, girth: int | None = None, max_edges: int = DEFAULT_MAX_EDGES
) -> list[Hypergraph]:
    _check_budget(k, m, max_edges)
    if m < 3:
        return []
    girths = [girth] if girth is not None else list(range(3, m + 1))
    out: dict[bytes, Hypergraph] = {}
    for g in girths:
        for h in _grow_with_pendants([hypercycle(k, g)], m - g):
            out[canonical_form(h)] = h
    return [h for _, h in sorted(out.items())]


def enumerate_family(
    filt: FamilyFilter, max_edges: int = DEFAULT_MAX_EDGES
) -> list[Hypergraph]:
    if filt.cls == HYPERTREE:
        members = enumerate_hypertrees(filt.k, filt.m, max_edges)
        if filt.diam is not None:
            members = [h for h in members if diameter(h) == filt.diam]
    else:
        members = enumerate_linear_unicyclic(filt.k, filt.m, filt.girth, max_edges)
    if filt.max_degree_two:
        members = [h for h in members if max(h.degrees(), default=0) <= 2]
    for h in members:
        got = classify(h)
        assert got.kind == filt.cls, f"enumerated a non-{filt.cls}: {h}"
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


def _check_budget(k: int, m: int, max_edges: int):
    if k not in SUPPORTED_K:
        raise ParameterError(f"enumeration supports k in {SUPPORTED_K}, got {k}")
    if m > max_edges:
        raise BudgetExceeded(
            f"enumeration capped at {max_edges} edges, asked m={m}",
            {"m": m, "cap": max_edges},
        )
