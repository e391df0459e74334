"""Isomorph-free exhaustive generation of hypertrees and linear
unicyclic hypergraphs at desk scale.

Generation is edge-incremental: grow by one pendant edge at a time and
deduplicate each level through canonical forms, so exactly one
representative per isomorphism class survives.  Hypertrees grow m edges
from the single vertex; linear unicyclic hypergraphs of girth g grow
m-g edges from the bare hypercycle (attaching a pendant edge can neither
create a second cycle nor change the girth).

Each growth, one per (class, k, m, girth), runs once per process and is
kept in key order.  ``enumerate_family`` is the one entry point: it
merges the growths a filter needs (one girth, or girths 3..m) and
applies the diameter and maximum-degree filters to that list, so every
family it returns is sorted by canonical key.
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
    edges and the given girth."""
    seed, steps = (hyperpath(k, 0), m) if cls == HYPERTREE else (hypercycle(k, girth), m - girth)
    layer = {canonical_form(seed): seed}
    for _ in range(steps):
        nxt: dict[bytes, Hypergraph] = {}
        for h in layer.values():
            for v in range(h.n):
                g = add_pendant_edge(h, v)
                nxt.setdefault(canonical_form(g), g)
        layer = nxt
    for h in layer.values():
        got = classify(h)
        assert got.kind == cls, f"enumerated a non-{cls}: {h}"
    return tuple(sorted(layer.items()))


def enumerate_hypertrees(
    k: int, m: int, max_edges: int = DEFAULT_MAX_EDGES
) -> list[Hypergraph]:
    return enumerate_family(FamilyFilter(HYPERTREE, k, m), max_edges)


def enumerate_linear_unicyclic(
    k: int, m: int, girth: int | None = None, max_edges: int = DEFAULT_MAX_EDGES
) -> list[Hypergraph]:
    return enumerate_family(FamilyFilter(LINEAR_UNICYCLIC, k, m, girth=girth), max_edges)


def enumerate_family(
    filt: FamilyFilter, max_edges: int = DEFAULT_MAX_EDGES
) -> list[Hypergraph]:
    """A fresh list of the family's members, sorted by canonical key."""
    _check_budget(filt.k, filt.m, max_edges)
    if filt.cls == HYPERTREE:
        girths = (None,)
    else:
        girths = (filt.girth,) if filt.girth is not None else range(3, filt.m + 1)
    pairs = [pair for g in girths for pair in _growth(filt.cls, filt.k, filt.m, g)]
    members = [h for _, h in sorted(pairs)]
    if filt.diam is not None:
        members = [h for h in members if diameter(h) == filt.diam]
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


def _check_budget(k: int, m: int, max_edges: int):
    if k not in SUPPORTED_K:
        raise ParameterError(f"enumeration supports k in {SUPPORTED_K}, got {k}")
    if m > max_edges:
        raise BudgetExceeded(
            f"enumeration capped at {max_edges} edges, asked m={m}",
            {"m": m, "cap": max_edges},
        )
