import hashlib
import random
import time
from itertools import combinations

import pytest

from alphatrace import (
    HYPERTREE,
    LINEAR_UNICYCLIC,
    OTHER,
    HypergraphError,
    UnsupportedError,
    classify,
    complete_subhypergraphs,
    diameter,
    girth,
    hypercycle,
    hypergraph,
    hyperpath,
    hyperstar,
    is_connected,
    is_linear,
)
from alphatrace.canon import canonical_form
from alphatrace.enumeration import FamilyFilter, enumerate_family
from alphatrace.families import add_pendant_edge
from alphatrace.hypergraph import _peel, from_json_dict, loads, pendant_edges_at
from reference import complete_subhypergraphs_reference, diameter_reference, girth_reference


def test_validation():
    with pytest.raises(HypergraphError):
        hypergraph(3, 3, [(0, 1, 1)])  # repeated vertex
    with pytest.raises(HypergraphError):
        hypergraph(3, 2, [(0, 1, 2)])  # vertex out of range
    with pytest.raises(HypergraphError):
        hypergraph(1, 3, [])  # k too small


def test_repeated_edge_rejected():
    with pytest.raises(HypergraphError):
        hypergraph(2, 2, [(0, 1), (1, 0)])
    with pytest.raises(HypergraphError):
        from_json_dict({"k": 2, "n": 2, "edges": [[0, 1]], "mult": [2]})
    h = from_json_dict({"k": 2, "n": 2, "edges": [[1, 0]], "mult": [1]})
    assert h == hypergraph(2, 2, [(0, 1)])
    # a mult list must have one entry per edge
    for mult in ([1, 1, 1], []):
        with pytest.raises(HypergraphError):
            from_json_dict({"k": 2, "n": 2, "edges": [[0, 1]], "mult": mult})


def test_json_numbers_must_be_integers():
    good = {"k": 2, "n": 3, "edges": [[0, 1], [1, 2]]}
    assert from_json_dict(good) == hypergraph(2, 3, [(0, 1), (1, 2)])
    for key, value in (
        ("k", 2.9), ("k", "2"), ("k", True), ("n", 3.5), ("n", "3"),
        ("edges", [[0, 1.7], [1, 2]]), ("edges", [[0, "1"], [1, 2]]),
        ("edges", [[0, True], [1, 2]]), ("mult", [1.0, 1]), ("mult", [True, 1]),
    ):
        with pytest.raises(HypergraphError):
            from_json_dict({**good, key: value})


def test_degree_sequence_examples():
    assert hyperpath(3, 1).degrees() == (1, 1, 1)
    assert hyperpath(3, 2).degrees() == (1, 1, 2, 1, 1)
    assert sorted(hyperstar(3, 3).degrees(), reverse=True) == [3, 1, 1, 1, 1, 1, 1]


def test_handshake_random():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.choice([2, 3, 4])
        n = rng.randint(k, 10)
        edges = set()
        for _ in range(rng.randint(1, 6)):
            edges.add(tuple(sorted(rng.sample(range(n), k))))
        h = hypergraph(k, n, edges)
        assert sum(h.degrees()) == k * h.m


def test_girth_examples():
    assert girth(hypercycle(3, 4)) == 4
    assert girth(hyperpath(3, 3)) is None
    assert girth(hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])) == 2  # shared pair
    for m in range(3, 9):
        assert girth(hypercycle(2, m)) == m


def test_diameter_examples():
    assert diameter(hyperpath(3, 1)) == 1
    for m in range(1, 9):
        assert diameter(hyperpath(3, m)) == m
    for m in range(2, 6):
        assert diameter(hyperstar(3, m)) == 2
    with pytest.raises(HypergraphError):
        diameter(hypergraph(2, 4, [(0, 1), (2, 3)]))


def test_classify():
    assert classify(hyperpath(3, 3)).kind == HYPERTREE
    c = classify(hypercycle(3, 3))
    assert (c.kind, c.girth) == (LINEAR_UNICYCLIC, 3)
    assert classify(hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])).kind == OTHER


def _pendant_grown(rng, seed, steps):
    h = seed
    for _ in range(steps):
        h = add_pendant_edge(h, rng.randrange(h.n))
    return h


def test_peel_invariants_match_bfs_reference():
    """Girth, diameter and class read off the incidence peel agree with
    breadth-first search on both families, on seeded non-linear
    unicyclic graphs (two edges on a shared pair, grown by pendant
    edges) and on seeded pendant-grown hypertrees, whose peel ends at
    one center."""
    rng = random.Random(31)
    members = [
        h
        for k, top in ((2, 7), (3, 7), (4, 6))
        for cls, low in ((HYPERTREE, 1), (LINEAR_UNICYCLIC, 3))
        for m in range(low, top + 1)
        for h in enumerate_family(FamilyFilter(cls, k, m))
    ]
    shared_pair = [
        _pendant_grown(rng, hypergraph(k, 2 * k - 2, [range(k), (0, 1, *range(k, 2 * k - 2))]), steps)
        for k in (3, 4, 5)
        for steps in range(6)
        for _ in range(4)
    ]
    trees = [
        _pendant_grown(rng, hyperpath(k, 0), steps)
        for k in (2, 3, 4, 5)
        for steps in range(12)
        for _ in range(4)
    ]
    for h in trees:
        assert len(_peel(h)[2]) == 1, h
    for h in members + shared_pair + trees:
        g = girth_reference(h)
        assert girth(h) == g, h
        if h.n == h.m * (h.k - 1) + 1:
            assert diameter(h) == diameter_reference(h), h
            expected = (HYPERTREE, None)
        else:
            expected = (LINEAR_UNICYCLIC, g) if is_linear(h) else (OTHER, None)
        c = classify(h)
        assert (c.kind, c.girth) == expected, h


def _beside(*parts):
    """The disjoint union of ``parts``, each relabelled past the ones before it."""
    edges, n = [], 0
    for h in parts:
        edges += [tuple(v + n for v in e) for e in h.edges]
        n += h.n
    return hypergraph(parts[0].k, n, edges)


def test_peel_domains():
    k4 = hypergraph(2, 4, list(combinations(range(4), 2)))
    for h in (k4, hypergraph(2, 4, [(0, 1), (2, 3)])):
        with pytest.raises(UnsupportedError):
            girth(h)
    with pytest.raises(UnsupportedError):
        diameter(hypercycle(3, 4))
    # n = m(k-1) holds for the empty hypergraph too, but it has no cycle
    assert classify(hypergraph(3, 0, [])).kind == OTHER
    # every disconnected shape with k*m <= n+m: the peel itself must find
    # that what it left is not one node or one cycle
    shared_pair = hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])  # cyclomatic number 2
    disconnected = [
        _beside(hyperpath(3, 2), hyperstar(3, 3)),       # two trees
        _beside(hyperpath(3, 2), hypergraph(3, 1, [])),  # a tree and an isolated vertex
        _beside(hypercycle(3, 3), hyperpath(3, 1)),      # a unicyclic component and a tree
        _beside(shared_pair, hyperpath(3, 2)),           # cyclomatic number 2 and a tree
        _beside(hypercycle(3, 3), hypercycle(3, 4)),     # two cycles, every core node of degree 2
        _beside(hypercycle(2, 3), hyperpath(2, 1)),
        hypergraph(2, 3, []),
    ]
    for h in disconnected:
        assert h.k * h.m <= h.n + h.m and not is_connected(h), h
        for read in (canonical_form, girth):
            with pytest.raises(UnsupportedError):
                read(h)
        assert classify(h).kind == OTHER
        with pytest.raises(HypergraphError):
            diameter(h)


# sha256 of the canonical keys of every child the growths make, in growth
# order, at k = 2 through m = 7, k = 3 through m = 6 and k = 4 through m = 5;
# family members, their order and the verify goldens all rest on these keys
GROWTH_CHILD_KEYS = "7b6ba577aeeec89fbcfbbede8d086ca19ba1b1be1eae32be51b47f351846d484"


def test_growth_child_keys_unchanged():
    digest = hashlib.sha256()
    for k, top in ((2, 7), (3, 6), (4, 5)):
        seeds = [(hyperpath(k, 0), top)] + [(hypercycle(k, g), top - g) for g in range(3, top + 1)]
        for seed, steps in seeds:
            layer = {canonical_form(seed): seed}
            for _ in range(steps):
                nxt = {}
                for h in layer.values():
                    for v in range(h.n):
                        g = add_pendant_edge(h, v)
                        key = canonical_form(g)
                        digest.update(key)
                        nxt.setdefault(key, g)
                layer = nxt
    assert digest.hexdigest() == GROWTH_CHILD_KEYS


def test_connectivity():
    assert is_connected(hyperpath(3, 4))
    assert not is_connected(hypergraph(2, 4, [(0, 1), (2, 3)]))
    assert is_linear(hypercycle(3, 5))
    assert not is_linear(hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)]))


def test_pendant_edges():
    p3 = hyperpath(3, 3)  # joints at vertices 2 and 4
    assert pendant_edges_at(p3, 2) == [0]
    assert pendant_edges_at(p3, 4) == [2]
    assert pendant_edges_at(p3, 0) == []
    # an isolated edge has no attachment vertex, hence is not pendant
    assert pendant_edges_at(hyperpath(3, 1), 0) == []


def test_complete_subhypergraphs():
    tri = hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    assert complete_subhypergraphs(tri) == [(0, 1, 2)]
    assert complete_subhypergraphs(hyperpath(3, 2)) == []
    k4 = hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert complete_subhypergraphs(k4) == [(0, 1, 2, 3)]


def test_complete_subhypergraphs_match_reference():
    rng = random.Random(37)
    for _ in range(600):
        k = rng.randint(2, 4)
        n = rng.randint(k, 8)
        density = rng.random()
        edges = [e for e in combinations(range(n), k) if rng.random() < density]
        h = hypergraph(k, n, edges)
        assert complete_subhypergraphs(h) == complete_subhypergraphs_reference(h), h


def test_complete_subhypergraphs_on_long_paths():
    # unions of edges on a shared (k-1)-subset, not every (k+1)-subset
    start = time.perf_counter()
    assert complete_subhypergraphs(hyperpath(3, 2000)) == []
    assert time.perf_counter() - start < 2.0


def test_json_roundtrip():
    h = hypercycle(3, 4)
    assert loads(h.dumps()) == h
    data = {"k": 2, "n": 3, "edges": [[2, 1], [0, 1]]}
    h2 = from_json_dict(data)
    assert h2.edges == ((0, 1), (1, 2))
