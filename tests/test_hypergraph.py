import random

import pytest

from alphatrace import (
    HYPERTREE,
    LINEAR_UNICYCLIC,
    OTHER,
    HypergraphError,
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
from alphatrace.hypergraph import from_json_dict, loads, pendant_edges_at


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


def test_json_roundtrip():
    h = hypercycle(3, 4)
    assert loads(h.dumps()) == h
    data = {"k": 2, "n": 3, "edges": [[2, 1], [0, 1]]}
    h2 = from_json_dict(data)
    assert h2.edges == ((0, 1), (1, 2))
