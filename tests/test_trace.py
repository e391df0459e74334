import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from alphatrace import (
    BudgetExceeded,
    UnsupportedError,
    adjacency_moment,
    degree_moment,
    hypercycle,
    hypergraph,
    hyperpath,
    hyperstar,
    phi,
    signless_laplacian_moment,
    trace,
    trace_bruteforce,
    trace_closed,
    trace_decomposed,
    trace_k_plus_2,
    trace_structural,
)
from alphatrace.matrix_oracle import matrix_power_trace
from alphatrace.polynomial import AlphaPoly, basis_term
from alphatrace.trace import (
    _infragraph_shape,
    _infragraph_table,
    _rooted_tree_weight,
    _structural_components_cached,
    _veblen_vectors,
    brute_components,
    components_to_poly,
    structural_components,
)
from conftest import corpus
from reference import (
    enumerate_veblen,
    lemma_sum_reference,
    rooted_tree_weight,
    veblen_vectors_reference,
)

# the module, for monkeypatching; the package's ``trace`` is the function
trace_module = importlib.import_module("alphatrace.trace")

TRIANGLE = hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
# K6 minus the path 0-1-2-3-4, one of the dense benchmark inputs
K6_MINUS_P5 = hypergraph(
    2, 6, [e for e in combinations(range(6), 2) if e not in {(0, 1), (1, 2), (2, 3), (3, 4)}]
)

# the complete 3-graph on 6 vertices minus 8 triples, another dense input
DENSE_3GRAPH = hypergraph(
    3, 6,
    [e for e in combinations(range(6), 3) if e not in {
        (0, 1, 5), (0, 4, 5), (1, 2, 3), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (3, 4, 5)
    }],
)


def test_phi_examples():
    e = hyperpath(3, 1)
    assert phi(e, 0) == trace(e, 0) == AlphaPoly.constant(12)
    assert phi(e, 3) == AlphaPoly.monomial(3, 12)
    assert phi(hyperstar(3, 2), 2) == AlphaPoly.monomial(2, 128)


def test_single_edge_order_three():
    # 12 a^3 + 9 (1-a)^3, frozen from the literal reference oracle
    e = hyperpath(3, 1)
    expected = AlphaPoly.monomial(3, 12) + basis_term(0, 3) * 9
    assert lemma_sum_reference(e, 3) == expected
    assert trace_bruteforce(e, 3) == expected
    assert trace_structural(e, 3) == expected
    assert trace_closed(e, 3) == expected


def test_k2_path_order_two():
    # 6 a^2 + 4 (1-a)^2 from the matrix D = diag(1,2,1)
    p2 = hyperpath(2, 2)
    expected = AlphaPoly.monomial(2, 6) + basis_term(0, 2) * 4
    assert matrix_power_trace(p2, 2) == expected
    assert trace_bruteforce(p2, 2) == expected


def test_literal_reference_agreement():
    tiny = [
        (hyperpath(3, 1), range(4)),
        (hyperpath(2, 2), range(5)),
        (TRIANGLE, range(5)),
        (hyperpath(3, 2), (3,)),
    ]
    for h, orders in tiny:
        for d in orders:
            assert trace_bruteforce(h, d) == lemma_sum_reference(h, d)


def test_structural_equals_bruteforce_on_corpus():
    for k, max_m, dmax in ((2, 4, 6), (3, 3, 6)):
        for h in corpus(k, max_m):
            for d in range(dmax + 1):
                assert trace_structural(h, d) == trace_bruteforce(h, d), (h, d)


def test_degree_only_regime():
    for h in corpus(3, 4):
        for d in (1, 2):
            assert trace_bruteforce(h, d) == phi(h, d)


def test_decomposition_identities():
    for h in corpus(3, 3) + corpus(2, 4):
        k, n = h.k, h.n
        scale = Fraction(1, (k - 1) ** (n - 1))
        for d in range(1, k + 3):
            w1, w2, w3 = trace_decomposed(h, d)
            total = (w1 + w2 + w3) * ((k - 1) ** (n - 1))
            assert total == trace_bruteforce(h, d)
            assert w1 == phi(h, d) * scale
            assert w2 == basis_term(0, d) * (adjacency_moment(h, d) * scale)
            if d < k:
                assert w2.is_zero() and w3.is_zero()
        w1, w2, w3 = trace_decomposed(h, k)
        assert w3.is_zero()  # mixed rows need at least k+1 rows


def test_mixed_term_at_k_plus_one():
    h = hyperpath(3, 2)
    k, n = h.k, h.n
    comp = structural_components(h, k + 1)
    deg2 = sum(x**2 for x in h.degrees())
    assert comp[(1, k)] == (k + 1) * (k - 1) ** (n - k) * k ** (k - 2) * deg2


def test_adjacency_moments():
    for h in corpus(2, 4):
        for d in range(7):
            expected = matrix_power_trace(h, d).evaluate(Fraction(0))
            assert adjacency_moment(h, d) == expected
    # the cached polynomial's alpha = 0 slice equals the raw table entry
    for h in corpus(2, 4) + corpus(3, 3):
        for d in range(1, 7):
            raw = structural_components(h, d).get((0, d), Fraction(0))
            assert adjacency_moment(h, d) == raw, (h, d)
    assert adjacency_moment(TRIANGLE, 3) == 6
    for h in corpus(3, 3):
        for d in (1, 2):
            assert adjacency_moment(h, d) == 0
        assert adjacency_moment(h, 3) == 2 ** (h.n - 3) * 9 * h.m


def test_boundary_slices():
    for h in corpus(3, 3):
        for d in range(1, 6):
            poly = trace_structural(h, d)
            assert poly.evaluate(Fraction(1)) == degree_moment(h, d)
            assert poly.evaluate(Fraction(0)) == adjacency_moment(h, d)


def test_signless_laplacian_scaling():
    for h in corpus(3, 3) + corpus(2, 4):
        for d in range(6):
            lhs = signless_laplacian_moment(h, d)
            rhs = 2**d * trace_structural(h, d).evaluate(Fraction(1, 2))
            assert lhs == rhs
    # the cached polynomial's 2^d * (alpha = 1/2) value equals the raw table sum
    for h in corpus(2, 4) + corpus(3, 3):
        for d in range(1, 7):
            raw = sum(structural_components(h, d).values(), Fraction(0))
            assert signless_laplacian_moment(h, d) == raw, (h, d)


def test_closed_forms_match_bruteforce():
    for k in (2, 3):
        for h in corpus(k, 4):
            for d in range(1, k + 3):
                assert trace_closed(h, d) == trace_bruteforce(h, d), (h, d)


def test_closed_form_complete_term():
    # the order-(k+1) and order-(k+2) complete-subhypergraph terms on the
    # complete k-graph on k+1 vertices, where every rooting matters
    for k in (2, 3, 4):
        clique = hypergraph(k, k + 1, combinations(range(k + 1), k))
        for d in (k + 1, k + 2):
            assert trace_closed(clique, d) == trace_bruteforce(clique, d), (k, d)


def test_closed_form_refusals():
    with pytest.raises(UnsupportedError):
        trace_closed(hyperpath(3, 2), 6)  # beyond k+2
    k4 = hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert trace_closed(k4, 4) == trace_bruteforce(k4, 4)
    assert trace_k_plus_2(k4) == trace_bruteforce(k4, 5)


def test_trace_k_plus_2_on_cycles():
    for m in (3, 4):
        h = hypercycle(3, m)
        assert trace_k_plus_2(h) == trace_bruteforce(h, 5)


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(trace_module, "MAX_ASSIGNMENT_CLASSES", 1000)
    with pytest.raises(BudgetExceeded):
        trace_bruteforce(hyperpath(3, 4), 8)


def test_enumerate_veblen_examples():
    e = hyperpath(3, 2)
    level_k = enumerate_veblen(e, 3)
    assert [(v.edge_indices, v.multiplicities) for v in level_k] == [((0,), (3,)), ((1,), (3,))]
    # hypertrees have no k-valent infragraph with k+1 edges
    assert len(enumerate_veblen(e, 4)) == 2
    tri = enumerate_veblen(TRIANGLE, 3)
    assert [(v.edge_indices, v.multiplicities) for v in tri] == [
        ((0,), (2,)),
        ((0, 1, 2), (1, 1, 1)),
        ((1,), (2,)),
        ((2,), (2,)),
    ]
    for v in tri:
        assert all(d % v.host.k == 0 for d in v.degrees().values())
    with pytest.raises(BudgetExceeded):
        enumerate_veblen(e, 100)


def test_veblen_walk_matches_reference():
    # the residue-stepped walk against every composition of e rows
    rng = random.Random(6)
    cases = []
    for k in (2, 3, 4):
        for _ in range(8):
            n = rng.randint(k + 1, 7)
            pool = list(combinations(range(n), k))
            h = hypergraph(k, n, rng.sample(pool, rng.randint(1, min(8, len(pool)))))
            cases.append((h, 6))
    cases += [(K6_MINUS_P5, 5), (DENSE_3GRAPH, 5)]
    for h, max_e in cases:
        for e in range(1, max_e + 1):
            assert sorted(_veblen_vectors(h, e)) == veblen_vectors_reference(h, e), (h, e)


def test_walk_budget(monkeypatch):
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 100)
    _infragraph_table.cache_clear()
    _structural_components_cached.cache_clear()
    with pytest.raises(BudgetExceeded) as info:
        trace(K6_MINUS_P5, 8)
    # the context says how far the walk got: a partial table at some e
    ctx = info.value.context
    assert (ctx["k"], ctx["n"], ctx["m"], ctx["nodes"]) == (2, 6, 11, 101)
    assert 0 < ctx["infragraphs"] < len(veblen_vectors_reference(K6_MINUS_P5, ctx["e"]))


def test_component_tables_agree():
    cases = [(h, 5) for h in corpus(3, 3)] + [(h, 7) for h in corpus(2, 4)]
    cases.append((hyperpath(4, 2), 6))
    for h, dmax in cases:
        for d in range(dmax + 1):
            assert structural_components(h, d) == brute_components(h, d), (h, d)
    for d in range(1, 9):
        poly = components_to_poly(structural_components(K6_MINUS_P5, d))
        assert poly == matrix_power_trace(K6_MINUS_P5, d), d


def test_structural_order_independence():
    # A cached infragraph table must not depend on which order filled it.
    # The triangle's three doubled edges share one degree multiset, as do
    # the three tripled edges of the 3-uniform 3-cycle.
    inputs = [
        TRIANGLE,
        hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
        hypercycle(3, 3),
        hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
    ]
    orders = range(1, 9)

    def fresh_traces(h, walk):
        _infragraph_table.cache_clear()
        _structural_components_cached.cache_clear()
        return {d: trace_structural(h, d) for d in walk}

    for h in inputs:
        down = fresh_traces(h, reversed(orders))
        up = fresh_traces(h, orders)
        assert down == up, h
        for d in orders:
            assert up[d] == trace_bruteforce(h, d), (h, d)


def test_shape_weight_matches_host_rooting():
    # W' read from the shape cache equals the rooting sum on host labels
    cases = [(h, 7) for h in corpus(2, 4)] + [(h, 5) for h in corpus(3, 3)]
    cases += [(hyperpath(4, 2), 6), (TRIANGLE, 6), (K6_MINUS_P5, 6)]
    for h, max_edges in cases:
        for f in enumerate_veblen(h, max_edges):
            shape, deg_f = _infragraph_shape(h, f.edge_indices, f.multiplicities)
            assert deg_f == f.degrees()
            assert _rooted_tree_weight(shape) == rooted_tree_weight(f), (h, f)


def test_structural_relabel_invariance():
    rng = random.Random(4)
    for k in (2, 3, 4):
        for _ in range(6):
            n = rng.randint(k + 1, 6)
            pool = list(combinations(range(n), k))
            h = hypergraph(k, n, rng.sample(pool, rng.randint(1, min(7, len(pool)))))
            perm = list(range(n))
            rng.shuffle(perm)
            g = h.relabel(perm)
            for d in range(8):
                assert structural_components(g, d) == structural_components(h, d), (h, perm, d)


def test_shape_cache_shared_across_hypergraphs():
    # The same graph on labels 2..7 of an 8-vertex host keeps every label
    # order, so each of its infragraphs has a shape the first one rooted.
    # (An arbitrary permutation may break ties differently and root a few
    # isomorphic shapes again.)
    copy = hypergraph(2, 8, [(u + 2, v + 2) for u, v in K6_MINUS_P5.edges])
    _rooted_tree_weight.cache_clear()
    _infragraph_table.cache_clear()
    _structural_components_cached.cache_clear()
    first = [trace_structural(K6_MINUS_P5, d) for d in range(1, 9)]
    rooted = _rooted_tree_weight.cache_info().misses
    assert rooted > 0
    again = [trace_structural(copy, d) for d in range(1, 9)]
    assert _rooted_tree_weight.cache_info().misses == rooted
    # for k = 2, (k-1)^{n-|V|} = 1 and isolated vertices have degree 0, so
    # only the order-0 moment, not traced here, sees the two extra vertices
    assert again == first


def test_rank_four_spot_checks():
    # k = 4 exercises the k-dependent factors beyond the accepted ranks
    e = hyperpath(4, 1)
    for d in range(7):
        assert trace_structural(e, d) == trace_bruteforce(e, d)
    assert trace_structural(e, 4) == phi(e, 4) + basis_term(0, 4) * (4**3)
    p2 = hyperpath(4, 2)
    for d in range(1, 7):  # closed forms reach k+2 = 6
        closed = trace_closed(p2, d)
        assert trace_structural(p2, d) == closed
        assert trace_bruteforce(p2, d) == closed
    for d in (1, 2, 3):
        assert trace_structural(p2, d) == phi(p2, d)


def test_brute_order_zero():
    # order 0 counts the n(k-1)^{n-1} eigenvalues on every route and slice
    for h in corpus(2, 4) + corpus(3, 3):
        count = h.n * (h.k - 1) ** (h.n - 1)
        for route in (trace_structural, trace_bruteforce, trace_closed, trace):
            assert route(h, 0) == AlphaPoly.constant(count), (route, h)
        for moment in (adjacency_moment, signless_laplacian_moment, degree_moment):
            assert moment(h, 0) == count, (moment, h)
