import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from alphatrace import cli
from alphatrace import (
    BudgetExceeded,
    UnsupportedError,
    adjacency_moment,
    complete_subhypergraphs,
    cycle_with_pendant_star,
    degree_moment,
    enumerate_hypertrees,
    enumerate_linear_unicyclic,
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
    _closed_walk_components,
    _closing_order,
    _complete_homogeneous,
    _infragraph_shape,
    _infragraph_table,
    _infragraph_weight,
    _peelable,
    _peeled_vectors,
    _rooted_tree_weight,
    _structural_components_cached,
    _table_entries,
    _veblen_vectors,
    brute_components,
    components_to_poly,
    structural_components,
)
from conftest import corpus, fractions_calls
from reference import (
    enumerate_veblen,
    lemma_sum_reference,
    peelable_reference,
    rooted_shape_weight_enumerated,
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


def test_complete_homogeneous_below_order_zero():
    # h_t is the sum of the degree-t monomials: none for t < 0, just 1 for t = 0
    assert _complete_homogeneous((1, 2), -1) == 0
    assert _complete_homogeneous((1, 2), -2) == 0
    assert _complete_homogeneous((1, 2), 0) == 1
    assert _complete_homogeneous((1, 2), 2) == 1 + 2 + 4


def test_closed_tables_are_the_low_infragraph_tables(monkeypatch):
    # the walk finds each edge k times as the only infragraphs with k rows,
    # and each complete subhypergraph on k+1 vertices, every edge once, as the
    # only ones with k+1 rows; the closed route's tables, summed by degree
    # multiset, are then the structural route's
    passed = []

    def spy(h, d, tables):
        passed.append(tables)
        return _table_entries(h, d, tables)

    monkeypatch.setattr(trace_module, "_table_entries", spy)
    rng = random.Random(25)
    hosts = [hypergraph(k, k + 2, combinations(range(k + 2), k)) for k in (2, 3, 4)]
    for _ in range(150):
        k, n = rng.randint(2, 4), rng.randint(0, 8)
        pool = list(combinations(range(n), k))
        hosts.append(hypergraph(k, n, rng.sample(pool, rng.randint(0, min(len(pool), 10)))))
    for h in hosts:
        k = h.k
        index = {e: i for i, e in enumerate(h.edges)}
        assert _pairs(_veblen_vectors(h, k)) == [((i,), (k,)) for i in range(h.m)], h
        cliques = [(tuple(sorted(index[e] for e in combinations(S, k))), (1,) * (k + 1))
                   for S in complete_subhypergraphs(h)]
        assert _pairs(_veblen_vectors(h, k + 1)) == sorted(cliques), h
        passed.clear()
        trace_closed(h, k + 1)
        (tables,) = passed
        assert [e for e, _ in tables] == [k, k + 1]
        for e, rows in tables:
            summed = Counter()
            for degrees, c in rows:
                summed[degrees] += c
            assert tuple(sorted(summed.items())) == _infragraph_table(h, e), (h, e)


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


def _pairs(infragraphs):
    """Sorted (support, mu) pairs of a source's (support, mu, deg_F) triples."""
    return sorted((support, mu) for support, mu, _ in infragraphs)


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
    # two disjoint triangles, isolated vertices below and between the others,
    # and labels past 64 (the walk keeps each edge's vertices as a bitmask)
    two_triangles = hypergraph(2, 6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    isolated = hypergraph(3, 9, [(1, 2, 4), (1, 4, 5), (2, 4, 5), (1, 2, 5), (5, 7, 8)])
    wide = hypergraph(2, 70, [(3, 64), (3, 65), (3, 69), (64, 65), (64, 69), (65, 69), (1, 66)])
    cases += [(K6_MINUS_P5, 5), (DENSE_3GRAPH, 6), (two_triangles, 8), (isolated, 9), (wide, 8)]
    for h, max_e in cases:
        for e in range(1, max_e + 1):
            assert _pairs(_veblen_vectors(h, e)) == veblen_vectors_reference(h, e), (h, e)
    # every edge once is 2-valent on the triangles' union, but not connected
    assert ((0, 1, 2, 3, 4, 5), (1,) * 6) not in _pairs(_veblen_vectors(two_triangles, 6))


def test_deficit_cut_shrinks_walk(monkeypatch):
    # K6 minus P5 at e = 8: the walk visits 4,081 nodes for its 1,394
    # infragraphs, where the walk that stepped through every count 0 visited 5,350
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 6000)
    assert len(_veblen_vectors(K6_MINUS_P5, 8)) == 1394
    # the complete 3-graph on 6 vertices at e = 8: 48,055 nodes for 8,610
    # infragraphs; 72,236 without the short-tail lemma, 102,577 without the
    # deficit cut, and 208,399 in the walk that stepped through every count 0
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 50_000)
    assert len(_veblen_vectors(hypergraph(3, 6, list(combinations(range(6), 3))), 8)) == 8610


def test_sources_hand_over_deg_f():
    # deg_F from either source equals the degrees recomputed from its rows
    walked = [K6_MINUS_P5, DENSE_3GRAPH, hypercycle(2, 5),
              hypergraph(2, 70, [(3, 64), (3, 65), (64, 65), (65, 69), (3, 69)])]
    peeled = [hyperpath(3, 4), cycle_with_pendant_star(3, 4, 6), hyperstar(4, 3)]
    checked = 0
    for source, hosts in ((_veblen_vectors, walked), (_peeled_vectors, peeled)):
        for h in hosts:
            for e in range(1, 2 * h.k + 3):
                for support, mu, deg_f in source(h, e):
                    expected: dict[int, int] = {}
                    for i, c in zip(support, mu):
                        for v in h.edges[i]:
                            expected[v] = expected.get(v, 0) + c
                    assert deg_f == expected, (h, support, mu)
                    checked += 1
    assert checked > 1000, checked


def test_walk_budget(monkeypatch):
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 100)
    _infragraph_table.cache_clear()
    _structural_components_cached.cache_clear()
    with pytest.raises(BudgetExceeded) as info:
        structural_components(K6_MINUS_P5, 8)
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
            shape = _infragraph_shape(h, f.edge_indices, f.multiplicities, f.degrees())
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
    first = [structural_components(K6_MINUS_P5, d) for d in range(1, 9)]
    rooted = _rooted_tree_weight.cache_info().misses
    assert rooted > 0
    again = [structural_components(copy, d) for d in range(1, 9)]
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


def test_moments_are_integer_polynomials():
    hosts = corpus(2, 4) + corpus(3, 3) + [hyperpath(4, 2)]
    hosts += enumerate_hypertrees(3, 6) + enumerate_linear_unicyclic(3, 6)
    for h in hosts:
        for d in range(2 * h.k + 3):
            assert all(type(c) is int for c in trace(h, d).coeffs), (h, d)
        assert type(degree_moment(h, 3)) is int


def test_inexact_table_entry_raises(monkeypatch):
    # entry (d - e, e) is d * sum C h_{d-e} / e!; a remainder must raise, not round.
    # The host is peelable, so e = 3 is the one table these orders ask for.
    h = hyperpath(3, 2)
    monkeypatch.setattr(trace_module, "_infragraph_table", lambda h, e: (((1, 1, 1), 1),))
    assert structural_components(h, 4) == {(4, 0): degree_moment(h, 4), (1, 3): 2}
    with pytest.raises(ArithmeticError):
        structural_components(h, 3)  # e = 3: 3 * h_0(1, 1, 1) / 3! = 1/2


def test_cold_moments_make_no_fraction():
    h = cycle_with_pendant_star(3, 3, 6)
    for cache in (_structural_components_cached, _infragraph_table, _rooted_tree_weight):
        cache.cache_clear()
    assert fractions_calls(lambda: [trace(h, d) for d in range(9)]) == 0


def _by_edge(infragraphs):
    """Sorted (support, mu) pairs, each support in ascending edge order."""
    return sorted(tuple(zip(*sorted(zip(support, mu)))) for support, mu, _ in infragraphs)


def _random_peelable(rng, k, m):
    """m edges, each with at least one vertex new to the host, so deleting
    them last-first peels it; the rest come from earlier vertices."""
    n, edges = 0, []
    for _ in range(m):
        old = rng.sample(range(n), min(rng.randint(0, k - 1), n))
        fresh = k - len(old)
        edges.append(tuple(sorted(old + list(range(n, n + fresh)))))
        n += fresh
    return hypergraph(k, n, edges)


def test_peelable_table():
    forest = hypergraph(3, 9, [(0, 1, 2), (2, 3, 4), (5, 6, 7), (6, 7, 8)])
    cases = [
        (hyperpath(3, 4), True),                                       # hypertree
        (forest, True),                                                # hyperforest, non-linear
        (cycle_with_pendant_star(3, 4, 6), True),                      # linear unicyclic
        (hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), True),   # non-linear, shared pair
        (hypercycle(2, 4), False),                                     # k = 2 cycle
        (hypergraph(2, 6, list(combinations(range(6), 2))), False),    # K6
        (hypergraph(3, 4, list(combinations(range(4), 3))), False),    # complete 3-graph on 4
    ]
    for h, peelable in cases:
        assert _peelable(h) is peelable, h


def test_hosts_below_k_vertices_stay_exact():
    # (k-1)^{n-1} and (k-1)^{n-k} are no integers below n = 1 and n = k: every
    # route still gives Tr_0 = n (k-1)^{n-1}, 0 at n = 0, and 0 at every
    # higher order of an edgeless host, in integers
    for k in (2, 3, 4):
        for n in range(k + 1):
            h = hypergraph(k, n, [])
            for d in range(k + 3):
                expected = AlphaPoly.constant(n * (k - 1) ** (n - 1) if n and not d else 0)
                for route in (trace, trace_bruteforce, trace_closed):
                    poly = route(h, d)
                    assert poly == expected, (route, k, n, d)
                    assert all(type(c) is int for c in poly.coeffs), (route, k, n, d)
                if d:
                    assert trace_decomposed(h, d) == (AlphaPoly.zero(),) * 3, (k, n, d)


def test_closing_order_decides_peelability():
    # every edge closes a vertex in the closing order exactly when the XOR
    # queue peels the host: on the families, and on seeded random hosts,
    # isolated vertices and edgeless hosts among them
    hosts = [hypergraph(k, n, []) for k in (2, 3, 4) for n in range(k + 1)]
    for k in (2, 3, 4):
        for m in range(7):
            hosts += enumerate_hypertrees(k, m) + enumerate_linear_unicyclic(k, m)
    rng = random.Random(20)
    pools = {(k, n): list(combinations(range(n), k)) for k in (2, 3, 4) for n in range(k, 10)}
    for _ in range(20_000):
        k = rng.choice((2, 3, 4))
        n = rng.randint(k, 9)
        pool = pools[k, n]
        hosts.append(hypergraph(k, n, rng.sample(pool, rng.randint(0, min(12, len(pool))))))
    verdicts = [_peelable(h) for h in hosts]
    assert verdicts == [peelable_reference(h) for h in hosts]
    assert min(verdicts.count(True), verdicts.count(False)) > 5000, verdicts.count(True)
    _closing_order.cache_clear()
    peelable_reference.cache_clear()


def test_peeled_infragraphs_match_walk_and_reference():
    # the families at (2, 7), (3, 7) and (4, 6) through order 2k+4 against
    # the walk (at k = 2 only the trees are peelable); a seeded sample of
    # them, and random peelable hosts, against the literal reference too
    rng = random.Random(13)
    sampled = []
    for k, m in ((2, 7), (3, 7), (4, 6)):
        family = enumerate_hypertrees(k, m) + enumerate_linear_unicyclic(k, m)
        peelable = [h for h in family if _peelable(h)]
        assert len(peelable) == (len(enumerate_hypertrees(k, m)) if k == 2 else len(family))
        for h in peelable:
            for e in range(1, 2 * k + 5):
                assert _by_edge(_peeled_vectors(h, e)) == _pairs(_veblen_vectors(h, e)), (h, e)
        sampled += [(h, 2 * k + 4) for h in rng.sample(peelable, 3)]
    sampled += [(_random_peelable(rng, rng.choice((2, 3, 4)), rng.randint(1, 6)), 8)
                for _ in range(40)]
    for h, max_e in sampled:
        assert _peelable(h), h
        for e in range(1, max_e + 1):
            peeled = _by_edge(_peeled_vectors(h, e))
            assert peeled == veblen_vectors_reference(h, e) == _pairs(_veblen_vectors(h, e)), (h, e)


def test_peeled_tables_equal_walked_tables(monkeypatch):
    hosts = corpus(3, 5) + corpus(4, 4) + enumerate_hypertrees(2, 6)
    peeled = [[structural_components(h, d) for d in range(2 * h.k + 5)] for h in hosts]
    monkeypatch.setattr(trace_module, "_peelable", lambda h: False)
    _infragraph_table.cache_clear()
    walked = [[structural_components(h, d) for d in range(2 * h.k + 5)] for h in hosts]
    _infragraph_table.cache_clear()
    assert peeled == walked


def test_peeled_budget(monkeypatch, capsys):
    # hyperstar(3, 6) at order 9: the tables at e = 3 and 6 take 12 and 42
    # nodes; e = 9 has 41 edge sets and 56 compositions, past a cap of 60
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 60)
    _infragraph_table.cache_clear()
    _structural_components_cached.cache_clear()
    h = hyperstar(3, 6)
    assert _peelable(h)
    with pytest.raises(BudgetExceeded) as info:
        trace(h, 9)
    ctx = info.value.context
    assert (ctx["k"], ctx["n"], ctx["m"], ctx["e"]) == (3, 13, 6, 9)
    assert ctx["nodes"] > 60
    assert 0 < ctx["infragraphs"] < len(veblen_vectors_reference(h, 9)) == 56
    code = cli.main(["trace", "hyperstar:k=3,m=6", "--d", "9"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "passed 60 nodes" in err and "infragraphs found so far" in err


def test_peeled_high_order_stays_small(monkeypatch):
    # q = e/k = 30 has 2^29 compositions in all, but a 2-edge path only
    # ever needs those into 1 and 2 parts
    h = hyperpath(2, 2)
    peeled = _by_edge(_peeled_vectors(h, 60))
    assert len(peeled) == 2 + 29
    assert peeled == _pairs(_veblen_vectors(h, 60))
    # a 30-edge path at the same order: the cap is checked before a set's
    # C(29, |S| - 1) compositions are made, so a low cap raises at once
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 1000)
    h = hyperpath(2, 30)
    with pytest.raises(BudgetExceeded) as info:
        list(_peeled_vectors(h, 60))
    ctx = info.value.context
    assert (ctx["k"], ctx["m"], ctx["e"]) == (2, 30, 60)
    assert 1000 < ctx["nodes"] and ctx["infragraphs"] <= 1000


def test_tree_weight_closed_form_on_one_edge():
    # one edge with k c rows: (k c)!/(c!)^k * c^{k-1} * k^{k-2} against the rooting sum
    for k in range(2, 7):
        for c in range(1, 5):
            h = hyperpath(k, 1)
            closed = _infragraph_weight(h, (0,), (k * c,), dict.fromkeys(range(k), k * c))
            assert closed == _rooted_tree_weight(((tuple(range(k)), k * c),)), (k, c)


def test_tree_weight_matches_host_rooting():
    # the closed form on every tree-supported infragraph, against the
    # rooting-by-rooting sum on host labels
    cases = [(h, 7) for h in corpus(2, 4)] + [(h, 6) for h in corpus(3, 3)]
    cases += [(hyperpath(4, 2), 8), (K6_MINUS_P5, 6)]
    rng = random.Random(21)
    for _ in range(60):
        k = rng.choice((2, 3, 4))
        n = rng.randint(k + 1, 7)
        pool = list(combinations(range(n), k))
        edges = rng.sample(pool, rng.randint(1, min(5, len(pool))))
        cases.append((hypergraph(k, n, edges), 2 * k + 2))
    checked = multi_edge = 0
    for h, max_edges in cases:
        for f in enumerate_veblen(h, max_edges):
            if len(f.degrees()) == (h.k - 1) * len(f.edge_indices) + 1:  # a hypertree support
                weight = _infragraph_weight(h, f.edge_indices, f.multiplicities, f.degrees())
                assert weight == rooted_tree_weight(f), (h, f)
                checked += 1
                multi_edge += len(f.edge_indices) > 1
    assert checked > 1000 and multi_edge > 100, (checked, multi_edge)


def test_tree_branch_off_gives_equal_tables(monkeypatch):
    # with every W' taken from the shape route, the tables stay the same
    hosts = [(K6_MINUS_P5, 8)]
    for k, m in ((2, 7), (3, 7), (4, 6)):
        family = enumerate_hypertrees(k, m) + enumerate_linear_unicyclic(k, m)
        hosts += [(h, 2 * k + 4) for h in family]

    def tables():
        _infragraph_table.cache_clear()
        return [[structural_components(h, d) for d in range(d_max + 1)] for h, d_max in hosts]

    closed = tables()
    monkeypatch.setattr(
        trace_module, "_infragraph_weight",
        lambda h, support, mu, deg_f: _rooted_tree_weight(
            _infragraph_shape(h, support, mu, deg_f)),
    )
    shaped = tables()
    _infragraph_table.cache_clear()
    assert closed == shaped


def test_cold_hypertree_roots_nothing():
    # every infragraph of a hypertree is tree-supported, so a cold trace
    # roots no shape, and the host's closing order is built once
    h = hyperstar(3, 5)
    for cache in (_structural_components_cached, _infragraph_table, _rooted_tree_weight,
                  _closing_order):
        cache.cache_clear()
    for d in range(10):
        trace(h, d)
    assert _rooted_tree_weight.cache_info().misses == 0
    assert _closing_order.cache_info().misses == 1


def test_cold_walked_host_orders_once():
    # the complete 3-graph on 5 vertices cannot be peeled: every order asks
    # whether it can, and every edge-row count walks it, off one closing order
    h = hypergraph(3, 5, list(combinations(range(5), 3)))
    for cache in (_structural_components_cached, _infragraph_table, _closing_order):
        cache.cache_clear()
    for d in range(9):
        trace(h, d)
    assert not _peelable(h)
    assert _closing_order.cache_info().misses == 1


def test_orders_below_k_build_no_closing_order():
    # below order k no table is summed, so no host's closing order is built
    for k in (3, 4, 5):
        h = cycle_with_pendant_star(k, 3, 5)
        for cache in (_structural_components_cached, _infragraph_table, _closing_order):
            cache.cache_clear()
        for d in range(k):
            assert trace(h, d) == trace_closed(h, d)
        assert _closing_order.cache_info().misses == 0


# ---------------------------------------------------------------------------
# k = 2: closed walks of alpha D + (1 - alpha) A
# ---------------------------------------------------------------------------

# the k = 2 structures of the dense benchmark: K6 minus these edges
DENSE_GRAPH_REMOVED = (
    [(0, 1), (0, 2), (0, 3), (0, 4)],
    [(0, 1), (1, 2), (2, 3), (3, 4)],
    [(0, 1), (1, 2), (3, 4), (4, 5)],
)


def _random_graphs(seed, count):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(2, 7)
        pool = list(combinations(range(n), 2))
        graphs.append(hypergraph(2, n, rng.sample(pool, rng.randint(1, min(10, len(pool))))))
    return graphs


def test_closed_walks_equal_infragraph_tables():
    # the infragraph route stays the oracle of the k = 2 tables
    rng = random.Random(18)
    cases = [(h, 7) for h in corpus(2, 4)] + [(K6_MINUS_P5, 8)]
    for removed in DENSE_GRAPH_REMOVED:
        perm = list(range(6))
        rng.shuffle(perm)
        dense = hypergraph(2, 6, [e for e in combinations(range(6), 2) if e not in removed])
        cases.append((dense.relabel(perm), 8))
    cases += [(hypercycle(2, m), 12) for m in range(3, 9)]
    cases += [(h, 8) for h in _random_graphs(19, 60)]
    for h, d_max in cases:
        for d in range(d_max + 1):
            assert _closed_walk_components(h, d) == structural_components(h, d), (h, d)


def test_closed_walks_equal_bruteforce_and_matrix_powers():
    for h in corpus(2, 4):
        for d in range(7):
            assert _closed_walk_components(h, d) == brute_components(h, d), (h, d)
    for h in corpus(2, 4) + _random_graphs(20, 20) + [K6_MINUS_P5]:
        for d in range(9):
            assert trace(h, d) == matrix_power_trace(h, d), (h, d)


def test_graph_moments_skip_the_walk():
    # k = 2 moments come from closed walks: no infragraph table, no rooting
    for cache in (_structural_components_cached, _infragraph_table, _rooted_tree_weight):
        cache.cache_clear()
    k6 = hypergraph(2, 6, list(combinations(range(6), 2)))
    assert [trace(k6, d) for d in range(11)] == [matrix_power_trace(k6, d) for d in range(11)]
    assert _infragraph_table.cache_info().misses == 0
    assert _rooted_tree_weight.cache_info().misses == 0


def test_closed_walk_budget(monkeypatch, capsys):
    # hypercycle(2, 5) at order 8: each start vertex makes 1 + 3 + 5 * 6 = 34
    # vertex steps, so a cap of 100 is passed at the third start vertex
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 100)
    _structural_components_cached.cache_clear()
    with pytest.raises(BudgetExceeded) as info:
        trace(hypercycle(2, 5), 8)
    ctx = info.value.context
    assert (ctx["k"], ctx["n"], ctx["m"], ctx["d"]) == (2, 5, 5, 8)
    assert 100 < ctx["steps"] <= 3 * 34
    assert "passed 100 vertex steps at start vertex 2" in str(info.value)
    # the CLI walks orders 0..8: order 5 takes 5 * 19 = 95 steps, order 6 passes the cap
    code = cli.main(["trace", "hypercycle:k=2,m=5", "--d", "8"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "closed walks of a 2-graph with n=5, m=5 to order 6 passed 100 vertex steps" in err
    assert "steps so far" in err


def test_negative_orders_rejected():
    # every moment entry point refuses d < 0 with one ValueError, on graphs
    # (closed walks, the matrix oracle) and on k = 3 hosts (infragraphs)
    routes = [phi, degree_moment, structural_components, trace, trace_structural, trace_closed,
              trace_bruteforce, adjacency_moment, signless_laplacian_moment]
    for h, extra in ((hypercycle(2, 4), [matrix_power_trace]), (hyperpath(3, 2), [])):
        for route in routes + extra:
            with pytest.raises(ValueError, match="moment order must be nonnegative, got -1"):
                route(h, -1)


def test_walk_keeps_off_the_recursion_limit():
    # K4^(3) with a 1,100-edge linear path attached cannot be peeled; the walk
    # recurses once per edge it uses, not per host edge, and the closed forms
    # do not use it
    path = [(2 * j + 3, 2 * j + 4, 2 * j + 5) for j in range(1100)]
    h = hypergraph(3, 2204, list(combinations(range(4), 3)) + path)
    assert h.m == 1104 and not _peelable(h)
    for d in (3, 4):
        assert trace(h, d) == trace_closed(h, d), d


def test_closed_forms_on_a_200_edge_hyperpath():
    # complete subhypergraphs come from pairs of edges, not every (k+1)-subset,
    # so the closed forms stay cheap on a host far past the brute force's cap
    h = hyperpath(3, 200)
    for d in range(6):
        assert trace_closed(h, d) == trace(h, d), d


# ---------------------------------------------------------------------------
# k >= 3 generic hosts: the exterior rooting pass and the closing-order walk
# ---------------------------------------------------------------------------

# the k = 3 structures of the dense benchmark: the complete 3-graph on 6 vertices minus these
DENSE_3GRAPH_REMOVED = (
    [(0, 1, 5), (0, 4, 5), (1, 2, 3), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (3, 4, 5)],
    [(0, 1, 2), (0, 1, 5), (0, 4, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)],
    [(0, 1, 2), (0, 1, 4), (0, 1, 5), (0, 4, 5), (1, 2, 3), (1, 3, 4), (1, 3, 5), (2, 4, 5)],
)


def _dense_3graphs(seed, relabellings):
    """Each k = 3 dense structure under ``relabellings`` seeded vertex permutations."""
    rng = random.Random(seed)
    graphs = []
    for removed in DENSE_3GRAPH_REMOVED:
        base = hypergraph(3, 6, [e for e in combinations(range(6), 3) if e not in removed])
        for _ in range(relabellings):
            perm = list(range(6))
            rng.shuffle(perm)
            graphs.append(base.relabel(perm))
    return graphs


def _tight_cycle(n):
    return hypergraph(3, n, [(i, (i + 1) % n, (i + 2) % n) for i in range(n)])


def _rooted_shapes(h, max_e):
    """The shapes of h's infragraphs with at most max_e rows that are rooted by shape."""
    return {
        _infragraph_shape(h, support, mu, deg_f)
        for e in range(1, max_e + 1)
        for support, mu, deg_f in _veblen_vectors(h, e)
        if len(deg_f) != (h.k - 1) * len(support) + 1
    }


def test_exterior_pass_matches_enumerated_rooting():
    # the one-pass rooting against the reference's rooting-by-rooting enumeration
    _rooted_tree_weight.cache_clear()
    complete3 = _rooted_shapes(hypergraph(3, 6, list(combinations(range(6), 3))), 8)
    complete4 = _rooted_shapes(hypergraph(4, 6, list(combinations(range(6), 4))), 9)
    assert (len(complete3), len(complete4)) == (546, 117)
    shapes = complete3 | complete4
    for h in _dense_3graphs(21, 2):
        shapes |= _rooted_shapes(h, 8)
    for n in range(6, 13):
        shapes |= _rooted_shapes(_tight_cycle(n), 12)
    shapes |= {tuple((e, 1) for e in combinations(range(k + 1), k)) for k in range(2, 7)}
    for shape in shapes:
        assert _rooted_tree_weight(shape) == rooted_shape_weight_enumerated(shape), shape
    # deg_F = 1 is no multiple of k = 3, so no vertex may root the one row
    assert _rooted_tree_weight((((0, 1, 2), 1),)) == 0
    assert rooted_shape_weight_enumerated((((0, 1, 2), 1),)) == 0


def test_rooting_budget(monkeypatch):
    # K4^(3) minus an edge cannot be peeled.  Through e = 9 its walk visits at
    # most 27 nodes per e, but one shape with 9 rows takes 39 rooting steps.
    h = hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 30)
    for cache in (_structural_components_cached, _infragraph_table, _rooted_tree_weight):
        cache.cache_clear()
    for d in range(9):
        structural_components(h, d)
    with pytest.raises(BudgetExceeded) as info:
        structural_components(h, 9)
    ctx = info.value.context
    assert (ctx["vertices"], ctx["rows"]) == (4, 9)
    assert 0 <= ctx["vertex"] < 4 and ctx["states"] >= 0
    assert "rooting of an infragraph shape with 4 vertices and 9 edge rows passed 30 steps" in str(
        info.value
    )
    # the tight 6-cycle with every edge twice takes 128 steps; without making
    # each edge's last vertex take the rows left, dead states raise it to 335
    cycle = _tight_cycle(6)
    count = _NodeCount()
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", count)
    _rooted_tree_weight.cache_clear()
    deg_f = {v: 6 for v in range(6)}
    _rooted_tree_weight(_infragraph_shape(cycle, tuple(range(6)), (2,) * 6, deg_f))
    assert count.nodes == 128


class _NodeCount:
    """Stands in for ``MAX_WALK_NODES``: never passed, it keeps the largest
    count checked against it (``nodes > cap`` asks ``cap < nodes``)."""

    def __init__(self):
        self.nodes = 0

    def __lt__(self, nodes):
        self.nodes = max(self.nodes, nodes)
        return False


def test_closing_order_bounds_dense_walk(monkeypatch):
    # closing vertices early makes the walk nearly label-free: these nine
    # hosts take 3,018 to 3,283 nodes over e = 3..8, against 3,011 to 5,780
    # when the walk takes the edges in host-index order
    for h in _dense_3graphs(22, 3):
        total = 0
        for e in range(3, 9):
            count = _NodeCount()
            monkeypatch.setattr(trace_module, "MAX_WALK_NODES", count)
            found = _veblen_vectors(h, e)
            total += count.nodes
            # supports sorted by host index, and deg_F built along the sorted support
            for support, _, deg_f in found:
                assert list(support) == sorted(support)
                assert list(deg_f) == list(dict.fromkeys(v for i in support for v in h.edges[i]))
        assert total <= 3_400, (h, total)
