import random
from fractions import Fraction

import pytest

import alphatrace.ordering as ordering_module
from alphatrace import (
    OrderingError,
    compare_at_alpha,
    compare_symbolic,
    cycle_with_tail,
    hypercycle,
    hypergraph,
    hyperpath,
    hyperstar,
    sort_family,
    trace,
    verify_theorem,
)
from alphatrace.canon import are_isomorphic
from alphatrace.enumeration import _growth, enumerate_hypertrees, enumerate_linear_unicyclic
from alphatrace.ordering import (
    EQUAL_UP_TO,
    GREATER,
    GREATER_ON_UNIT,
    GREATER_OR_EQUAL_ON_UNIT,
    LESS,
    LESS_ON_UNIT,
    LESS_OR_EQUAL_ON_UNIT,
    SIGN_CHANGES,
    CLAIMS,
    DEGENERATE,
    HOLDS,
    UNDECIDED,
    VIOLATED,
    list_claims,
)
from alphatrace.polynomial import AlphaPoly
from alphatrace.trace import cross_check
from conftest import corpus, fractions_calls
from reference import sort_family_reference

HALF = Fraction(1, 2)


def test_compare_examples():
    v = compare_at_alpha(hyperpath(3, 3), hyperstar(3, 3), HALF, 4)
    assert (v.relation, v.first_diff_order) == (LESS, 2)
    h = hyperpath(3, 3)
    v2 = compare_at_alpha(h, h, HALF, 4)
    assert (v2.relation, v2.first_diff_order) == (EQUAL_UP_TO, None)
    v3 = compare_at_alpha(hypercycle(3, 4), cycle_with_tail(3, 3, 4), HALF, 5)
    assert (v3.relation, v3.first_diff_order) == (LESS, 5)


def test_compare_preconditions():
    with pytest.raises(OrderingError):
        compare_at_alpha(hyperpath(3, 2), hyperpath(3, 3), HALF, 4)
    with pytest.raises(OrderingError):
        compare_at_alpha(hyperpath(2, 2), hyperpath(3, 2), HALF, 4)
    with pytest.raises(OrderingError):
        compare_at_alpha(hyperpath(3, 2), hyperpath(3, 2), Fraction(3, 2), 4)
    with pytest.raises(OrderingError):
        compare_at_alpha(hyperpath(3, 2), hyperpath(3, 2), Fraction(0), 4)


def test_antisymmetry():
    pairs = [
        (hyperpath(3, 3), hyperstar(3, 3)),
        (hypercycle(3, 4), cycle_with_tail(3, 3, 4)),
    ]
    for a, b in pairs:
        va = compare_at_alpha(a, b, HALF, 8)
        vb = compare_at_alpha(b, a, HALF, 8)
        assert {va.relation, vb.relation} == {LESS, GREATER}
        assert va.first_diff_order == vb.first_diff_order


def test_isomorphism_invariance():
    rng = random.Random(23)
    a, b = hyperpath(3, 3), hyperstar(3, 3)
    base = compare_at_alpha(a, b, HALF, 4)
    for _ in range(5):
        pa = list(range(a.n))
        pb = list(range(b.n))
        rng.shuffle(pa)
        rng.shuffle(pb)
        v = compare_at_alpha(a.relabel(pa), b.relabel(pb), HALF, 4)
        assert (v.relation, v.first_diff_order) == (base.relation, base.first_diff_order)


def test_symbolic_verdicts():
    v = compare_symbolic(hyperpath(3, 3), hyperstar(3, 3), 4)
    assert (v.relation, v.first_diff_order) == (LESS_ON_UNIT, 2)
    v2 = compare_symbolic(hyperstar(3, 3), hyperpath(3, 3), 4)
    assert v2.relation == GREATER_ON_UNIT
    v3 = compare_symbolic(hyperpath(3, 3), hyperpath(3, 3), 4)
    assert v3.relation == EQUAL_UP_TO


def test_symbolic_touching_difference(monkeypatch):
    # stand-in moments: only order 2 differs, by ``diff``; a root alone in
    # (0, 1) is isolated by the whole interval
    half = AlphaPoly((Fraction(-1, 2), 1))
    a, b = hyperpath(3, 3), hyperstar(3, 3)
    unit = ((Fraction(0), Fraction(1)),)
    cases = [
        (half * half, GREATER_OR_EQUAL_ON_UNIT, unit),
        (half * half * -5, LESS_OR_EQUAL_ON_UNIT, unit),
        (half * half * half, SIGN_CHANGES, unit),
        (half * half + 1, GREATER_ON_UNIT, ()),
    ]
    for diff, relation, witnesses in cases:
        fake = {a: [AlphaPoly.zero()] * 2 + [diff], b: [AlphaPoly.zero()] * 3}
        monkeypatch.setattr(ordering_module, "trace", lambda h, d: fake[h][d])
        v = compare_symbolic(a, b, 2)
        assert (v.relation, v.first_diff_order, v.witnesses) == (relation, 2, witnesses)
    assert v.to_json_dict()["witnesses"] == []
    # orders 0 and 1 are read only where (k, n, m) differ: a 2-edge forest on
    # the same 7 vertices, against a pair of one (k, n, m) that reads neither
    forest = hypergraph(3, 7, [(0, 1, 2), (2, 3, 4)])
    monkeypatch.setattr(ordering_module, "trace", lambda h, d: half * half if h is b else AlphaPoly.zero())
    assert compare_symbolic(forest, b, 0).to_json_dict() == {
        "relation": LESS_OR_EQUAL_ON_UNIT, "first_diff_order": 0, "d_max": 0,
        "witnesses": [["0", "1"]],
    }
    assert compare_symbolic(a, b, 1).relation == EQUAL_UP_TO


def test_symbolic_cycle_star_vs_split():
    from alphatrace import cycle_with_pendant_star, triangle_with_pendant_counts

    star = cycle_with_pendant_star(3, 3, 5)
    split = triangle_with_pendant_counts(3, 1, 1, 0)
    v = compare_symbolic(star, split, 8)
    assert (v.relation, v.first_diff_order) == (GREATER_ON_UNIT, 2)


def test_symbolic_consistency_with_sampled_alphas():
    samples = [Fraction(1, 10), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(9, 10)]
    pairs = [
        (hyperpath(3, 4), hyperstar(3, 4)),
        (hypercycle(3, 4), cycle_with_tail(3, 3, 4)),
    ]
    for a, b in pairs:
        sym = compare_symbolic(a, b, 8)
        assert sym.relation == LESS_ON_UNIT
        for alpha in samples:
            assert compare_at_alpha(a, b, alpha, 8).relation == LESS


def test_same_degree_pairs_first_diff_at_k_plus_2():
    a = hypercycle(3, 4)
    b = cycle_with_tail(3, 3, 4)
    assert sorted(a.degrees()) == sorted(b.degrees())
    v = compare_at_alpha(a, b, HALF, 8)
    assert v.first_diff_order == 5


def test_cycle_tail_pair_first_diff_at_2k_plus_2():
    # the two girth-reduced tails at m=5 share every moment through
    # order 2k+1 and separate exactly at 2k+2
    a = cycle_with_tail(3, 4, 5)
    b = cycle_with_tail(3, 3, 5)
    v = compare_at_alpha(a, b, HALF, 8)
    assert (v.relation, v.first_diff_order) == (LESS, 8)


def test_cross_check_agrees():
    # both operands agree with every second route through the verdict's order
    a, b = hyperpath(3, 3), hyperstar(3, 3)
    v = compare_at_alpha(a, b, HALF, 4)
    assert v.relation == LESS
    for d in range(v.first_diff_order + 1):
        for h in (a, b):
            cross_check(h, d, trace(h, d))


def test_sort_family_hypertrees():
    family = enumerate_hypertrees(3, 3)
    ranked = sort_family(family, HALF, 8)
    assert all(len(g) == 1 for g in ranked.groups)
    first = family[ranked.groups[0][0]]
    last = family[ranked.groups[-1][0]]
    assert are_isomorphic(first, hyperpath(3, 3))
    assert are_isomorphic(last, hyperstar(3, 3))


def test_sort_family_unicyclic_m4():
    family = enumerate_linear_unicyclic(3, 4)
    ranked = sort_family(family, HALF, 8)
    assert all(len(g) == 1 for g in ranked.groups)
    order = [family[g[0]] for g in ranked.groups]
    assert are_isomorphic(order[0], hypercycle(3, 4))
    assert are_isomorphic(order[1], cycle_with_tail(3, 3, 4))
    from alphatrace import cycle_with_pendant_star

    assert are_isomorphic(order[2], cycle_with_pendant_star(3, 3, 4))
    assert ranked.verdict(ranked.groups[0][0], ranked.groups[-1][0]).relation == LESS
    # every ordered pair: the relation follows the group positions, and the
    # deciding order is the first at which the evaluated moments differ
    position = {i: p for p, g in enumerate(ranked.groups) for i in g}
    for i in range(len(family)):
        for j in range(len(family)):
            if i == j:
                continue
            v = ranked.verdict(i, j)
            assert v.relation == (LESS if position[i] < position[j] else GREATER)
            first = next(
                d
                for d in range(ranked.d_used + 1)
                if trace(family[i], d).evaluate(HALF) != trace(family[j], d).evaluate(HALF)
            )
            assert v.first_diff_order == first
            assert v.d_max == ranked.d_used


@pytest.mark.parametrize("k", [2, 3])
def test_sort_family_matches_fraction_ranking(k):
    # integer keys q^d Tr_d(p/q) give the groups and d_used of ranking by
    # the Fraction values themselves
    for family in (enumerate_hypertrees(k, 6), enumerate_linear_unicyclic(k, 6)):
        for alpha in (Fraction(1, 10), Fraction(1, 3), HALF, Fraction(9, 10)):
            ranked = sort_family(family, alpha, 2 * k + 2)
            want = sort_family_reference(family, alpha, 2 * k + 2)
            assert (ranked.d_used, list(ranked.groups)) == want, alpha


def test_sort_family_fraction_calls_do_not_grow():
    # the ranking keys are integers: only validating alpha touches fractions
    small = enumerate_linear_unicyclic(3, 6)
    large = enumerate_linear_unicyclic(3, 7)
    assert len(large) > len(small)
    calls = [fractions_calls(lambda: sort_family(f, Fraction(1, 3), 8)) for f in (small, large)]
    assert calls[0] == calls[1] < 50


def test_moment_rows_fraction_calls_do_not_grow():
    # a moment row ranks on integer keys; only its printed values are Fractions
    def verify(m):
        return verify_theorem("7.3", 3, m, Fraction(1, 3))

    for m in (6, 7):
        verify(m)  # warm the family and moment caches
    calls = [fractions_calls(lambda: verify(m)) for m in (6, 7)]
    assert calls[0] == calls[1] < 100


def test_sort_singleton():
    family = [hypercycle(3, 3)]
    ranked = sort_family(family, HALF, 4)
    assert ranked.groups == ((0,),)
    # alpha is checked before an empty family returns early
    with pytest.raises(OrderingError):
        sort_family([], Fraction(3, 2), 4)


def test_verify_smoke_and_claims_list():
    ids = [cid for cid, _ in list_claims()]
    assert "6.4" in ids and "5.6" in ids
    report = verify_theorem("6.4", 3, 4, HALF)
    assert report.holds
    assert "hyperstar" in report.description
    text = report.to_text()
    assert "PASS" in text
    data = report.to_json_dict()
    assert data["holds"] is True


def test_verify_degenerate_second_last_at_m4():
    report = verify_theorem("5.3", 3, 4, HALF)
    assert not report.holds
    assert {c.status for c in report.checks} == {"degenerate"}
    report5 = verify_theorem("5.3", 3, 5, HALF)
    assert report5.holds


def test_verify_grows_each_family_once():
    # 5.1 and 5.5 read the family per girth, 7.1 reads it whole and per
    # girth: three growths at m=5, one per girth, each run once
    _growth.cache_clear()
    for cid in ("5.1", "5.5", "7.1"):
        assert verify_theorem(cid, 3, 5, HALF).holds
    info = _growth.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    assert info.hits > 0


def test_negative_order_bound_rejected():
    path, star = hyperpath(3, 3), hyperstar(3, 3)
    with pytest.raises(OrderingError):
        compare_at_alpha(path, star, HALF, -1)
    with pytest.raises(OrderingError):
        compare_symbolic(path, star, -1)
    with pytest.raises(OrderingError):
        sort_family(enumerate_hypertrees(3, 4), HALF, -1)
    with pytest.raises(OrderingError):
        verify_theorem("6.4", 3, 4, HALF, d_max=-1)


def test_verify_unknown_claim():
    with pytest.raises(OrderingError):
        verify_theorem("9.9", 3, 4, HALF)


def test_verify_hypothesis_gate():
    report = verify_theorem("5.6", 2, 4, HALF)  # needs k >= 3
    assert not report.holds
    assert report.checks[0].label == "hypothesis"


def _read_off_full_refinement(claim, k, m, alpha):
    """Per instance of a position claim: the status, the order at which
    the loop stops and the designated member's traces through it, when
    the whole family is refined as ``sort_family`` refines it."""
    d_base = 2 * k + 2
    ascending, rank = ordering_module._side(claim.position)
    out = []
    for _, family, member in ordering_module._instances(claim, k, m):
        if member is None:
            out.append((VIOLATED, None, None))
            continue
        full = ordering_module._refine(family, alpha, range(max(d_base, k * m + 2) + 1))
        for d, groups in full:
            status, _ = ordering_module._positions(groups, member, claim.position)
            if d >= d_base and status != UNDECIDED:
                break
        if status != HOLDS and rank == 1 and groups[0 if ascending else -1] == (member,):
            status = DEGENERATE
        traces = [{"d": e, "poly": trace(family[member], e).to_json()} for e in range(d + 1)]
        out.append((status, d, traces))
    return out


@pytest.mark.parametrize("k, top", [(2, 7), (3, 7), (4, 6)])
def test_read_limit_keeps_every_verdict(k, top):
    # a position claim splits only the groups its position can read; each
    # status equals the one a full refinement gives, and so do d_used and
    # the designated traces wherever that refinement did not separate the
    # whole family before 2k+2 (where it did, the check reads on to 2k+2)
    d_base = 2 * k + 2
    for m in range(1, top + 1):
        for cid, claim in CLAIMS.items():
            if claim.moments or not ordering_module._applies(claim, k, m):
                continue
            for alpha in (Fraction(1, 10), HALF, Fraction(9, 10)):
                report = verify_theorem(cid, k, m, alpha)
                want = _read_off_full_refinement(claim, k, m, alpha)
                assert [c.status for c in report.checks] == [s for s, _, _ in want], (cid, m, alpha)
                assert report.d_used == max([d_base] + [d for _, d, _ in want if d is not None])
                for check, (_, d_full, traces) in zip(report.checks, want):
                    if d_full is None:
                        continue
                    evidence = check.evidence
                    if d_full < d_base:
                        assert d_full <= evidence["d_used"] <= d_base
                        continue
                    assert evidence["d_used"] == d_full, (cid, m, alpha)
                    assert evidence["designated_traces"] == traces, (cid, m, alpha)


def test_orders_zero_and_one_are_closed_on_both_families():
    # the read skip at orders 0 and 1: Tr_0 = n(k-1)^(n-1) and
    # Tr_1 = alpha(k-1)^(n-1)km depend on (k, n, m) alone
    for k in (2, 3, 4):
        for h in corpus(k, 6):
            scale = (k - 1) ** (h.n - 1)
            assert trace(h, 0) == AlphaPoly.constant(h.n * scale)
            assert trace(h, 1) == AlphaPoly.monomial(1, k * h.m * scale)


def test_refine_reads_orders_zero_and_one_only_when_m_differs(monkeypatch):
    reads = []

    def counted(h, d):
        reads.append(d)
        return trace(h, d)

    monkeypatch.setattr(ordering_module, "trace", counted)
    # one 3-graph on 5 vertices with two edges, one with one edge
    pair = (hyperpath(3, 2), ordering_module.Hypergraph(3, 5, ((0, 1, 2),)))
    steps = list(ordering_module._refine(pair, HALF, range(4)))
    assert steps == [(0, [(0, 1)]), (1, [(1,), (0,)])]
    assert reads == [0, 0, 1, 1]
    reads.clear()
    ranked = sort_family(enumerate_hypertrees(3, 4), HALF, 8)
    assert reads and min(reads) == 2
    assert all(len(g) == 1 for g in ranked.groups)
