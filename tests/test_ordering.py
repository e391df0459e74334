import random
from fractions import Fraction

import pytest

from alphatrace import (
    OrderingError,
    compare_at_alpha,
    compare_symbolic,
    cycle_with_tail,
    hypercycle,
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
    LESS,
    LESS_ON_UNIT,
    list_claims,
)

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


def test_cross_check_flag_agrees():
    v = compare_at_alpha(hyperpath(3, 3), hyperstar(3, 3), HALF, 4, cross_check=True)
    assert v.relation == LESS


def test_sort_family_hypertrees():
    family = enumerate_hypertrees(3, 3)
    ranked = sort_family(family, HALF, 8)
    assert ranked.all_resolved()
    first = family[ranked.groups[0][0]]
    last = family[ranked.groups[-1][0]]
    assert are_isomorphic(first, hyperpath(3, 3))
    assert are_isomorphic(last, hyperstar(3, 3))


def test_sort_family_unicyclic_m4():
    family = enumerate_linear_unicyclic(3, 4)
    ranked = sort_family(family, HALF, 8)
    assert ranked.all_resolved()
    order = [family[g[0]] for g in ranked.groups]
    assert are_isomorphic(order[0], hypercycle(3, 4))
    assert are_isomorphic(order[1], cycle_with_tail(3, 3, 4))
    from alphatrace import cycle_with_pendant_star

    assert are_isomorphic(order[2], cycle_with_pendant_star(3, 3, 4))
    matrix = ranked.verdict_matrix()
    assert matrix[(ranked.groups[0][0], ranked.groups[-1][0])] == LESS
    # every ordered pair: the relation follows the group positions, and the
    # deciding order is the first at which the evaluated moments differ
    position = {i: p for p, g in enumerate(ranked.groups) for i in g}
    for i in range(len(family)):
        for j in range(len(family)):
            if i == j:
                continue
            v = ranked.verdict(i, j)
            assert v.relation == matrix[(i, j)]
            assert v.relation == (LESS if position[i] < position[j] else GREATER)
            first = next(
                d
                for d in range(ranked.d_used + 1)
                if trace(family[i], d).evaluate(HALF) != trace(family[j], d).evaluate(HALF)
            )
            assert v.first_diff_order == first
            assert v.d_max == ranked.d_used


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
