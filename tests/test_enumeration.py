import pytest

from alphatrace import (
    HYPERTREE,
    LINEAR_UNICYCLIC,
    BudgetExceeded,
    FamilyFilter,
    ParameterError,
    classify,
    complete_subhypergraphs,
    cycle_with_pendant_star,
    enumerate_family,
    enumerate_hypertrees,
    enumerate_linear_unicyclic,
    hypergraph,
    hyperpath,
)
from alphatrace.canon import canonical_form
from alphatrace.enumeration import dump_family
from alphatrace.hypergraph import diameter, girth
from reference import labeled_trees_k2


def test_k2_tree_counts_match_unlabeled_sequence():
    expected = {0: 1, 1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 11}
    for m, count in expected.items():
        assert len(enumerate_hypertrees(2, m)) == count


def test_k2_tree_counts_match_pruefer_oracle():
    for m in range(1, 6):
        labeled = labeled_trees_k2(m)
        assert len(labeled) == max(1, (m + 1) ** (m - 1))
        classes = {canonical_form(h) for h in labeled}
        assert len(classes) == len(enumerate_hypertrees(2, m))


def test_small_class_counts():
    assert len(enumerate_hypertrees(3, 2)) == 1
    assert len(enumerate_hypertrees(3, 3)) == 2
    # pinned by the labeled-generation oracle (all 4-subsets of triples on 9 vertices)
    assert len(enumerate_hypertrees(3, 4)) == 4
    assert len(enumerate_linear_unicyclic(3, 3)) == 1
    # pinned by the labeled-generation oracle on 8 vertices
    assert len(enumerate_linear_unicyclic(3, 4)) == 3
    assert len(enumerate_hypertrees(4, 3)) == 2


def test_members_classify_and_dedup():
    for k in (2, 3):
        trees = enumerate_hypertrees(k, 4)
        assert len({canonical_form(h) for h in trees}) == len(trees)
        assert all(classify(h).kind == HYPERTREE for h in trees)
        unis = enumerate_linear_unicyclic(k, 5)
        assert len({canonical_form(h) for h in unis}) == len(unis)
        assert all(classify(h).kind == LINEAR_UNICYCLIC for h in unis)


def test_girth_filter():
    for g in (3, 4, 5):
        members = enumerate_linear_unicyclic(3, 5, girth=g)
        assert members
        assert all(girth(h) == g for h in members)
    whole = enumerate_linear_unicyclic(3, 5)
    assert sum(len(enumerate_linear_unicyclic(3, 5, girth=g)) for g in (3, 4, 5)) == len(whole)


def test_diameter_filter():
    filt = FamilyFilter(HYPERTREE, 3, 4, diam=3)
    members = enumerate_family(filt)
    assert members and all(diameter(h) == 3 for h in members)
    counts = sum(
        len(enumerate_family(FamilyFilter(HYPERTREE, 3, 4, diam=d))) for d in (2, 3, 4)
    )
    assert counts == len(enumerate_hypertrees(3, 4))


def test_max_degree_two_filter():
    filt = FamilyFilter(HYPERTREE, 3, 4, max_degree_two=True)
    members = enumerate_family(filt)
    assert all(max(h.degrees()) <= 2 for h in members)
    assert len(members) == 2  # the path and the branched path


def test_filter_validation():
    with pytest.raises(ParameterError):
        FamilyFilter(HYPERTREE, 3, 4, girth=3)
    with pytest.raises(ParameterError):
        FamilyFilter(LINEAR_UNICYCLIC, 3, 4, diam=2)
    with pytest.raises(ParameterError):
        FamilyFilter(LINEAR_UNICYCLIC, 3, 4, girth=5)
    with pytest.raises(ParameterError):
        FamilyFilter(HYPERTREE, 3, -1)
    # the wrappers go through the same filter
    with pytest.raises(ParameterError):
        enumerate_hypertrees(3, -1)
    with pytest.raises(ParameterError):
        enumerate_linear_unicyclic(3, 5, girth=6)


def test_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_hypertrees(3, 9)
    # an unsupported rank is a usage error, not a budget
    with pytest.raises(ParameterError):
        enumerate_hypertrees(5, 3)


def test_deterministic_order_under_relabeling():
    import random

    rng = random.Random(5)
    base = enumerate_linear_unicyclic(3, 4)
    keys = [canonical_form(h) for h in base]
    assert keys == sorted(keys)
    # relabeling any member leaves its class key unchanged
    for h in base:
        perm = list(range(h.n))
        rng.shuffle(perm)
        assert canonical_form(h.relabel(perm)) in keys


def test_complete_subhypergraph_counts():
    assert len(complete_subhypergraphs(hyperpath(3, 3))) == 0
    tri = hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    assert len(complete_subhypergraphs(tri)) == 1
    c3s2 = cycle_with_pendant_star(2, 3, 5)
    assert len(complete_subhypergraphs(c3s2)) == 1


def test_dump_family(tmp_path):
    filt = FamilyFilter(HYPERTREE, 3, 3)
    members = enumerate_family(filt)
    manifest = dump_family(tmp_path, members, filt)
    import json

    index = json.loads(manifest.read_text())
    assert len(index) == len(members)
    from alphatrace.hypergraph import loads

    for entry in index:
        h = loads((tmp_path / entry["file"]).read_text())
        assert canonical_form(h).hex() == entry["canonical"]
