import random

import pytest

from alphatrace import BudgetExceeded, hypergraph, hyperpath, hyperstar, starlike
from alphatrace.canon import are_isomorphic, canonical_form
from conftest import corpus


def test_relabeling_invariance():
    rng = random.Random(11)
    for h in corpus(3, 4) + corpus(2, 5):
        base = canonical_form(h)
        for _ in range(5):
            perm = list(range(h.n))
            rng.shuffle(perm)
            assert canonical_form(h.relabel(perm)) == base


def test_distinct_classes():
    assert canonical_form(hyperpath(3, 3)) != canonical_form(hyperstar(3, 3))
    # same degree sequence, different shapes still separate
    a = hypergraph(2, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    b = hypergraph(2, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert canonical_form(a) != canonical_form(b)


def test_starlike_vs_branch():
    from alphatrace import path_with_branch

    assert not are_isomorphic(starlike(3, (2, 1, 1)), path_with_branch(3, 4))


def test_automorphism_heavy_graph_is_stable():
    h = hyperstar(4, 5)
    perm = list(range(h.n))
    random.Random(3).shuffle(perm)
    assert canonical_form(h) == canonical_form(h.relabel(perm))


def test_size_cap():
    with pytest.raises(BudgetExceeded):
        canonical_form(hyperpath(2, 30))
