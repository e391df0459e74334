import random

import pytest

from alphatrace import (
    UnsupportedError,
    hypercycle,
    hypergraph,
    hyperpath,
    hyperstar,
    starlike,
)
from alphatrace.canon import are_isomorphic, canonical_form
from alphatrace.enumeration import FamilyFilter, enumerate_family
from alphatrace.families import add_pendant_edge
from alphatrace.hypergraph import HYPERTREE, LINEAR_UNICYCLIC
from conftest import corpus
from reference import canonical_form_reference

# (k, largest m) of the families cross-checked against the search oracle
ORACLE_SIZES = ((2, 7), (3, 6), (4, 5), (5, 6), (6, 5))


def shuffled(h, rng):
    perm = list(range(h.n))
    rng.shuffle(perm)
    return h.relabel(perm)


def assert_same_partition(graphs):
    """The production key and the oracle key split ``graphs`` alike."""
    pairs = {(canonical_form(h), canonical_form_reference(h)) for h in graphs}
    assert len({a for a, _ in pairs}) == len(pairs) == len({b for _, b in pairs})


def test_relabeling_invariance():
    rng = random.Random(11)
    for h in corpus(3, 4) + corpus(2, 5):
        base = canonical_form(h)
        for _ in range(5):
            assert canonical_form(shuffled(h, rng)) == base


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


def test_partition_matches_search_oracle():
    """Every family member and every labelled graph the growth dedups are
    split into the same classes by the incidence-tree code and by the
    search canon; each member's key survives three seeded relabellings."""
    rng = random.Random(17)
    for k, top in ORACLE_SIZES:
        for cls, low in ((HYPERTREE, 1), (LINEAR_UNICYCLIC, 3)):
            for m in range(low, top + 1):
                members = enumerate_family(FamilyFilter(cls, k, m))
                parents = enumerate_family(FamilyFilter(cls, k, m - 1))
                for h in members:
                    for _ in range(3):
                        assert canonical_form(shuffled(h, rng)) == canonical_form(h)
                children = [add_pendant_edge(h, v) for h in parents for v in range(h.n)]
                if cls == LINEAR_UNICYCLIC:
                    children.append(hypercycle(k, m))
                assert_same_partition(members + children)
                assert len({canonical_form(h) for h in children}) == len(members), (cls, k, m)


def test_girth_two_unicyclic_inputs():
    """Two edges meeting in two vertices close a cycle of length 2; such
    non-linear unicyclic graphs get keys that survive relabelling."""
    rng = random.Random(23)
    pool = []
    for k in (3, 4):
        layer = [hypergraph(k, 2 * k - 2, [tuple(range(k)), (0, 1) + tuple(range(k, 2 * k - 2))])]
        for _ in range(3):
            layer = [add_pendant_edge(h, v) for h in layer for v in range(h.n)]
            pool += layer
    assert_same_partition(pool)
    for h in pool[::7]:
        assert canonical_form(shuffled(h, rng)) == canonical_form(h)


def test_large_inputs_and_domain():
    rng = random.Random(29)
    for h in (hyperpath(2, 3000), hypercycle(3, 500)):
        assert canonical_form(shuffled(h, rng)) == canonical_form(h)
    two_cycles = hypergraph(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    disconnected = hypergraph(2, 6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)])
    for h in (two_cycles, disconnected, hypergraph(2, 0, [])):
        with pytest.raises(UnsupportedError):
            canonical_form(h)
