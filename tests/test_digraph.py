import pytest

from alphatrace import hyperpath
from alphatrace.digraph import (
    arborescence_count,
    b_factor,
    bareiss_determinant,
    euler_tour_count,
    hierholzer_tour,
    multidigraph,
    tour_sequence_count,
)
from alphatrace.errors import HypergraphError
from reference import (
    Assignment,
    DiagonalRow,
    EdgeRow,
    count_closed_sequences,
    count_rotation_tours,
    from_assignment,
)


def complete_digraph(k):
    return multidigraph({(u, v): 1 for u in range(k) for v in range(k) if u != v})


def test_bareiss():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[2, 0, 0], [0, 0, 3], [0, 5, 0]]) == -30


def test_b_and_c_factors():
    g = multidigraph({(0, 1): 1, (1, 0): 1})
    assert b_factor(g) == 1
    g2 = multidigraph({(0, 1): 3, (1, 0): 1})
    assert b_factor(g2) == 6
    g3 = multidigraph({(0, 0): 2, (0, 1): 2, (1, 0): 2})
    assert b_factor(g3) == 8  # 2! * 2! * 2!


def test_arborescence_examples():
    for k in range(2, 7):
        assert arborescence_count(complete_digraph(k), 0) == k ** (k - 2)
    assert arborescence_count(multidigraph({}, vertices=[0]), 0) == 1
    two = multidigraph({(0, 1): 1, (1, 0): 1})
    assert arborescence_count(two, 0) == 1
    with pytest.raises(HypergraphError):
        arborescence_count(two, 5)


def test_loops_do_not_change_arborescences():
    g = complete_digraph(3)
    withloop = multidigraph(dict(g.arcs) | {(1, 1): 4})
    assert arborescence_count(withloop, 0) == arborescence_count(g, 0)


def test_euler_tour_examples():
    assert euler_tour_count(multidigraph({(0, 1): 1, (1, 0): 1})) == 1
    assert euler_tour_count(complete_digraph(3)) == 3
    assert euler_tour_count(multidigraph({(0, 1): 1})) == 0  # unbalanced
    assert tour_sequence_count(complete_digraph(3)) == 18
    assert tour_sequence_count(multidigraph({(0, 1): 1, (1, 0): 1})) == 2
    # double loop plus 2-cycle at one vertex (the figure-eight shape)
    fig8 = multidigraph({(0, 0): 1, (0, 1): 1, (1, 0): 1})
    assert tour_sequence_count(fig8) == 3


def test_oracle_agreement_small():
    cases = [
        {(0, 1): 1, (1, 0): 1},
        {(0, 0): 2},
        {(0, 0): 1, (0, 1): 1, (1, 0): 1},
        {(0, 1): 2, (1, 0): 2},
        dict(complete_digraph(3).arcs),
        {(0, 1): 1, (1, 2): 1, (2, 0): 1, (0, 2): 1, (2, 1): 1, (1, 0): 1},
    ]
    for arcs in cases:
        g = multidigraph(arcs)
        assert euler_tour_count(g) == count_rotation_tours(arcs)
        assert tour_sequence_count(g) == count_closed_sequences(arcs)


def test_b_c_multiplicative_over_disjoint_unions():
    g1 = multidigraph({(0, 1): 2, (1, 0): 2})
    g2 = multidigraph({(2, 3): 1, (3, 2): 1, (2, 2): 3})
    union = multidigraph(dict(g1.arcs) | dict(g2.arcs))
    assert b_factor(union) == b_factor(g1) * b_factor(g2)
    assert b_factor(g1) >= 1


def test_hierholzer_matches_feasibility():
    good = complete_digraph(4)
    tour = hierholzer_tour(good)
    assert tour is not None and len(tour) == good.arc_count
    assert hierholzer_tour(multidigraph({(0, 1): 1})) is None
    assert hierholzer_tour(multidigraph({(0, 0): 1, (1, 1): 1})) is None  # disconnected


def test_from_assignment():
    h = hyperpath(3, 1)
    f = Assignment((EdgeRow(0, 1, 0),))
    g = from_assignment(f, h)
    assert dict(g.arcs) == {(1, 0): 1, (1, 2): 1}
    assert g.out_degrees()[1] == 2

    fd = Assignment((DiagonalRow(1),))
    gd = from_assignment(fd, h)
    assert dict(gd.arcs) == {(1, 1): 2}

    # one row per root of a single edge balances the digraph
    fb = Assignment((EdgeRow(0, 0, 0), EdgeRow(0, 1, 0), EdgeRow(0, 2, 0)))
    gb = from_assignment(fb, h)
    assert gb.is_balanced()
    assert all(d == 2 for d in gb.out_degrees().values())


def test_assignment_validation():
    h = hyperpath(3, 2)
    with pytest.raises(HypergraphError):
        Assignment((EdgeRow(0, 4, 0),)).validate(h)  # root not in edge
    with pytest.raises(HypergraphError):
        Assignment((EdgeRow(1, 4, 0), EdgeRow(0, 0, 0))).validate(h)  # unsorted
