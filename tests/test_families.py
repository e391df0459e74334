import pytest

from alphatrace import (
    HYPERTREE,
    LINEAR_UNICYCLIC,
    ParameterError,
    build_family,
    classify,
    cycle_with_pendant_star,
    cycle_with_tail,
    diameter_star,
    girth,
    hypercycle,
    hyperpath,
    hyperstar,
    path_with_branch,
    starlike,
    triangle_with_pendant_counts,
)
from alphatrace.canon import are_isomorphic
from alphatrace.families import FamilySpec, parse_family_string
from alphatrace.hypergraph import diameter


def test_hyperpath_base_case():
    h = hyperpath(3, 1)
    assert h.edges == ((0, 1, 2),)
    assert h.n == 3


def test_vertex_counts():
    for k in (2, 3, 4):
        for m in (1, 2, 4):
            assert hyperpath(k, m).n == m * (k - 1) + 1
            assert hyperstar(k, m).n == m * (k - 1) + 1
        for m in (3, 5):
            assert hypercycle(k, m).n == m * (k - 1)
            assert cycle_with_pendant_star(k, 3, m).n == m * (k - 1)
    assert cycle_with_tail(3, 3, 5).n == 10
    assert path_with_branch(3, 4).n == 9


def test_cycle_star_degrees():
    # one vertex of degree 2 + (m-g), g-1 joints of degree 2, rest degree 1
    h = cycle_with_pendant_star(3, 3, 4)
    degs = sorted(h.degrees(), reverse=True)
    assert h.n == 8
    assert degs == [3, 2, 2, 1, 1, 1, 1, 1]
    assert sum(degs) == 3 * 4


def test_branch_tree_shape():
    h = path_with_branch(3, 3)
    # at m=3 the branch construction degenerates to the path
    assert are_isomorphic(h, hyperpath(3, 3))
    h4 = path_with_branch(3, 4)
    assert sorted(h4.degrees(), reverse=True)[:3] == [2, 2, 2]
    assert not are_isomorphic(h4, hyperpath(3, 4))
    # every degree-1 choice on the second edge gives the same class
    base = hyperpath(3, 3)
    from alphatrace.families import add_pendant_edge

    choices = [v for v in base.edges[1] if base.degrees()[v] == 1]
    builds = [add_pendant_edge(base, v) for v in choices]
    assert all(are_isomorphic(builds[0], b) for b in builds)


def test_classification_of_families():
    assert classify(starlike(3, (2, 1, 1))).kind == HYPERTREE
    assert classify(diameter_star(3, 5, 4)).kind == HYPERTREE
    for g, m in ((3, 3), (3, 5), (4, 5)):
        c = classify(cycle_with_pendant_star(3, g, m))
        assert (c.kind, c.girth) == (LINEAR_UNICYCLIC, g)
        c = classify(cycle_with_tail(3, g, m))
        assert (c.kind, c.girth) == (LINEAR_UNICYCLIC, g)


def test_diameter_star_diameter():
    for m in (3, 4, 5):
        for d in range(2, m + 1):
            assert diameter(diameter_star(3, m, d)) == d


def test_triangle_split():
    h = triangle_with_pendant_counts(3, 1, 1, 0)
    assert classify(h).kind == LINEAR_UNICYCLIC
    assert sorted(h.degrees(), reverse=True)[:3] == [3, 3, 2]
    assert are_isomorphic(
        triangle_with_pendant_counts(3, 0, 1, 0), cycle_with_pendant_star(3, 3, 4)
    )


def test_girth_preserved_by_attachments():
    assert girth(cycle_with_pendant_star(3, 3, 5)) == 3
    assert girth(cycle_with_tail(3, 4, 6)) == 4


def test_parameter_errors():
    with pytest.raises(ParameterError):
        hypercycle(3, 2)
    with pytest.raises(ParameterError):
        cycle_with_pendant_star(3, 4, 3)  # g > m
    with pytest.raises(ParameterError):
        cycle_with_tail(2, 3, 4)  # k=2 has no degree-1 cycle vertex
    with pytest.raises(ParameterError):
        path_with_branch(2, 4)
    with pytest.raises(ParameterError):
        starlike(3, (0, 2))


def test_family_spec_dispatch():
    spec = parse_family_string("cg-odot-s:k=3,g=3,m=4")
    assert build_family(spec) == cycle_with_pendant_star(3, 3, 4)
    spec2 = parse_family_string("starlike:k=3,arms=2-1-1")
    assert build_family(spec2) == starlike(3, (2, 1, 1))
    with pytest.raises(ParameterError):
        FamilySpec("nonsense", 3, {})
    with pytest.raises(ParameterError):
        FamilySpec("hyperpath", 3, {})  # missing m
