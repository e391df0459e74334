from itertools import permutations, product

import pytest

from alphatrace import (
    TransformError,
    coalesce,
    enumerate_hypertrees,
    enumerate_linear_unicyclic,
    hyperpath,
    hyperstar,
    sigma_candidates,
    sigma_transform,
    starlike,
)
from alphatrace.canon import are_isomorphic
from alphatrace.transforms import (
    FIRST,
    SECOND,
    THIRD,
    PathSite,
    first_path_slide,
    path_slide,
    second_path_slide,
    third_path_slide,
)


def sq(h):
    return sum(x * x for x in h.degrees())


def attach_path(path, at):
    """Coalesce a fresh pendant edge at a path vertex; returns the new
    hypergraph plus the indices its path edges landed on."""
    h = coalesce(path, at, hyperpath(path.k, 1), 0)
    return h, [h.edges.index(e) for e in path.edges]


def test_sigma_increases_degree_squares():
    h = hyperpath(3, 3)
    # joints sit at vertices 2 and 4; move the pendant edge from 2 to 4
    out = sigma_transform(h, 2, 4)
    assert (out.k, out.n, out.m) == (h.k, h.n, h.m)
    assert sum(out.degrees()) == sum(h.degrees())
    assert sq(out) > sq(h)
    assert sorted(out.degrees(), reverse=True)[0] == 3


def test_sigma_star_center_rejected():
    # every candidate target sits inside a moved pendant edge
    with pytest.raises(TransformError, match="inside a moved pendant"):
        sigma_transform(hyperstar(3, 3), 0, 1)


def test_sigma_fixpoint_is_star():
    from alphatrace import enumerate_hypertrees

    for m in (3, 4):
        for start in enumerate_hypertrees(3, m):
            h = start
            while True:
                cands = sigma_candidates(h)
                if not cands:
                    break
                h = sigma_transform(h, *cands[0])
            assert are_isomorphic(h, hyperstar(3, m))


def test_sigma_errors():
    h = hyperpath(3, 3)
    with pytest.raises(TransformError):
        sigma_transform(h, 0, 2)  # no pendant edge at a leaf vertex
    with pytest.raises(TransformError):
        sigma_transform(h, 2, 2)


def test_first_slide_moves_to_cored_vertex():
    # path of 2 with an extra edge at the joint, slid off the joint
    h, pe = attach_path(hyperpath(3, 2), 2)
    out = first_path_slide(h, pe, 2)
    assert (out.n, out.m) == (h.n, h.m)
    assert sq(out) < sq(h)
    assert are_isomorphic(out, hyperpath(3, 3))


def test_first_slide_dispatcher():
    h, pe = attach_path(hyperpath(3, 2), 2)
    assert path_slide(h, FIRST, PathSite(tuple(pe), 2)) == first_path_slide(h, pe, 2)


def test_second_slide_preserves_degrees():
    # path of 3, attachment at the degree-1 vertex of its second edge
    h, pe = attach_path(hyperpath(3, 3), 3)
    out = second_path_slide(h, pe, 3)
    assert sorted(out.degrees()) == sorted(h.degrees())
    assert not are_isomorphic(out, h)
    assert are_isomorphic(out, hyperpath(3, 4))


def test_second_slide_index_range():
    # attachment on the first path edge (l = 1) is out of range
    h1, pe1 = attach_path(hyperpath(3, 3), 1)
    with pytest.raises(TransformError):
        second_path_slide(h1, pe1, 1)
    # on a 4-path, the third edge is out of range one way, in range reversed
    h2, pe2 = attach_path(hyperpath(3, 4), 5)
    with pytest.raises(TransformError):
        second_path_slide(h2, pe2, 5)
    assert second_path_slide(h2, pe2[::-1], 5).m == h2.m
    # the path must have length >= 3
    h3, pe3 = attach_path(hyperpath(3, 2), 3)
    with pytest.raises(TransformError):
        second_path_slide(h3, pe3, 3)


def test_third_slide_l1_star_to_path():
    # a hyperstar with 3 edges is a path of 2 plus an edge at the joint
    h = hyperstar(3, 3)
    out = third_path_slide(h, [0, 1], 0)
    assert are_isomorphic(out, hyperpath(3, 3))
    assert sq(h) - sq(out) == 2  # drops by 2 * d0 with d0 = 1


def test_third_slide_l2_preserves_degrees():
    # 4-path with a pendant edge at the middle joint u_2 (vertex 4)
    h, pe = attach_path(hyperpath(3, 4), 4)
    out = third_path_slide(h, pe, 4)
    assert sorted(out.degrees()) == sorted(h.degrees())
    assert are_isomorphic(out, starlike(3, (1, 3, 1)))


def test_third_slide_range():
    h, pe = attach_path(hyperpath(3, 4), 6)  # attach at u_3
    with pytest.raises(TransformError):
        third_path_slide(h, pe, 6)  # l = 3 > floor(4/2)
    assert third_path_slide(h, pe[::-1], 6).m == h.m  # l = 1 the other way


def test_invalid_path_decompositions():
    h, pe = attach_path(hyperpath(3, 3), 2)
    with pytest.raises(TransformError):
        first_path_slide(h, [pe[0], pe[2]], 2)  # edges do not touch
    with pytest.raises(TransformError):
        first_path_slide(h, list(range(h.m)), 2)  # nothing left attached
    with pytest.raises(TransformError):
        first_path_slide(h, pe, 0)  # not a joint


def test_sigma_rejects_vertices_outside_the_host():
    for h, u, v in [
        (hyperpath(3, 3), 2, 99),
        (hyperstar(3, 3), 0, -1),
        (hyperpath(3, 3), 99, 4),
        (hyperpath(3, 3), -1, 4),
    ]:
        with pytest.raises(TransformError, match="must lie in"):
            sigma_transform(h, u, v)


# slide, host, path edges, attach, the targets the slide allows
SITES = [
    # 2-path with an edge (2, 5, 6) at the joint: every degree-1 path vertex
    (first_path_slide, *attach_path(hyperpath(3, 2), 2), 2, [0, 1, 3, 4]),
    # 3-path with an edge (3, 7, 8) on edge 2: the degree-1 vertices of edge 1
    (second_path_slide, *attach_path(hyperpath(3, 3), 3), 3, [0, 1]),
    # 4-path with an edge (4, 9, 10) at u_2 = 4: u_1 = 2 alone (not the far
    # end 8, nor 9 of the attachment itself)
    (third_path_slide, *attach_path(hyperpath(3, 4), 4), 4, [2]),
    # 3-star as a 2-path with an edge at u_1 = 0: any u_0 of the first edge
    (third_path_slide, hyperstar(3, 3), [0, 1], 0, [1, 2]),
]


@pytest.mark.parametrize("slide, h, pe, attach, allowed", SITES)
def test_slides_take_exactly_their_allowed_targets(slide, h, pe, attach, allowed):
    assert slide(h, pe, attach) == slide(h, pe, attach, allowed[0])
    for t in [-1, *range(h.n + 1), 99]:
        if t in allowed:
            moved = [
                tuple(sorted({*e} - {attach} | {t})) if i not in pe and attach in e else e
                for i, e in enumerate(h.edges)
            ]
            assert slide(h, pe, attach, t).edges == tuple(sorted(moved))
        else:
            with pytest.raises(TransformError):
                slide(h, pe, attach, t)


def _joint_position(h, pe, attach):
    """l with attach the vertex shared by path edges l and l+1."""
    return next(i for i in range(1, len(pe)) if attach in {*h.edges[pe[i - 1]]} & {*h.edges[pe[i]]})


def test_degree_effects_at_every_site():
    """The module docstring's degree effects, at every site on the k = 3
    members with m <= 5, over paths of at most 4 edges."""
    seen = 0
    for m in range(1, 6):
        for h in enumerate_hypertrees(3, m) + enumerate_linear_unicyclic(3, m):
            for u, v in sigma_candidates(h):
                assert sq(sigma_transform(h, u, v)) > sq(h)
                seen += 1
            paths = [pe for r in range(1, 5) for pe in permutations(range(h.m), r)]
            for pe, attach, which in product(paths, range(h.n), (FIRST, SECOND, THIRD)):
                try:
                    out = path_slide(h, which, PathSite(pe, attach))
                except TransformError:
                    continue
                seen += 1
                if which == FIRST:
                    assert sq(out) < sq(h)
                elif which == SECOND or _joint_position(h, pe, attach) >= 2:
                    assert sorted(out.degrees()) == sorted(h.degrees())
                else:
                    s = sum(attach in e for i, e in enumerate(h.edges) if i not in pe)
                    assert sq(h) - sq(out) == 2 * s
    assert seen == 239
