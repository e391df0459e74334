import random
from fractions import Fraction

import pytest

from alphatrace.polynomial import (
    AlphaPoly,
    basis_term,
    count_roots_open_unit,
    isolate_roots_open_unit,
    sign_on_open_unit,
    strip_unit_interval_factors,
)


def test_trim_and_equality():
    assert AlphaPoly((1, 2, 0, 0)) == AlphaPoly((1, 2))
    assert AlphaPoly(()) == AlphaPoly.zero() == 0
    assert AlphaPoly((5,)) == 5


def test_arithmetic_roundtrip():
    p = AlphaPoly((1, -3, 2))
    q = AlphaPoly((0, 1))
    assert (p + q) - q == p
    assert p * q == AlphaPoly((0, 1, -3, 2))
    assert (p * q).evaluate(Fraction(1, 2)) == p.evaluate(Fraction(1, 2)) / 2
    assert q**3 == AlphaPoly.monomial(3)


def test_divmod_reconstructs():
    p = AlphaPoly((2, 0, -1, 4))
    q = AlphaPoly((1, 1))
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


def test_basis_term_expansion():
    # alpha^1 (1-alpha)^2 = a - 2a^2 + a^3
    assert basis_term(1, 2) == AlphaPoly((0, 1, -2, 1))
    assert basis_term(0, 0) == 1


def test_json_roundtrip():
    p = AlphaPoly((Fraction(9, 4), Fraction(-27), Fraction(1, 3)))
    assert AlphaPoly.from_json(p.to_json()) == p


def test_strip_factors():
    p = basis_term(2, 3) * AlphaPoly((1, 1))
    q, a, b = strip_unit_interval_factors(p)
    assert (a, b) == (2, 3)
    assert q == AlphaPoly((1, 1))


def test_root_counting_and_signs():
    # (a - 1/2) has one root in (0,1)
    p = AlphaPoly((Fraction(-1, 2), 1))
    assert count_roots_open_unit(p) == 1
    sign, wit = sign_on_open_unit(p)
    assert sign == "mixed"
    assert any(lo <= Fraction(1, 2) <= hi for lo, hi in wit)

    # alpha^2 (strictly positive inside the interval)
    assert sign_on_open_unit(AlphaPoly.monomial(2)) == ("positive", [])
    assert sign_on_open_unit(AlphaPoly.monomial(2) * -3) == ("negative", [])

    # (a-1/3)(a-2/3): two roots isolated disjointly
    p2 = AlphaPoly((Fraction(2, 9), -1, 1))
    roots = isolate_roots_open_unit(p2)
    assert len(roots) == 2
    (l1, r1), (l2, r2) = roots
    assert l1 <= Fraction(1, 3) <= r1 and l2 <= Fraction(2, 3) <= r2
    assert r1 <= l2


def _from_roots(*roots):
    p = AlphaPoly((1,))
    for r in roots:
        p = p * AlphaPoly((-r, 1))
    return p


def test_isolation_keeps_roots_beside_a_midpoint_root():
    third, half = Fraction(1, 3), Fraction(1, 2)
    p = _from_roots(third, half, 2 * third)
    assert count_roots_open_unit(p) == 3
    roots = isolate_roots_open_unit(p)
    assert roots == [(0, half), (half, half), (half, 1)]


def test_isolation_of_multiple_and_dyadic_roots():
    # products of rational linear factors with multiplicities 1..3, roots at
    # 0, 1, outside [0, 1] and at dyadic midpoints; each interior root must
    # be the one root of exactly one interval
    pool = [Fraction(x) for x in ("0", "1", "1/2", "1/4", "3/4", "1/8", "5/8", "1/3",
                                  "2/3", "2/5", "7/9", "3/2", "-1/2", "5/16")]
    rng = random.Random(2)
    for _ in range(150):
        chosen = rng.sample(pool, rng.randint(1, 5))
        p = _from_roots(*(r for r in chosen for _ in range(rng.randint(1, 3))))
        p = p * rng.choice([1, -2, Fraction(3, 5)])
        inner = sorted(r for r in chosen if 0 < r < 1)
        intervals = isolate_roots_open_unit(p)
        assert len(intervals) == len(inner) == count_roots_open_unit(p), chosen
        for (lo, hi), r in zip(intervals, inner):
            assert lo == hi == r or lo < r < hi, (chosen, intervals)
            assert lo == hi or not any(lo < s < hi for s in inner if s != r)


def test_sign_ignores_endpoint_roots():
    # alpha (1-alpha) * (1 + alpha): no interior roots, positive inside
    p = basis_term(1, 1) * AlphaPoly((1, 1))
    assert sign_on_open_unit(p) == ("positive", [])


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        sign_on_open_unit(AlphaPoly.zero())
