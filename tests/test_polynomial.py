import random
from decimal import Decimal
from fractions import Fraction

import pytest

from alphatrace.polynomial import (
    AlphaPoly,
    _sturm_chain,
    basis_term,
    count_roots_open_unit,
    isolate_roots_open_unit,
    sign_on_open_unit,
    strip_unit_interval_factors,
)
from reference import sturm_chain_reference, sturm_root_count_reference


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
    assert q * q * q == AlphaPoly.monomial(3)


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


def _root_products():
    """Products of rational linear factors with multiplicities 1..3, roots at
    0, 1, outside [0, 1] and at dyadic midpoints, as (multiplicity by root,
    polynomial)."""
    pool = [Fraction(x) for x in ("0", "1", "1/2", "1/4", "3/4", "1/8", "5/8", "1/3",
                                  "2/3", "2/5", "7/9", "3/2", "-1/2", "5/16")]
    rng = random.Random(2)
    for _ in range(150):
        roots = {r: rng.randint(1, 3) for r in rng.sample(pool, rng.randint(1, 5))}
        p = _from_roots(*(r for r, mult in roots.items() for _ in range(mult)))
        yield roots, p * rng.choice([1, -2, Fraction(3, 5)])


def test_isolation_of_multiple_and_dyadic_roots():
    # each interior root must be the one root of exactly one interval
    for chosen, p in _root_products():
        inner = sorted(r for r in chosen if 0 < r < 1)
        intervals = isolate_roots_open_unit(p)
        assert len(intervals) == len(inner) == count_roots_open_unit(p), chosen
        for (lo, hi), r in zip(intervals, inner):
            assert lo == hi == r or lo < r < hi, (chosen, intervals)
            assert lo == hi or not any(lo < s < hi for s in inner if s != r)


def test_sign_changes_iff_an_interior_root_has_odd_multiplicity():
    half = AlphaPoly((Fraction(-1, 2), 1))
    assert sign_on_open_unit(half * half) == ("nonnegative", [(0, 1)])
    assert sign_on_open_unit(half * half * half) == ("mixed", [(0, 1)])
    assert sign_on_open_unit(half * half * -3) == ("nonpositive", [(0, 1)])
    seen = set()
    for roots, p in _root_products():
        inner = sorted(r for r in roots if 0 < r < 1)
        crossing = any(roots[r] % 2 for r in inner)
        sign, witnesses = sign_on_open_unit(p)
        seen.add(sign)
        # 1/1000 is no root, and below every interior root of the pool
        off_root = p.evaluate(Fraction(1, 1000))
        if crossing:
            assert sign == "mixed", roots
        elif inner:
            assert sign == ("nonnegative" if off_root > 0 else "nonpositive"), roots
        else:
            assert (sign, witnesses) == ("positive" if off_root > 0 else "negative", []), roots
        if inner:
            assert witnesses == isolate_roots_open_unit(p), roots
    assert seen == {"positive", "negative", "nonnegative", "nonpositive", "mixed"}


def test_sign_ignores_endpoint_roots():
    # alpha (1-alpha) * (1 + alpha): no interior roots, positive inside
    p = basis_term(1, 1) * AlphaPoly((1, 1))
    assert sign_on_open_unit(p) == ("positive", [])


def test_integer_sturm_chain_matches_fraction_reference():
    # each member of the primitive integer chain is a positive multiple of
    # the classical Fraction chain's, so the root counts agree.  Some random
    # integer polynomials, like the two listed, have remainder sequences that
    # skip a degree, where a negative pseudo-remainder multiplier would flip
    # a member's sign.
    rng = random.Random(5)
    cases = [p for _, p in _root_products()]
    cases += [AlphaPoly([rng.randint(-9, 9) for _ in range(rng.randint(3, 7))]) for _ in range(1500)]
    cases += [AlphaPoly((-5, 7, 1, -4, 6)), AlphaPoly((-3, -1, 8, 0, 0, 5))]
    for p in filter(None, cases):
        assert count_roots_open_unit(p) == sturm_root_count_reference(p), p
        q, _, _ = strip_unit_interval_factors(p)
        if q.degree < 1:
            continue
        chain, ref = _sturm_chain(q), sturm_chain_reference(q.coeffs)
        assert len(chain) == len(ref), p
        for got, want in zip(chain, ref):
            assert all(type(c) is int for c in got.coeffs)
            ratio = got.coeffs[-1] / want[-1]
            assert ratio > 0 and got == AlphaPoly([c * ratio for c in want]), p


def test_scaled_value_is_homogenized_horner():
    rng = random.Random(11)
    for _ in range(300):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 9))]
        if rng.random() < 0.4:
            coeffs = [Fraction(c, rng.randint(1, 12)) for c in coeffs]
        p = AlphaPoly(coeffs)
        num, den = rng.randint(-20, 20), rng.randint(1, 20)
        x = Fraction(num, den)
        D = max(p.degree, 0) + rng.randint(0, 3)
        literal = sum(Fraction(c) * x**i for i, c in enumerate(p.coeffs))
        assert p.scaled_value(num, den, D) == den**D * p.evaluate(x) == den**D * literal
        assert p.evaluate(x) == literal and type(p.evaluate(x)) is Fraction
        if all(type(c) is int for c in p.coeffs):
            assert type(p.scaled_value(num, den, D)) is int
    with pytest.raises(ValueError):
        AlphaPoly((1, 2, 3)).scaled_value(1, 2, 1)


def test_integral_coefficients_are_ints_and_floats_are_rejected():
    p = AlphaPoly((Fraction(4, 2), Fraction(1, 3), Fraction(-6, 3)))
    assert [type(c) for c in p.coeffs] == [int, Fraction, int]
    assert AlphaPoly.from_json([["3", "1"], ["1", "2"]]).coeffs == (3, Fraction(1, 2))
    for bad in (0.1, 1.0, 0.0, Decimal("0.5"), complex(1, 0), "1", None):
        with pytest.raises(TypeError):
            AlphaPoly((1, bad))
    with pytest.raises(TypeError):
        AlphaPoly.constant(0.5)
    with pytest.raises(TypeError):
        AlphaPoly((1, 2)) * 0.5


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        sign_on_open_unit(AlphaPoly.zero())
