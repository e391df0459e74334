"""Univariate polynomials in the weight alpha, over exact rationals.

Coefficients are stored lowest power first with trailing zeros trimmed,
as `int` when integral and as `fractions.Fraction` otherwise; a float
raises `TypeError`.  Every moment is an integer polynomial, so ranking
reads the integer q^D * P(p/q) (``scaled_value``) at alpha = p/q, and
Sturm chains are primitive integer pseudo-remainder sequences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence


def _exact(c):
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"AlphaPoly coefficients must be int or Fraction, not {type(c).__name__}")
    return c.numerator if c.denominator == 1 else c


def _trim(coeffs: Iterable[int | Fraction]) -> tuple[int | Fraction, ...]:
    out = [c if type(c) is int else _exact(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class AlphaPoly:
    """Polynomial in alpha with int or Fraction coefficients, index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("AlphaPoly is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "AlphaPoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "AlphaPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "AlphaPoly":
        return cls((0,) * power + (coeff,))

    # -- basic properties ---------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, AlphaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == AlphaPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "AlphaPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return AlphaPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "AlphaPoly":
        return AlphaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "AlphaPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "AlphaPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "AlphaPoly":
        if isinstance(other, (int, Fraction)):
            return AlphaPoly(tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return AlphaPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return AlphaPoly(out)

    __rmul__ = __mul__

    def scaled_value(self, p: int, q: int, D: int | None = None) -> int:
        """q^D * P(p/q) for q > 0 and D >= degree (default: the degree), by
        Horner's rule on the sum of c_i p^i q^(D-i): an integer when the
        coefficients are, with the sign of P(p/q)."""
        n = len(self.coeffs) - 1
        if D is not None and D < n:
            raise ValueError(f"scale q^{D} is below the degree {n}")
        acc, qpow = 0, 1
        for c in reversed(self.coeffs):
            acc, qpow = acc * p + c * qpow, qpow * q
        return acc if D is None else acc * q ** (D - n)

    def evaluate(self, x: Fraction | int) -> Fraction:
        """P(x) for a rational x, by ``scaled_value``."""
        D = max(self.degree, 0)
        return Fraction(self.scaled_value(x.numerator, x.denominator, D), x.denominator**D)

    def derivative(self) -> "AlphaPoly":
        return AlphaPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def divmod(self, other: "AlphaPoly") -> tuple["AlphaPoly", "AlphaPoly"]:
        """Exact polynomial division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, d, lead = list(self.coeffs), other.degree, other.coeffs[-1]
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            q = quot[i - d] = Fraction(rem[i]) / lead
            for j, oc in enumerate(other.coeffs, i - d):
                rem[j] -= q * oc
        return AlphaPoly(quot), AlphaPoly(rem)

    # -- serialization / display ----------------------------------------
    def to_json(self) -> list[list[str]]:
        """Coefficients as [numerator, denominator] string pairs, low power first."""
        return [[str(c.numerator), str(c.denominator)] for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "AlphaPoly":
        return cls(tuple(Fraction(int(n), int(d)) for n, d in data))

    def pretty(self, var: str = "a") -> str:
        powers = ["", f"*{var}"] + [f"*{var}^{i}" for i in range(2, len(self.coeffs))]
        parts = [f"{c}{x}" for c, x in zip(self.coeffs, powers) if c]
        return " + ".join(parts).replace("+ -", "- ") or "0"

    def __repr__(self) -> str:
        return f"AlphaPoly({self.pretty()})"


def _coerce(x) -> AlphaPoly:
    if isinstance(x, AlphaPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return AlphaPoly.constant(x)
    raise TypeError(f"cannot coerce {type(x)!r} to AlphaPoly")


@lru_cache(maxsize=4096)
def basis_term(t: int, h: int) -> AlphaPoly:
    """The expanded polynomial alpha^t * (1-alpha)^h."""
    return AlphaPoly([0] * t + [(-1) ** j * math.comb(h, j) for j in range(h + 1)])


# ---------------------------------------------------------------------------
# Sign analysis on the open interval (0, 1), used by the symbolic comparator.
# ---------------------------------------------------------------------------

def _primitive(p: AlphaPoly) -> AlphaPoly:
    """The primitive integer polynomial that is a positive multiple of p."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*ints) or 1
    return AlphaPoly([c // g for c in ints])


def _pseudo_remainder(a: AlphaPoly, b: AlphaPoly) -> AlphaPoly:
    """The remainder of |lc(b)|^(deg a - deg b + 1) * a by b, in integers."""
    rem, d, lead = list(a.coeffs), b.degree, b.coeffs[-1]
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] if lead > 0 else -rem[i]
        rem = [x * abs(lead) for x in rem]
        for j, bc in enumerate(b.coeffs, i - d):
            rem[j] -= c * bc
    return AlphaPoly(rem[:d])


def _gcd(a: AlphaPoly, b: AlphaPoly) -> AlphaPoly:
    """A greatest common divisor of a and b (a nonzero), primitive."""
    while not b.is_zero():
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return _primitive(a)


def _odd_part(p: AlphaPoly) -> AlphaPoly:
    """The product of p's square-free factors of odd multiplicity, by Yun's
    algorithm: p changes sign exactly at the real roots of this product.
    b and c are always divided by the same polynomial, so c - b' stays
    exact whatever scalar multiple each gcd comes out as."""
    b, c = p, p.derivative()
    g = _gcd(b, c)
    b, c = b.divmod(g)[0], c.divmod(g)[0]
    out, multiplicity = AlphaPoly.constant(1), 1
    while b.degree > 0:
        c = c - b.derivative()
        a = _gcd(b, c)  # the factor of roots with exactly this multiplicity
        if multiplicity % 2:
            out = out * a
        b, c = b.divmod(a)[0], c.divmod(a)[0]
        multiplicity += 1
    return out


def _sturm_chain(p: AlphaPoly) -> list[AlphaPoly]:
    """p, p', then negated primitive pseudo-remainders: each member is a
    positive multiple of the classical Sturm chain's, so every count of
    sign variations is the same."""
    chain = [_primitive(p), _primitive(p.derivative())]
    while not chain[-1].is_zero():
        chain.append(_primitive(-_pseudo_remainder(chain[-2], chain[-1])))
    chain.pop()
    return chain


def _sign_variations(chain: Sequence[AlphaPoly], x: Fraction | int) -> int:
    values = (q.scaled_value(x.numerator, x.denominator) for q in chain)
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def strip_unit_interval_factors(p: AlphaPoly) -> tuple[AlphaPoly, int, int]:
    """Factor p = alpha^a * (1-alpha)^b * q with q nonzero at 0 and 1.

    Returns (q, a, b).  Requires p nonzero.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    a = next(i for i, c in enumerate(p.coeffs) if c)
    coeffs, b = p.coeffs[a:], 0
    while sum(coeffs) == 0:
        # synthetic division by the root 1: the quotient by (alpha - 1) holds
        # the suffix sums of coeffs[1:]; negated, the quotient by (1 - alpha)
        coeffs = [-s for s in accumulate(reversed(coeffs[1:]))][::-1]
        b += 1
    return AlphaPoly(coeffs), a, b


def count_roots_open_unit(p: AlphaPoly) -> int:
    """Number of distinct real roots of p in the open interval (0, 1)."""
    q, _, _ = strip_unit_interval_factors(p)
    if q.degree < 1:
        return 0
    chain = _sturm_chain(q)
    return _sign_variations(chain, 0) - _sign_variations(chain, 1)


def isolate_roots_open_unit(p: AlphaPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, one per distinct root of p in (0, 1).

    A root hit exactly by bisection is returned as the degenerate
    interval (r, r); every other interval (lo, hi) holds exactly one root
    in its interior, and its endpoints may be such exact roots.
    """
    q, _, _ = strip_unit_interval_factors(p)
    if q.degree < 1:
        return []
    # isolate on q / gcd(q, q'): a multiple root would zero every chain member
    q = q.divmod(_gcd(q, q.derivative()))[0]
    chain = _sturm_chain(q)

    def count(lo: Fraction, hi: Fraction) -> int:
        # distinct roots in (lo, hi]; exact at root endpoints since q is squarefree
        return _sign_variations(chain, lo) - _sign_variations(chain, hi)

    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: Fraction, hi: Fraction, n: int):
        # n roots lie in the open interval (lo, hi)
        if n <= 1:
            out.extend([(lo, hi)] * n)
            return
        mid = (lo + hi) / 2
        at_mid = q.scaled_value(mid.numerator, mid.denominator) == 0
        if at_mid:
            out.append((mid, mid))
        left = count(lo, mid) - at_mid
        rec(lo, mid, left)
        rec(mid, hi, n - left - at_mid)

    total = count(Fraction(0), Fraction(1))
    rec(Fraction(0), Fraction(1), total)
    assert len(out) == total, (p, out)
    out.sort()
    return out


def sign_on_open_unit(p: AlphaPoly) -> tuple[str, list[tuple[Fraction, Fraction]]]:
    """Decide the sign of p on all of (0, 1) exactly.

    Returns ("positive", []) or ("negative", []) when the sign is constant
    and strict; ("nonnegative", touch points) or ("nonpositive", touch
    points) when every interior root has even multiplicity, so p only
    touches zero there; else ("mixed", witness intervals isolating all the
    interior roots).  Points come as ``isolate_roots_open_unit`` gives them.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no sign")
    if count_roots_open_unit(p) == 0:
        return ("positive" if p.scaled_value(1, 2) > 0 else "negative"), []
    if count_roots_open_unit(_odd_part(p)):
        return "mixed", isolate_roots_open_unit(p)
    # p has at most deg p roots, so one of 1/2, 1/3, ... misses them all
    value = next(v for v in (p.scaled_value(1, j) for j in range(2, p.degree + 3)) if v)
    return ("nonnegative" if value > 0 else "nonpositive"), isolate_roots_open_unit(p)
