"""Univariate polynomials in the weight alpha, over exact rationals.

Coefficients are `fractions.Fraction`, stored lowest power first with
trailing zeros trimmed.  Every trace computed by this package is one of
these polynomials; no floating point enters any trace path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(Fraction(c) for c in coeffs[:n])


class AlphaPoly:
    """Polynomial in alpha with Fraction coefficients, index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("AlphaPoly is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "AlphaPoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "AlphaPoly":
        return cls((Fraction(c),))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "AlphaPoly":
        return cls((_ZERO,) * power + (Fraction(coeff),))

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
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return AlphaPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "AlphaPoly":
        if n < 0:
            raise ValueError("negative power")
        result = AlphaPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x: Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "AlphaPoly":
        return AlphaPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def divmod(self, other: "AlphaPoly") -> tuple["AlphaPoly", "AlphaPoly"]:
        """Exact polynomial division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        quot = [_ZERO] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - d] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= q * oc
        return AlphaPoly(quot), AlphaPoly(rem)

    # -- serialization / display ----------------------------------------
    def to_json(self) -> list[list[str]]:
        """Coefficients as [numerator, denominator] string pairs, low power first."""
        return [[str(c.numerator), str(c.denominator)] for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "AlphaPoly":
        return cls(tuple(Fraction(int(n), int(d)) for n, d in data))

    def pretty(self, var: str = "a") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{i}")
        return " + ".join(parts).replace("+ -", "- ")

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
    coeffs = [_ZERO] * t + [
        Fraction((-1) ** j * math.comb(h, j)) for j in range(h + 1)
    ]
    return AlphaPoly(coeffs)


# ---------------------------------------------------------------------------
# Sign analysis on the open interval (0, 1), used by the symbolic comparator.
# ---------------------------------------------------------------------------

def _sturm_chain(p: AlphaPoly) -> list[AlphaPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        _, rem = chain[-2].divmod(chain[-1])
        chain.append(-rem)
    chain.pop()
    return chain


def _sign_variations(chain: Sequence[AlphaPoly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q.evaluate(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def strip_unit_interval_factors(p: AlphaPoly) -> tuple[AlphaPoly, int, int]:
    """Factor p = alpha^a * (1-alpha)^b * q with q nonzero at 0 and 1.

    Returns (q, a, b).  Requires p nonzero.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    coeffs = list(p.coeffs)
    a = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        a += 1
    q = AlphaPoly(coeffs)
    b = 0
    one_minus = AlphaPoly((1, -1))
    while q.evaluate(_ONE) == 0:
        q, rem = q.divmod(one_minus)
        assert rem.is_zero()
        b += 1
    return q, a, b


def count_roots_open_unit(p: AlphaPoly) -> int:
    """Number of distinct real roots of p in the open interval (0, 1)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    q, _, _ = strip_unit_interval_factors(p)
    if q.degree < 1:
        return 0
    chain = _sturm_chain(q)
    return _sign_variations(chain, Fraction(0)) - _sign_variations(chain, _ONE)


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
    q = q.divmod(_sturm_chain(q)[-1])[0]
    chain = _sturm_chain(q)

    def count(lo: Fraction, hi: Fraction) -> int:
        # distinct roots in (lo, hi]; exact at root endpoints since q is squarefree
        return _sign_variations(chain, lo) - _sign_variations(chain, hi)

    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: Fraction, hi: Fraction, n: int):
        # n roots lie in the open interval (lo, hi)
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        at_mid = q.evaluate(mid) == 0
        if at_mid:
            out.append((mid, mid))
        left = count(lo, mid) - at_mid
        rec(lo, mid, left)
        rec(mid, hi, n - left - at_mid)

    total = count(Fraction(0), _ONE)
    rec(Fraction(0), _ONE, total)
    assert len(out) == total, (p, out)
    out.sort()
    return out


def sign_on_open_unit(p: AlphaPoly) -> tuple[str, list[tuple[Fraction, Fraction]]]:
    """Decide the sign of p on all of (0, 1) exactly.

    Returns ("positive", []) or ("negative", []) when the sign is constant
    and strict, else ("mixed", witness intervals isolating the interior
    roots).
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no sign")
    if count_roots_open_unit(p) == 0:
        value = p.evaluate(Fraction(1, 2))
        return ("positive" if value > 0 else "negative"), []
    return "mixed", isolate_roots_open_unit(p)
