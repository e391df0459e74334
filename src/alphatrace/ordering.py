"""Lexicographic spectral-moment order at exact rational weights.

Hypergraphs with the same k and vertex count are compared by walking
the moment sequence Tr_0, Tr_1, ... until the first strict difference.
At one exact rational alpha = p/q in (0, 1) that walk is one refinement
loop, ``_refine``: it buckets members on the integers q^d Tr_d(p/q)
(every order-d moment has degree <= d), one order at a time, until no
group is tied.
``compare_at_alpha`` refines a pair, ``sort_family`` keeps the last
refinement of a family, ties as explicit groups, and a moment row
buckets its family once, at the row's order.  ``verify_theorem`` walks
one refinement per family for a position claim, extended in place past
the starting order budget while a tie blocks the claimed position, and
splits only the end groups that the position reads.
``compare_symbolic`` decides the sign of the first differing moment
polynomial on all of (0, 1) by exact root isolation.  Neither walk reads
orders 0 and 1 where they cannot differ (``_first_read_order``).

The catalog is data.  A position claim (5.x, 6.x) names a family, a
position in its ranking and the builder of the hypergraph said to hold
it.  A moment claim is rows over position claims, each read at one
order: 7.1 is order 2 over 5.2, 5.3 and 5.1; 7.2 is order k+2 over 5.6
and 5.5; 7.3 is order 2 over 6.4 and 6.6, then order k+2 over 6.2 and
6.3.  A row takes its family, builder, variants and k/m guard from the
position claim it names, and its side and rank from that position.

Each family is read from ``enumerate_family``, which grows it once per
process and returns it sorted by canonical key; a designated member is
found in that list by its key.  Canonical keys and moment polynomials
are memoized per process by hypergraph value (and, for moments, the
order) in bounded LRU caches inside ``canon`` and the trace engine, so
the orderings here are exact, cheap to repeat at several weights, and
thread-safe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .canon import canonical_form
from .enumeration import FamilyFilter, enumerate_family
from .errors import OrderingError, ParameterError
from .families import (
    cycle_with_pendant_star,
    cycle_with_tail,
    diameter_star,
    hypercycle,
    hyperpath,
    hyperstar,
    path_with_branch,
    starlike,
    triangle_with_pendant_counts,
)
from .hypergraph import HYPERTREE, LINEAR_UNICYCLIC, Hypergraph
from .polynomial import sign_on_open_unit
from .trace import trace

LESS = "less"
GREATER = "greater"
EQUAL_UP_TO = "equal-up-to"

LESS_ON_UNIT = "less-on-(0,1)"
GREATER_ON_UNIT = "greater-on-(0,1)"
SIGN_CHANGES = "sign-changes"
# the first difference only touches zero, at the witnesses
LESS_OR_EQUAL_ON_UNIT = "less-or-equal-on-(0,1)"
GREATER_OR_EQUAL_ON_UNIT = "greater-or-equal-on-(0,1)"


@dataclass(frozen=True, slots=True)
class OrderVerdict:
    relation: str
    first_diff_order: int | None
    d_max: int

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "first_diff_order": self.first_diff_order,
            "d_max": self.d_max,
        }


@dataclass(frozen=True, slots=True)
class SymbolicVerdict:
    relation: str
    first_diff_order: int | None
    d_max: int
    witnesses: tuple[tuple[Fraction, Fraction], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "first_diff_order": self.first_diff_order,
            "d_max": self.d_max,
            "witnesses": [[str(a), str(b)] for a, b in self.witnesses],
        }


def _validate_pair(h1: Hypergraph, h2: Hypergraph):
    if h1.k != h2.k:
        raise OrderingError(f"rank mismatch: k={h1.k} vs k={h2.k}")
    if h1.n != h2.n:
        raise OrderingError(
            f"vertex count mismatch: n={h1.n} vs n={h2.n}; "
            "the (k-1)^(n-1) scaling makes the comparison meaningless"
        )


def _validate_alpha(alpha: Fraction):
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise OrderingError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _default_d_max(k: int) -> int:
    return 2 * k + 2


def _validate_d_max(d_max: int):
    if d_max < 0:
        raise OrderingError(f"order bound d_max must be >= 0, got {d_max}")


def _first_read_order(members: Iterable[Hypergraph]) -> int:
    """2 when all ``members`` share (k, n, m), whose Tr_0 = n(k-1)^(n-1) and
    Tr_1 = alpha(k-1)^(n-1)km are then the same for each; else 0."""
    return 2 if len({(h.k, h.n, h.m) for h in members}) == 1 else 0


def _refine(
    members: Sequence[Hypergraph], alpha: Fraction, orders: Iterable[int], side: tuple[bool, int] | None = None
):
    """Yield ``(d, groups)`` after each order d of ``orders``: ``groups``
    lists member indices in ascending order of the integers q^d Tr_d(p/q)
    read so far, lexicographically, tied members in input order.  Stops
    once no group is tied.

    With ``side = (ascending, rank)`` only the first rank + 1 groups from
    that end are split, which are the full refinement's own since a group
    splits in place; every other member joins one rest group at the far
    end, in input order, which no later order reads.  Orders below
    ``_first_read_order`` are not read."""
    p, q = alpha.numerator, alpha.denominator
    ascending, keep = (side[0], side[1] + 1) if side else (True, len(members))
    start = _first_read_order(members)
    groups = [tuple(range(len(members)))]  # from the read end; past ``keep``, the rest
    for d in orders:
        if d >= start:
            refined: list[tuple[int, ...]] = []
            for g in groups[:keep]:
                if len(g) == 1:
                    refined.append(g)
                    continue
                buckets: dict[int, list[int]] = {}
                for i in g:
                    buckets.setdefault(trace(members[i], d).scaled_value(p, q, d), []).append(i)
                refined.extend(tuple(buckets[value]) for value in sorted(buckets, reverse=not ascending))
            rest = tuple(sorted(i for g in refined[keep:] + groups[keep:] for i in g))
            groups = refined[:keep] + ([rest] if rest else [])
        yield d, groups if ascending else groups[::-1]
        if all(len(g) == 1 for g in groups):
            return


def compare_at_alpha(h1: Hypergraph, h2: Hypergraph, alpha: Fraction, d_max: int) -> OrderVerdict:
    """Walk the moments at one exact weight until the first strict difference."""
    _validate_pair(h1, h2)
    _validate_d_max(d_max)
    alpha = _validate_alpha(alpha)
    for d, groups in _refine((h1, h2), alpha, range(d_max + 1)):
        if len(groups) == 2:
            return OrderVerdict(LESS if groups[0] == (0,) else GREATER, d, d_max)
    return OrderVerdict(EQUAL_UP_TO, None, d_max)


_SIGN_RELATIONS = {
    "negative": LESS_ON_UNIT,
    "positive": GREATER_ON_UNIT,
    "nonpositive": LESS_OR_EQUAL_ON_UNIT,
    "nonnegative": GREATER_OR_EQUAL_ON_UNIT,
    "mixed": SIGN_CHANGES,
}


def compare_symbolic(h1: Hypergraph, h2: Hypergraph, d_max: int) -> SymbolicVerdict:
    """Decide the sign of the first differing moment on all of (0, 1).

    A difference that only touches zero gives a less- or greater-or-equal
    relation whose witnesses isolate the touch points; one that changes
    sign gives ``sign-changes``, witnesses isolating all interior roots."""
    _validate_pair(h1, h2)
    _validate_d_max(d_max)
    for d in range(_first_read_order((h1, h2)), d_max + 1):
        diff = trace(h1, d) - trace(h2, d)
        if diff.is_zero():
            continue
        sign, witnesses = sign_on_open_unit(diff)
        return SymbolicVerdict(_SIGN_RELATIONS[sign], d, d_max, tuple(witnesses))
    return SymbolicVerdict(EQUAL_UP_TO, None, d_max)


@dataclass(frozen=True, slots=True)
class RankedFamily:
    """A family ranked at one weight: ``groups`` lists member indices in
    ascending moment order; members inside one group are tied through
    every order up to d_used."""

    family: tuple[Hypergraph, ...]
    alpha: Fraction
    d_used: int
    groups: tuple[tuple[int, ...], ...]

    def verdict(self, i: int, j: int) -> OrderVerdict:
        return compare_at_alpha(self.family[i], self.family[j], self.alpha, self.d_used)


def sort_family(
    family: Sequence[Hypergraph], alpha: Fraction, d_max: int
) -> RankedFamily:
    """Total preorder of a same-(k, n) family at an exact weight; ties are
    reported as groups, never silently broken.  Members of one group
    keep their input order."""
    _validate_d_max(d_max)
    alpha = _validate_alpha(alpha)
    members = tuple(family)
    if not members:
        return RankedFamily((), alpha, 0, ())
    for h in members[1:]:
        _validate_pair(members[0], h)
    for d_used, groups in _refine(members, alpha, range(d_max + 1)):
        pass
    return RankedFamily(members, alpha, d_used, tuple(groups))


# ---------------------------------------------------------------------------
# Claim catalog and verification harness
# ---------------------------------------------------------------------------

FIRST = "first"
SECOND = "second"
LAST = "last"
SECOND_LAST = "second-last"

HOLDS = "holds"
VIOLATED = "violated"
DEGENERATE = "degenerate"
UNDECIDED = "undecided"


@dataclass(frozen=True, slots=True)
class CheckResult:
    label: str
    status: str
    detail: str
    evidence: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class VerificationReport:
    claim_id: str
    description: str
    k: int
    m: int
    alpha: Fraction
    d_used: int
    checks: tuple[CheckResult, ...]

    @property
    def holds(self) -> bool:
        return bool(self.checks) and all(c.status == HOLDS for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "description": self.description,
            "k": self.k,
            "m": self.m,
            "alpha": str(self.alpha),
            "d_used": self.d_used,
            "holds": self.holds,
            "checks": [
                {
                    "label": c.label,
                    "status": c.status,
                    "detail": c.detail,
                    "evidence": c.evidence,
                }
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        head = f"[{'PASS' if self.holds else 'FAIL'}] claim {self.claim_id}: {self.description} (k={self.k}, m={self.m}, alpha={self.alpha})"
        lines = [head]
        for c in self.checks:
            lines.append(f"  - {c.status:10s} {c.label}: {c.detail}")
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class Claim:
    """A position claim: ``build(k, m[, variant])`` holds ``position`` in
    the ranked ``family``, per girth or diameter when ``variants`` is set.
    A moment claim: ``moments`` rows ``(c, position claim id)``, each read
    at order c*k + 2; a row whose position claim needs a larger k or m is
    skipped."""

    claim_id: str
    description: str
    family: str | None = None
    position: str | None = None
    build: Callable | None = None
    k_min: int = 2
    m_min: int = 3
    variants: str | None = None  # None | "girth" | "diameter"
    moments: tuple[tuple[int, str], ...] = ()


CLAIMS: dict[str, Claim] = {
    c.claim_id: c
    for c in [
        Claim(
            "5.1",
            "per girth g, the last linear unicyclic hypergraph is the cycle with all pendant edges at one joint",
            LINEAR_UNICYCLIC,
            LAST,
            lambda k, m, g: cycle_with_pendant_star(k, g, m),
            variants="girth",
        ),
        Claim(
            "5.2",
            "the last linear unicyclic hypergraph is the girth-3 cycle with all pendant edges at one joint",
            LINEAR_UNICYCLIC,
            LAST,
            lambda k, m: cycle_with_pendant_star(k, 3, m),
        ),
        Claim(
            "5.3",
            "the second-last linear unicyclic hypergraph is the girth-3 cycle with pendant counts (m-4, 1, 0)",
            LINEAR_UNICYCLIC,
            SECOND_LAST,
            lambda k, m: triangle_with_pendant_counts(k, m - 4, 1, 0),
            m_min=4,
        ),
        Claim(
            "5.5",
            "per girth g, the first linear unicyclic hypergraph is the cycle with a pendant path",
            LINEAR_UNICYCLIC,
            FIRST,
            lambda k, m, g: cycle_with_tail(k, g, m),
            k_min=3,
            variants="girth",
        ),
        Claim(
            "5.6",
            "the first linear unicyclic hypergraph is the full hypercycle",
            LINEAR_UNICYCLIC,
            FIRST,
            hypercycle,
            k_min=3,
        ),
        Claim(
            "5.7",
            "the second linear unicyclic hypergraph is the girth-(m-1) cycle with one pendant path edge",
            LINEAR_UNICYCLIC,
            SECOND,
            lambda k, m: cycle_with_tail(k, m - 1, m),
            k_min=3,
            m_min=4,
        ),
        Claim(
            "6.2",
            "the first hypertree is the hyperpath",
            HYPERTREE,
            FIRST,
            hyperpath,
            k_min=3,
            m_min=1,
        ),
        Claim(
            "6.3",
            "the second hypertree is the path with a branch at the second edge",
            HYPERTREE,
            SECOND,
            path_with_branch,
            k_min=3,
        ),
        Claim(
            "6.4",
            "the last hypertree is the hyperstar",
            HYPERTREE,
            LAST,
            hyperstar,
            m_min=1,
        ),
        Claim(
            "6.5",
            "per diameter d, the last hypertree is the balanced two-arm starlike tree",
            HYPERTREE,
            LAST,
            diameter_star,
            variants="diameter",
            m_min=2,
        ),
        Claim(
            "6.6",
            "the second-last hypertree is the starlike tree with arms (1, 2, 1, ..., 1)",
            HYPERTREE,
            SECOND_LAST,
            lambda k, m: starlike(k, (1, 2) + (1,) * (m - 3)),
        ),
        Claim(
            "7.1",
            "order-2 moment extremes over linear unicyclic hypergraphs",
            moments=((0, "5.2"), (0, "5.3"), (0, "5.1")),
        ),
        Claim(
            "7.2",
            "smallest order-(k+2) moment over linear unicyclic hypergraphs",
            k_min=3,
            moments=((1, "5.6"), (1, "5.5")),
        ),
        Claim(
            "7.3",
            "moment extremes over hypertrees (order 2 largest, order k+2 smallest)",
            moments=((0, "6.4"), (0, "6.6"), (1, "6.2"), (1, "6.3")),
        ),
    ]
}


def list_claims() -> list[tuple[str, str]]:
    return [(cid, CLAIMS[cid].description) for cid in sorted(CLAIMS)]


def _applies(claim: Claim, k: int, m: int) -> bool:
    return k >= claim.k_min and m >= claim.m_min


def _side(position: str) -> tuple[bool, int]:
    """(ascending, rank): first and second count from the smallest end,
    last and second-last from the largest; rank 1 is the runner-up."""
    return position in (FIRST, SECOND), int(position in (SECOND, SECOND_LAST))


def _instances(claim: Claim, k: int, m: int):
    """Yield ``(variant, family, member)`` for each variant of a position
    claim; ``member`` is the designated hypergraph's index in ``family``
    or None."""
    variants = {"girth": range(3, m + 1), "diameter": range(2, m + 1)}.get(claim.variants, (None,))
    for v in variants:
        filt = FamilyFilter(
            claim.family,
            k,
            m,
            girth=v if claim.variants == "girth" else None,
            diam=v if claim.variants == "diameter" else None,
        )
        family = enumerate_family(filt)
        designated = claim.build(k, m) if v is None else claim.build(k, m, v)
        key = canonical_form(designated)
        # the family is sorted by canonical key, one member per key
        i = bisect_left(family, key, key=canonical_form)
        member = i if i < len(family) and canonical_form(family[i]) == key else None
        yield v, family, member


def _positions(groups: Sequence[Sequence[int]], member: int, position: str):
    """Check the member occupies the claimed position strictly.

    Returns (status, detail).  A tie at the relevant position reports
    UNDECIDED so the caller can extend the order budget.
    """
    ascending, depth = _side(position)
    ordered = groups if ascending else groups[::-1]
    if len(ordered) <= depth:
        return VIOLATED, f"family has only {len(ordered)} distinct moment classes"
    for level in range(depth + 1):
        if len(ordered[level]) > 1:
            members = sorted(ordered[level])
            return UNDECIDED, f"tie at rank {level}: members {members} unresolved"
    occupant = ordered[depth][0]
    if occupant == member:
        return HOLDS, f"member {occupant} occupies the {position} position strictly"
    return VIOLATED, f"position {position} is held by member {occupant}, not the designated hypergraph"


def _value_check(
    label: str, family: Sequence[Hypergraph], member: int | None, position: str, alpha: Fraction, d: int
) -> CheckResult:
    """Whether the member's order-d moment at alpha is the extreme value
    (rank 0) or the next distinct one (rank 1) on the side the position
    names.  The family is bucketed once on the integer keys; only the
    printed values are evaluated as Fractions."""
    if member is None:
        return CheckResult(label, VIOLATED, "designated hypergraph missing from the family")
    ascending, rank = _side(position)
    _, groups = next(_refine(family, alpha, (d,)))
    distinct = groups if ascending else groups[::-1]
    if len(distinct) <= rank:
        return CheckResult(label, VIOLATED, f"family has only {len(distinct)} distinct values")
    wanted = trace(family[distinct[rank][0]], d).evaluate(alpha)
    if member in distinct[rank]:
        return CheckResult(
            label, HOLDS, f"designated hypergraph attains the claimed value {wanted}"
        )
    if rank == 1 and member in distinct[0]:
        return CheckResult(
            label,
            DEGENERATE,
            "designated hypergraph attains the extreme value itself; the claim is vacuous at this size",
        )
    got = trace(family[member], d).evaluate(alpha)
    return CheckResult(label, VIOLATED, f"value {got} differs from the claimed {wanted}")


def verify_theorem(
    claim_id: str,
    k: int,
    m: int,
    alpha: Fraction,
    d_max: int | None = None,
) -> VerificationReport:
    """Verify one cataloged claim by exhaustive enumeration.

    A position claim refines its family once, order by order, splitting
    only the first rank + 1 groups from the claimed end (rank 1 for second
    and second-last, else 0); the evidence ``groups`` lists those groups
    in ascending order with every other member in one unread rest group at
    the far end.  The check stops at the first order from 2k+2 (or
    ``d_max``) on that settles the position, and the same refinement is
    extended, up to k*m + 2, while a tie blocks it.  It stops before 2k+2
    only when every read group is a single member and the rest holds at
    most one, that is, when the whole family is separated.  A moment claim
    reads one order per row and reports the largest of them as
    ``d_used``.  A rank below 2 or a negative m raises ``ParameterError``
    before any claim is read; a family too large to grow raises
    ``BudgetExceeded`` from the enumeration.
    """
    if claim_id not in CLAIMS:
        raise OrderingError(f"unknown claim id {claim_id!r}; known: {sorted(CLAIMS)}")
    claim = CLAIMS[claim_id]
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if m < 0:
        raise ParameterError(f"m must be >= 0, got {m}")
    alpha = _validate_alpha(alpha)
    d_base = _default_d_max(k) if d_max is None else d_max
    _validate_d_max(d_base)
    d_cap = max(d_base, k * m + 2)

    if not _applies(claim, k, m):
        hypothesis = CheckResult(
            "hypothesis", VIOLATED, f"claim needs k >= {claim.k_min} and m >= {claim.m_min}"
        )
        return VerificationReport(claim_id, claim.description, k, m, alpha, d_base, (hypothesis,))

    checks: list[CheckResult] = []
    if claim.moments:
        rows = [(c, CLAIMS[cid]) for c, cid in claim.moments if _applies(CLAIMS[cid], k, m)]
        d_used = max(c * k + 2 for c, _ in rows)
        for c, pos in rows:
            ascending, rank = _side(pos.position)
            side = ("second " if rank else "") + ("smallest" if ascending else "largest")
            head = f"{side} order-{'(k+2)' if c else '2'} moment"
            for v, family, member in _instances(pos, k, m):
                label = head if v is None else f"{head} at {pos.variants} {v}"
                checks.append(_value_check(label, family, member, pos.position, alpha, c * k + 2))
        return VerificationReport(claim_id, claim.description, k, m, alpha, d_used, tuple(checks))

    d_used = d_base
    ascending, rank = _side(claim.position)
    for v, family, member in _instances(claim, k, m):
        label = claim.position if v is None else f"{claim.position} (variant {v})"
        if member is None:
            checks.append(
                CheckResult(label, VIOLATED, "designated hypergraph missing from the enumerated family")
            )
            continue
        for d_family, groups in _refine(family, alpha, range(d_cap + 1), (ascending, rank)):
            status, detail = _positions(groups, member, claim.position)
            if d_family >= d_base and status != UNDECIDED:
                break
        d_used = max(d_used, d_family)
        extreme = groups[0 if ascending else -1]
        if status != HOLDS and rank == 1 and extreme == (member,):
            # a degenerate instance: the designated graph coincides with the
            # strict extreme, so the runner-up position cannot be its
            status = DEGENERATE
            detail = (
                f"designated hypergraph coincides with the {FIRST if ascending else LAST} one; "
                "the claim is vacuous at this size"
            )
        evidence = {
            "family_size": len(family),
            "groups": [list(g) for g in groups],
            "designated_member": member,
            "d_used": d_family,
            "designated_traces": [
                {"d": d, "poly": trace(family[member], d).to_json()}
                for d in range(d_family + 1)
            ],
        }
        checks.append(CheckResult(label, status, detail, evidence))

    return VerificationReport(claim_id, claim.description, k, m, alpha, d_used, tuple(checks))
