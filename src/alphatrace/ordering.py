"""Lexicographic spectral-moment order at exact rational weights.

Hypergraphs with the same k and vertex count are compared by walking
the moment sequence Tr_0, Tr_1, ... until the first strict difference.
``compare_at_alpha`` decides at one exact rational alpha in (0, 1);
``compare_symbolic`` decides the sign of the first differing moment
polynomial on all of (0, 1) by exact root isolation.  ``sort_family``
ranks a family, reporting ties as explicit groups.  ``verify_theorem``
checks the cataloged extremal claims against exhaustive enumeration.

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
from typing import Callable, Sequence

from .canon import canonical_form
from .enumeration import DEFAULT_MAX_EDGES, FamilyFilter, enumerate_family
from .errors import OrderingError
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
from .trace import check_against_bruteforce, trace

LESS = "less"
GREATER = "greater"
EQUAL_UP_TO = "equal-up-to"

LESS_ON_UNIT = "less-on-(0,1)"
GREATER_ON_UNIT = "greater-on-(0,1)"
SIGN_CHANGES = "sign-changes"


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


def _validate_d_max(d_max: int):
    if d_max < 0:
        raise OrderingError(f"order bound d_max must be >= 0, got {d_max}")


def compare_at_alpha(
    h1: Hypergraph,
    h2: Hypergraph,
    alpha: Fraction,
    d_max: int,
    cross_check: bool = False,
) -> OrderVerdict:
    """Walk the moments at one exact weight until the first strict difference."""
    _validate_pair(h1, h2)
    _validate_d_max(d_max)
    alpha = _validate_alpha(alpha)
    for d in range(d_max + 1):
        p1, p2 = trace(h1, d), trace(h2, d)
        if cross_check:
            check_against_bruteforce(h1, d, p1)
            check_against_bruteforce(h2, d, p2)
        v1, v2 = p1.evaluate(alpha), p2.evaluate(alpha)
        if v1 < v2:
            return OrderVerdict(LESS, d, d_max)
        if v1 > v2:
            return OrderVerdict(GREATER, d, d_max)
    return OrderVerdict(EQUAL_UP_TO, None, d_max)


def compare_symbolic(h1: Hypergraph, h2: Hypergraph, d_max: int) -> SymbolicVerdict:
    """Decide the sign of the first differing moment on all of (0, 1)."""
    _validate_pair(h1, h2)
    _validate_d_max(d_max)
    for d in range(d_max + 1):
        diff = trace(h1, d) - trace(h2, d)
        if diff.is_zero():
            continue
        sign, witnesses = sign_on_open_unit(diff)
        if sign == "negative":
            return SymbolicVerdict(LESS_ON_UNIT, d, d_max)
        if sign == "positive":
            return SymbolicVerdict(GREATER_ON_UNIT, d, d_max)
        return SymbolicVerdict(SIGN_CHANGES, d, d_max, tuple(witnesses))
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

    def all_resolved(self) -> bool:
        return all(len(g) == 1 for g in self.groups)

    def verdict(self, i: int, j: int) -> OrderVerdict:
        return compare_at_alpha(self.family[i], self.family[j], self.alpha, self.d_used)

    def verdict_matrix(self) -> dict[tuple[int, int], str]:
        n = len(self.family)
        return {
            (i, j): self.verdict(i, j).relation
            for i in range(n)
            for j in range(n)
            if i != j
        }


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
    groups: list[list[int]] = [list(range(len(members)))]
    d_used = 0
    for d in range(d_max + 1):
        d_used = d
        refined: list[list[int]] = []
        for g in groups:
            if len(g) == 1:
                refined.append(g)
                continue
            buckets: dict[Fraction, list[int]] = {}
            for i in g:
                value = trace(members[i], d).evaluate(alpha)
                buckets.setdefault(value, []).append(i)
            for value in sorted(buckets):
                refined.append(buckets[value])
        groups = refined
        if all(len(g) == 1 for g in groups):
            break
    return RankedFamily(members, alpha, d_used, tuple(tuple(g) for g in groups))


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


def _instances(claim: Claim, k: int, m: int, max_edges: int):
    """Yield ``(variant, family, designated, member)`` for each variant of
    a position claim; ``member`` is the designated hypergraph's index in
    ``family`` or None."""
    variants = {"girth": range(3, m + 1), "diameter": range(2, m + 1)}.get(claim.variants, (None,))
    for v in variants:
        filt = FamilyFilter(
            claim.family,
            k,
            m,
            girth=v if claim.variants == "girth" else None,
            diam=v if claim.variants == "diameter" else None,
        )
        family = enumerate_family(filt, max_edges)
        designated = claim.build(k, m) if v is None else claim.build(k, m, v)
        key = canonical_form(designated)
        # the family is sorted by canonical key, one member per key
        i = bisect_left(family, key, key=canonical_form)
        member = i if i < len(family) and canonical_form(family[i]) == key else None
        yield v, family, designated, member


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


def _value_check(label: str, values: list[Fraction], member: int | None, position: str) -> CheckResult:
    """Whether ``values[member]`` is the extreme value (rank 0) or the next
    distinct one (rank 1) on the side the position names."""
    if member is None:
        return CheckResult(label, VIOLATED, "designated hypergraph missing from the family")
    ascending, rank = _side(position)
    distinct = sorted(set(values), reverse=not ascending)
    if len(distinct) <= rank:
        return CheckResult(label, VIOLATED, f"family has only {len(distinct)} distinct values")
    wanted = distinct[rank]
    got = values[member]
    if got == wanted:
        return CheckResult(
            label, HOLDS, f"designated hypergraph attains the claimed value {wanted}"
        )
    if rank == 1 and got == distinct[0]:
        return CheckResult(
            label,
            DEGENERATE,
            "designated hypergraph attains the extreme value itself; the claim is vacuous at this size",
        )
    return CheckResult(label, VIOLATED, f"value {got} differs from the claimed {wanted}")


def verify_theorem(
    claim_id: str,
    k: int,
    m: int,
    alpha: Fraction,
    d_max: int | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> VerificationReport:
    """Verify one cataloged claim by exhaustive enumeration and sorting.

    The order budget of a position claim starts at 2k+2 (or ``d_max``)
    and is extended up to k*m + 2 whenever a tie blocks the claimed
    position.  A moment claim reads one order per row and reports the
    largest of them as ``d_used``.
    """
    if claim_id not in CLAIMS:
        raise OrderingError(f"unknown claim id {claim_id!r}; known: {sorted(CLAIMS)}")
    claim = CLAIMS[claim_id]
    alpha = _validate_alpha(alpha)
    d_base = d_max if d_max is not None else 2 * k + 2
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
            for v, family, _, member in _instances(pos, k, m, max_edges):
                label = head if v is None else f"{head} at {pos.variants} {v}"
                values = [trace(h, c * k + 2).evaluate(alpha) for h in family]
                checks.append(_value_check(label, values, member, pos.position))
        return VerificationReport(claim_id, claim.description, k, m, alpha, d_used, tuple(checks))

    d_used = d_base
    ascending, rank = _side(claim.position)
    for v, family, designated, member in _instances(claim, k, m, max_edges):
        label = claim.position if v is None else f"{claim.position} (variant {v})"
        if member is None:
            checks.append(
                CheckResult(label, VIOLATED, "designated hypergraph missing from the enumerated family")
            )
            continue
        d_try = d_base
        while True:
            ranked = sort_family(family, alpha, d_try)
            status, detail = _positions(ranked.groups, member, claim.position)
            if status != UNDECIDED or d_try >= d_cap:
                break
            d_try = min(d_cap, d_try + 1)
        d_used = max(d_used, ranked.d_used)
        extreme = ranked.groups[0 if ascending else -1]
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
            "groups": [list(g) for g in ranked.groups],
            "designated_member": member,
            "d_used": ranked.d_used,
            "designated_traces": [
                {"d": d, "poly": trace(designated, d).to_json()}
                for d in range(ranked.d_used + 1)
            ],
        }
        checks.append(CheckResult(label, status, detail, evidence))

    return VerificationReport(claim_id, claim.description, k, m, alpha, d_used, tuple(checks))
