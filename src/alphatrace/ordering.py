"""Lexicographic spectral-moment order at exact rational weights.

Hypergraphs with the same k and vertex count are compared by walking
the moment sequence Tr_0, Tr_1, ... until the first strict difference.
``compare_at_alpha`` decides at one exact rational alpha in (0, 1);
``compare_symbolic`` decides the sign of the first differing moment
polynomial on all of (0, 1) by exact root isolation.  ``sort_family``
ranks a family, reporting ties as explicit groups.  ``verify_theorem``
checks the cataloged extremal claims against exhaustive enumeration.

Canonical keys and moment polynomials are memoized per process by
hypergraph value (and, for moments, the order) in bounded LRU caches
inside ``canon`` and the trace engine, so the orderings here are exact,
cheap to repeat at several weights, and thread-safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .canon import canonical_form
from .enumeration import DEFAULT_MAX_EDGES, FamilyFilter, enumerate_family
from .errors import MethodDisagreement, OrderingError
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
from .polynomial import AlphaPoly, sign_on_open_unit
from .trace import trace, trace_bruteforce

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


def _moment(h: Hypergraph, d: int, method: str, cross_check: bool) -> AlphaPoly:
    poly = trace(h, d, method)
    if cross_check:
        ref = trace_bruteforce(h, d)
        if ref != poly:
            raise MethodDisagreement(
                f"moment of order {d} disagrees between methods",
                {
                    "order": d,
                    "hypergraph": h.to_json_dict(),
                    "structural": poly.to_json(),
                    "bruteforce": ref.to_json(),
                },
            )
    return poly


def compare_at_alpha(
    h1: Hypergraph,
    h2: Hypergraph,
    alpha: Fraction,
    d_max: int,
    method: str = "auto",
    cross_check: bool = False,
) -> OrderVerdict:
    """Walk the moments at one exact weight until the first strict difference."""
    _validate_pair(h1, h2)
    alpha = _validate_alpha(alpha)
    for d in range(d_max + 1):
        v1 = _moment(h1, d, method, cross_check).evaluate(alpha)
        v2 = _moment(h2, d, method, cross_check).evaluate(alpha)
        if v1 < v2:
            return OrderVerdict(LESS, d, d_max)
        if v1 > v2:
            return OrderVerdict(GREATER, d, d_max)
    return OrderVerdict(EQUAL_UP_TO, None, d_max)


def compare_symbolic(
    h1: Hypergraph, h2: Hypergraph, d_max: int, method: str = "auto"
) -> SymbolicVerdict:
    """Decide the sign of the first differing moment on all of (0, 1)."""
    _validate_pair(h1, h2)
    for d in range(d_max + 1):
        diff = trace(h1, d, method) - trace(h2, d, method)
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

    def position_of(self, index: int) -> int:
        for pos, g in enumerate(self.groups):
            if index in g:
                return pos
        raise ValueError(f"index {index} not in family")

    def verdict(self, i: int, j: int) -> OrderVerdict:
        pi, pj = self.position_of(i), self.position_of(j)
        if pi == pj:
            return OrderVerdict(EQUAL_UP_TO, None, self.d_used)
        relation = LESS if pi < pj else GREATER
        first = None
        for d in range(self.d_used + 1):
            a = trace(self.family[i], d).evaluate(self.alpha)
            b = trace(self.family[j], d).evaluate(self.alpha)
            if a != b:
                first = d
                break
        return OrderVerdict(relation, first, self.d_used)

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
    reported as groups, never silently broken."""
    members = tuple(family)
    if not members:
        return RankedFamily((), Fraction(alpha), 0, ())
    for h in members[1:]:
        _validate_pair(members[0], h)
    alpha = _validate_alpha(alpha)
    groups: list[list[int]] = [sorted(range(len(members)), key=lambda i: canonical_form(members[i]))]
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
    claim_id: str
    description: str
    family: str
    kind: str  # "position" or "moment"
    position: str
    build: Callable
    k_min: int = 2
    m_min: int = 3
    variants: str | None = None  # None | "girth" | "diameter"
    moment_order: Callable[[int], int] | None = None  # for kind == "moment"


def _second_last_starlike(k: int, m: int) -> Hypergraph:
    return starlike(k, (1, 2) + (1,) * (m - 3))


CLAIMS: dict[str, Claim] = {
    c.claim_id: c
    for c in [
        Claim(
            "5.1",
            "per girth g, the last linear unicyclic hypergraph is the cycle with all pendant edges at one joint",
            LINEAR_UNICYCLIC,
            "position",
            LAST,
            lambda k, m, g: cycle_with_pendant_star(k, g, m),
            variants="girth",
        ),
        Claim(
            "5.2",
            "the last linear unicyclic hypergraph is the girth-3 cycle with all pendant edges at one joint",
            LINEAR_UNICYCLIC,
            "position",
            LAST,
            lambda k, m: cycle_with_pendant_star(k, 3, m),
        ),
        Claim(
            "5.3",
            "the second-last linear unicyclic hypergraph is the girth-3 cycle with pendant counts (m-4, 1, 0)",
            LINEAR_UNICYCLIC,
            "position",
            SECOND_LAST,
            lambda k, m: triangle_with_pendant_counts(k, m - 4, 1, 0),
            m_min=4,
        ),
        Claim(
            "5.5",
            "per girth g, the first linear unicyclic hypergraph is the cycle with a pendant path",
            LINEAR_UNICYCLIC,
            "position",
            FIRST,
            lambda k, m, g: cycle_with_tail(k, g, m),
            k_min=3,
            variants="girth",
        ),
        Claim(
            "5.6",
            "the first linear unicyclic hypergraph is the full hypercycle",
            LINEAR_UNICYCLIC,
            "position",
            FIRST,
            lambda k, m: hypercycle(k, m),
            k_min=3,
        ),
        Claim(
            "5.7",
            "the second linear unicyclic hypergraph is the girth-(m-1) cycle with one pendant path edge",
            LINEAR_UNICYCLIC,
            "position",
            SECOND,
            lambda k, m: cycle_with_tail(k, m - 1, m),
            k_min=3,
            m_min=4,
        ),
        Claim(
            "6.2",
            "the first hypertree is the hyperpath",
            HYPERTREE,
            "position",
            FIRST,
            lambda k, m: hyperpath(k, m),
            k_min=3,
            m_min=1,
        ),
        Claim(
            "6.3",
            "the second hypertree is the path with a branch at the second edge",
            HYPERTREE,
            "position",
            SECOND,
            lambda k, m: path_with_branch(k, m),
            k_min=3,
        ),
        Claim(
            "6.4",
            "the last hypertree is the hyperstar",
            HYPERTREE,
            "position",
            LAST,
            lambda k, m: hyperstar(k, m),
            m_min=1,
        ),
        Claim(
            "6.5",
            "per diameter d, the last hypertree is the balanced two-arm starlike tree",
            HYPERTREE,
            "position",
            LAST,
            lambda k, m, d: diameter_star(k, m, d),
            variants="diameter",
            m_min=2,
        ),
        Claim(
            "6.6",
            "the second-last hypertree is the starlike tree with arms (1, 2, 1, ..., 1)",
            HYPERTREE,
            "position",
            SECOND_LAST,
            _second_last_starlike,
        ),
        Claim(
            "7.1",
            "order-2 moment extremes over linear unicyclic hypergraphs",
            LINEAR_UNICYCLIC,
            "moment",
            "largest",
            None,
            moment_order=lambda k: 2,
        ),
        Claim(
            "7.2",
            "smallest order-(k+2) moment over linear unicyclic hypergraphs",
            LINEAR_UNICYCLIC,
            "moment",
            "smallest",
            None,
            k_min=3,
            moment_order=lambda k: k + 2,
        ),
        Claim(
            "7.3",
            "moment extremes over hypertrees (order 2 largest, order k+2 smallest)",
            HYPERTREE,
            "moment",
            "mixed",
            None,
            moment_order=lambda k: 2,
        ),
    ]
}


def list_claims() -> list[tuple[str, str]]:
    return [(cid, CLAIMS[cid].description) for cid in sorted(CLAIMS)]


def _positions(groups: Sequence[Sequence[int]], canon_keys, target_key, position: str):
    """Check the target occupies the claimed position strictly.

    Returns (status, detail).  A tie at the relevant position reports
    UNDECIDED so the caller can extend the order budget.
    """
    idx_groups = list(groups)
    if position in (FIRST, SECOND):
        ordered = idx_groups
    else:
        ordered = idx_groups[::-1]
    depth = 0 if position in (FIRST, LAST) else 1
    if len(ordered) <= depth:
        return VIOLATED, f"family has only {len(ordered)} distinct moment classes"
    for level in range(depth + 1):
        if len(ordered[level]) > 1:
            members = sorted(ordered[level])
            return UNDECIDED, f"tie at rank {level}: members {members} unresolved"
    occupant = ordered[depth][0]
    if canon_keys[occupant] == target_key:
        return HOLDS, f"member {occupant} occupies the {position} position strictly"
    return VIOLATED, f"position {position} is held by member {occupant}, not the designated hypergraph"


def _find_member(canon_keys: list[bytes], key: bytes) -> int | None:
    for i, k in enumerate(canon_keys):
        if k == key:
            return i
    return None


def verify_theorem(
    claim_id: str,
    k: int,
    m: int,
    alpha: Fraction,
    d_max: int | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> VerificationReport:
    """Verify one cataloged claim by exhaustive enumeration and sorting.

    The order budget starts at 2k+2 (or ``d_max``) and is extended up to
    k*m + 2 whenever a tie blocks the claimed position.
    """
    if claim_id not in CLAIMS:
        raise OrderingError(f"unknown claim id {claim_id!r}; known: {sorted(CLAIMS)}")
    claim = CLAIMS[claim_id]
    alpha = _validate_alpha(alpha)
    checks: list[CheckResult] = []
    d_base = d_max if d_max is not None else 2 * k + 2
    d_cap = max(d_base, k * m + 2)
    d_used = d_base

    if k < claim.k_min or m < claim.m_min:
        checks.append(
            CheckResult(
                "hypothesis",
                VIOLATED,
                f"claim needs k >= {claim.k_min} and m >= {claim.m_min}",
            )
        )
        return VerificationReport(claim_id, claim.description, k, m, alpha, d_base, tuple(checks))

    if claim.kind == "moment":
        report_checks, d_used = _verify_moment_claim(claim, k, m, alpha, max_edges)
        checks.extend(report_checks)
        return VerificationReport(
            claim_id, claim.description, k, m, alpha, d_used, tuple(checks)
        )

    variant_values: list[tuple]
    if claim.variants == "girth":
        variant_values = [(g,) for g in range(3, m + 1)]
    elif claim.variants == "diameter":
        variant_values = [(dd,) for dd in range(2, m + 1)]
    else:
        variant_values = [()]

    for extra in variant_values:
        if claim.family == HYPERTREE:
            filt = FamilyFilter(HYPERTREE, k, m, diam=extra[0] if extra else None)
        else:
            filt = FamilyFilter(LINEAR_UNICYCLIC, k, m, girth=extra[0] if extra else None)
        family = enumerate_family(filt, max_edges)
        designated = claim.build(k, m, *extra)
        target_key = canonical_form(designated)
        canon_keys = [canonical_form(h) for h in family]
        label = claim.position + (f" (variant {extra[0]})" if extra else "")
        member = _find_member(canon_keys, target_key)
        if member is None:
            checks.append(
                CheckResult(label, VIOLATED, "designated hypergraph missing from the enumerated family")
            )
            continue
        d_try = d_base
        while True:
            ranked = sort_family(family, alpha, d_try)
            status, detail = _positions(ranked.groups, canon_keys, target_key, claim.position)
            if status != UNDECIDED or d_try >= d_cap:
                break
            d_try = min(d_cap, d_try + 1)
        d_used = max(d_used, ranked.d_used)
        if status != HOLDS and claim.position in (SECOND, SECOND_LAST):
            # a degenerate instance: the designated graph coincides with the
            # strict extreme, so "second" cannot be occupied by it
            extreme = ranked.groups[0 if claim.position == SECOND else -1]
            if len(extreme) == 1 and canon_keys[extreme[0]] == target_key:
                status = DEGENERATE
                detail = (
                    "designated hypergraph coincides with the "
                    + (FIRST if claim.position == SECOND else LAST)
                    + " one; the claim is vacuous at this size"
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


def _moment_values(family: Sequence[Hypergraph], order: int, alpha: Fraction) -> list[Fraction]:
    return [trace(h, order).evaluate(alpha) for h in family]


def _value_check(
    label: str,
    family: Sequence[Hypergraph],
    values: list[Fraction],
    designated: Hypergraph,
    side: str,
    rank: int,
) -> CheckResult:
    """side in (max, min); rank 0 = extreme value, 1 = next distinct value."""
    target = _find_member([canonical_form(h) for h in family], canonical_form(designated))
    if target is None:
        return CheckResult(label, VIOLATED, "designated hypergraph missing from the family")
    distinct = sorted(set(values), reverse=(side == "max"))
    if len(distinct) <= rank:
        return CheckResult(label, VIOLATED, f"family has only {len(distinct)} distinct values")
    wanted = distinct[rank]
    got = values[target]
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


def _verify_moment_claim(claim: Claim, k: int, m: int, alpha: Fraction, max_edges: int):
    checks: list[CheckResult] = []
    if claim.claim_id == "7.1":
        family = enumerate_family(FamilyFilter(LINEAR_UNICYCLIC, k, m), max_edges)
        values = _moment_values(family, 2, alpha)
        checks.append(
            _value_check(
                "largest order-2 moment",
                family,
                values,
                cycle_with_pendant_star(k, 3, m),
                "max",
                0,
            )
        )
        if m >= 4:
            checks.append(
                _value_check(
                    "second largest order-2 moment",
                    family,
                    values,
                    triangle_with_pendant_counts(k, m - 4, 1, 0),
                    "max",
                    1,
                )
            )
        for g in range(3, m + 1):
            sub = enumerate_family(FamilyFilter(LINEAR_UNICYCLIC, k, m, girth=g), max_edges)
            checks.append(
                _value_check(
                    f"largest order-2 moment at girth {g}",
                    sub,
                    _moment_values(sub, 2, alpha),
                    cycle_with_pendant_star(k, g, m),
                    "max",
                    0,
                )
            )
        return checks, 2
    if claim.claim_id == "7.2":
        order = k + 2
        family = enumerate_family(FamilyFilter(LINEAR_UNICYCLIC, k, m), max_edges)
        checks.append(
            _value_check(
                "smallest order-(k+2) moment",
                family,
                _moment_values(family, order, alpha),
                hypercycle(k, m),
                "min",
                0,
            )
        )
        for g in range(3, m + 1):
            sub = enumerate_family(FamilyFilter(LINEAR_UNICYCLIC, k, m, girth=g), max_edges)
            checks.append(
                _value_check(
                    f"smallest order-(k+2) moment at girth {g}",
                    sub,
                    _moment_values(sub, order, alpha),
                    cycle_with_tail(k, g, m),
                    "min",
                    0,
                )
            )
        return checks, order
    if claim.claim_id == "7.3":
        family = enumerate_family(FamilyFilter(HYPERTREE, k, m), max_edges)
        values2 = _moment_values(family, 2, alpha)
        checks.append(
            _value_check("largest order-2 moment", family, values2, hyperstar(k, m), "max", 0)
        )
        checks.append(
            _value_check(
                "second largest order-2 moment",
                family,
                values2,
                _second_last_starlike(k, m),
                "max",
                1,
            )
        )
        d_used = 2
        if k >= 3:
            order = k + 2
            valuesk = _moment_values(family, order, alpha)
            checks.append(
                _value_check(
                    "smallest order-(k+2) moment", family, valuesk, hyperpath(k, m), "min", 0
                )
            )
            checks.append(
                _value_check(
                    "second smallest order-(k+2) moment",
                    family,
                    valuesk,
                    path_with_branch(k, m),
                    "min",
                    1,
                )
            )
            d_used = order
        return checks, d_used
    raise OrderingError(f"no moment verification for claim {claim.claim_id}")


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
