"""Command-line front door.

Subcommands: trace, compare, sort, enumerate, verify.  Hypergraphs come
from JSON files or inline family strings like "hyperpath:k=3,m=4".
The weight alpha is accepted only as an exact rational "p/q".

Exit codes: 0 success (or claim holds), 1 claim violated or method
disagreement, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import enumeration, ordering
from .errors import AlphaTraceError, BudgetExceeded, MethodDisagreement
from .families import KINDS, FamilySpec, build_family, parse_arms, parse_family_string
from .hypergraph import HYPERTREE, LINEAR_UNICYCLIC, Hypergraph, loads
from .trace import check_against_bruteforce, trace, trace_bruteforce, trace_closed

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUDGET_ENV = "ALPHATRACE_MAX_EDGES"

# ``trace --method``: the library's ``trace`` is the structural route
ROUTES = {"structural": trace, "brute": trace_bruteforce, "closed": trace_closed}


class UsageError(AlphaTraceError):
    pass


def parse_alpha(text: str) -> Fraction:
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise UsageError(
            f"alpha must be an exact rational like 1/2, got {text!r} "
            "(decimals are rejected to keep verdicts exact)"
        )
    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse alpha {text!r}: {exc}") from exc
    return value


def load_source(text: str) -> Hypergraph:
    """A filesystem path to hypergraph JSON, or a family string."""
    if Path(text).exists():
        return _read_hypergraph(text)
    if ":" in text:
        return build_family(parse_family_string(text))
    raise UsageError(f"no such file and not a family string: {text!r}")


def _read_hypergraph(path: str) -> Hypergraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc.strerror}") from exc
    try:
        return loads(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{path!r} is not hypergraph JSON: {exc!r}") from exc


def _family_from_flags(args) -> Hypergraph:
    if args.input:
        return _read_hypergraph(args.input)
    if not args.family:
        raise UsageError("provide --input FILE or --family NAME with its parameters")
    params: dict = {}
    if args.m is not None:
        params["m"] = args.m
    if args.g is not None:
        params["g"] = args.g
    for name in ("n1", "n2", "n3"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.arms:
        params["arms"] = parse_arms(args.arms)
    if args.k is None:
        raise UsageError("--k is required with --family")
    return build_family(FamilySpec(args.family, args.k, params))


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[list] | None = None):
    fmt = args.format
    if fmt == "json":
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":  # offered only by the commands that pass rows
        out = "\n".join(",".join(str(x) for x in row) for row in csv_rows) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")
    return value


def cmd_trace(args) -> int:
    _nonnegative(args.d, "--d")
    h = _family_from_flags(args)
    key = args.input or args.family
    results = []
    csv_rows = [["key", "d", "coeff_index", "numerator", "denominator"]]
    lines = [f"moments of {key} (k={h.k}, n={h.n}, m={h.m})"]
    for d in range(args.d + 1):
        poly = ROUTES[args.method](h, d)
        if args.cross_check:
            check_against_bruteforce(h, d, poly, args.method)
        results.append({"d": d, "poly": poly.to_json()})
        for idx, (num, den) in enumerate(poly.to_json()):
            csv_rows.append([key, d, idx, num, den])
        lines.append(f"  d={d}: {poly.pretty()}")
    _emit(args, {"hypergraph": h.to_json_dict(), "traces": results}, lines, csv_rows)
    return EXIT_OK


def _d_max(args, k: int) -> int:
    """``--d-max``, defaulting to 2k+2 for the operands' rank k."""
    return _nonnegative(args.d_max, "--d-max") if args.d_max is not None else 2 * (k or 2) + 2


def cmd_compare(args) -> int:
    h1 = load_source(args.a)
    h2 = load_source(args.b)
    alpha = parse_alpha(args.alpha)
    d_max = _d_max(args, h1.k)
    if args.symbolic:
        verdict = ordering.compare_symbolic(h1, h2, d_max)
        lines = [f"{args.a} vs {args.b}: {verdict.relation}"]
    else:
        verdict = ordering.compare_at_alpha(
            h1, h2, alpha, d_max, cross_check=args.cross_check
        )
        lines = [f"{args.a} vs {args.b} at alpha={alpha}: {verdict.relation}"]
    if verdict.first_diff_order is not None:
        lines.append(f"  first differing order: {verdict.first_diff_order}")
    _emit(args, verdict.to_json_dict(), lines)
    return EXIT_OK


def _filter_from_flags(args) -> enumeration.FamilyFilter:
    cls = {"hypertree": HYPERTREE, "linear-unicyclic": LINEAR_UNICYCLIC}[args.cls]
    return enumeration.FamilyFilter(
        cls,
        args.k,
        args.m,
        girth=args.girth,
        diam=args.diameter,
        max_degree_two=args.max_degree_2,
    )


def cmd_sort(args) -> int:
    filt = _filter_from_flags(args)
    family = enumeration.enumerate_family(filt, max_edges=_budget(args))
    alpha = parse_alpha(args.alpha)
    ranked = ordering.sort_family(family, alpha, _d_max(args, args.k))
    payload = {
        "alpha": str(alpha),
        "d_used": ranked.d_used,
        "groups": [
            [family[i].to_json_dict() for i in group] for group in ranked.groups
        ],
    }
    lines = [f"{len(family)} members, ranked ascending at alpha={alpha}:"]
    csv_rows = [["rank", "member", "edges"]]
    for rank, group in enumerate(ranked.groups):
        for i in group:
            tie = " (tied)" if len(group) > 1 else ""
            lines.append(f"  #{rank}{tie}: {family[i]}")
            csv_rows.append([rank, i, json.dumps([list(e) for e in family[i].edges])])
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    filt = _filter_from_flags(args)
    family = enumeration.enumerate_family(filt, max_edges=_budget(args))
    if args.out_dir:
        manifest = enumeration.dump_family(args.out_dir, family, filt)
        sys.stdout.write(f"wrote {len(family)} hypergraphs, manifest {manifest}\n")
        return EXIT_OK
    payload = {"count": len(family), "members": [h.to_json_dict() for h in family]}
    lines = [f"{len(family)} isomorphism classes"] + [f"  {h}" for h in family]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    alpha = parse_alpha(args.alpha)
    report = ordering.verify_theorem(
        args.theorem, args.k, args.m, alpha, d_max=_d_max(args, args.k), max_edges=_budget(args)
    )
    _emit(args, report.to_json_dict(), [report.to_text()])
    return EXIT_OK if report.holds else EXIT_VIOLATED


def _budget(args) -> int:
    env = os.environ.get(BUDGET_ENV)
    if args.max_edges is not None:
        return args.max_edges
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    return enumeration.DEFAULT_MAX_EDGES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphatrace",
        description="Exact spectral moments of k-uniform hypergraphs and their extremal orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *formats):
        p.add_argument("--format", choices=("table", "json", *formats), default="table")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("trace", help="moment polynomials of one hypergraph")
    p.add_argument("--input", help="hypergraph JSON file")
    p.add_argument("--family", help=f"family name ({', '.join(KINDS)})")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--n3", type=int)
    p.add_argument("--arms", help="starlike arm lengths, e.g. 2-1-1")
    p.add_argument("--d", type=int, required=True, help="compute orders 0..d")
    p.add_argument("--method", choices=tuple(ROUTES), default="structural")
    p.add_argument("--cross-check", action="store_true")
    common(p, "csv")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="compare two hypergraphs in moment order")
    p.add_argument("a", help="JSON file or family string like hyperpath:k=3,m=4")
    p.add_argument("b")
    p.add_argument("--alpha", required=True, help="exact rational in (0,1), e.g. 1/2")
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--symbolic", action="store_true", help="decide the sign on all of (0,1)")
    p.add_argument("--cross-check", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compare)

    for name, fn in (("sort", cmd_sort), ("enumerate", cmd_enumerate)):
        p = sub.add_parser(name)
        p.add_argument("--class", dest="cls", choices=("hypertree", "linear-unicyclic"), required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--girth", type=int)
        p.add_argument("--diameter", type=int)
        p.add_argument("--max-degree-2", action="store_true")
        p.add_argument("--max-edges", type=int, help="enumeration budget override")
        if name == "sort":
            p.add_argument("--alpha", required=True)
            p.add_argument("--d-max", type=int, default=None)
            common(p, "csv")
        else:
            p.add_argument("--out-dir", help="dump JSON files plus a manifest here")
            common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("verify", help="verify a cataloged extremal claim")
    p.add_argument("--theorem", required=True, help="claim id, e.g. 6.4 (see README)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--max-edges", type=int)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except MethodDisagreement as exc:
        sys.stderr.write(f"method disagreement: {exc}\n{json.dumps(exc.context, indent=2)}\n")
        return EXIT_VIOLATED
    except AlphaTraceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
