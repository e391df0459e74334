"""Command-line front door.

Subcommands: trace, compare, sort, enumerate, verify.  Hypergraphs come
from JSON files or inline family strings like "hyperpath:k=3,m=4".
The weight alpha is accepted only as an exact rational "p/q".
Moments come from the structural route (``trace``); ``--cross-check``
passes each one the output rests on to ``trace.cross_check`` before
anything prints (``compare``: both operands, orders 0 through the first
differing order or ``--d-max``).

Exit codes: 0 success (or claim holds), 1 claim violated or method
disagreement, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import enumeration, ordering
from .errors import AlphaTraceError, BudgetExceeded, MethodDisagreement
from .families import KINDS, build_family, parse_family_string
from .hypergraph import HYPERTREE, LINEAR_UNICYCLIC, Hypergraph, loads
from .trace import cross_check, trace

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


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
    path = Path(text)
    if not path.exists():
        if ":" in text:
            return build_family(parse_family_string(text))
        raise UsageError(f"no such file and not a family string: {text!r}")
    try:
        raw = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {text!r}: {exc.strerror}") from exc
    try:
        return loads(raw)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{text!r} is not hypergraph JSON: {exc!r}") from exc


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[list] | None = None):
    fmt = args.format
    if fmt == "json":
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":  # offered only by the commands that pass rows
        import csv  # imported here: its C module would add to every run's peak RSS
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        out = buf.getvalue()
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
    h = load_source(args.source)
    results = []
    csv_rows = [["key", "d", "coeff_index", "numerator", "denominator"]]
    lines = [f"moments of {args.source} (k={h.k}, n={h.n}, m={h.m})"]
    for d in range(args.d + 1):
        poly = trace(h, d)
        if args.cross_check:
            cross_check(h, d, poly)
        results.append({"d": d, "poly": poly.to_json()})
        for idx, (num, den) in enumerate(poly.to_json()):
            csv_rows.append([args.source, d, idx, num, den])
        lines.append(f"  d={d}: {poly.pretty()}")
    _emit(args, {"hypergraph": h.to_json_dict(), "traces": results}, lines, csv_rows)
    return EXIT_OK


def _d_max(args, k: int) -> int:
    """``--d-max``, defaulting to the ordering's budget for the operands' rank k."""
    return ordering._default_d_max(k) if args.d_max is None else _nonnegative(args.d_max, "--d-max")


def cmd_compare(args) -> int:
    if args.alpha is None and not args.symbolic:
        raise UsageError("--alpha is required without --symbolic")
    # a given --alpha is checked even where --symbolic leaves it unused
    alpha = None if args.alpha is None else parse_alpha(args.alpha)
    h1 = load_source(args.a)
    h2 = load_source(args.b)
    d_max = _d_max(args, h1.k)
    if args.symbolic:
        verdict = ordering.compare_symbolic(h1, h2, d_max)
        lines = [f"{args.a} vs {args.b}: {verdict.relation}"]
    else:
        verdict = ordering.compare_at_alpha(h1, h2, alpha, d_max)
        lines = [f"{args.a} vs {args.b} at alpha={alpha}: {verdict.relation}"]
    if args.cross_check:  # every order the verdict rests on, before anything prints
        last = d_max if verdict.first_diff_order is None else verdict.first_diff_order
        for d in range(last + 1):
            for h in (h1, h2):
                cross_check(h, d, trace(h, d))
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
    family = enumeration.enumerate_family(filt)
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
    family = enumeration.enumerate_family(filt)
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
    report = ordering.verify_theorem(args.theorem, args.k, args.m, alpha, _d_max(args, args.k))
    _emit(args, report.to_json_dict(), [report.to_text()])
    return EXIT_OK if report.holds else EXIT_VIOLATED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  ``set_defaults(func=...)`` binds
    each subcommand's handler at that first build, so a handler replaced
    later is not seen."""
    parser = argparse.ArgumentParser(
        prog="alphatrace",
        description="Exact spectral moments of k-uniform hypergraphs and their extremal orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    source_help = (
        "hypergraph JSON file, or family string like hyperpath:k=3,m=4 "
        f"(kinds: {', '.join(KINDS)})"
    )
    cross_help = "check each moment against the closed forms (orders <= k+2) and the brute force"

    def common(p, *formats):
        p.add_argument("--format", choices=("table", "json", *formats), default="table")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("trace", help="moment polynomials of one hypergraph")
    p.add_argument("source", help=source_help)
    p.add_argument("--d", type=int, required=True, help="compute orders 0..d")
    p.add_argument("--cross-check", action="store_true", help=cross_help)
    common(p, "csv")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="compare two hypergraphs in moment order")
    p.add_argument("a", help=source_help)
    p.add_argument("b", help=source_help)
    p.add_argument("--alpha", help="exact rational in (0,1), e.g. 1/2; required without --symbolic")
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--symbolic", action="store_true", help="decide the sign on all of (0,1)")
    p.add_argument("--cross-check", action="store_true", help=cross_help)
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
