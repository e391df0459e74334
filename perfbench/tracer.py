"""Per-layer spans and counts, recorded from outside the library.

Each binding replaces a public function, at the place where its caller
looks it up, with a timed wrapper.  Nothing under ``src/`` changes.
Modules are fetched through ``importlib.import_module`` because the
package re-exports the function ``trace`` under the name of the
submodule ``alphatrace.trace``, so ``import alphatrace.trace as T``
would return the function.

Spans stay in memory as ``[function, tag, start, end, parent]`` lists
and are written out once, when the traced run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute, span name, tag).  The tag splits one function's
# spans by caller, or by a property of the arguments when it is callable.
BINDINGS = [
    ("alphatrace.cli", "main", "cli.main", None),
    ("alphatrace.ordering", "verify_theorem", "ordering.verify_theorem", None),
    ("alphatrace.ordering", "sort_family", "ordering.sort_family", None),
    ("alphatrace.ordering", "compare_symbolic", "ordering.compare_symbolic", None),
    ("alphatrace.ordering", "enumerate_family", "enumeration.enumerate_family", None),
    ("alphatrace.enumeration", "enumerate_family", "enumeration.enumerate_family", None),
    ("alphatrace.ordering", "canonical_form", "canon.canonical_form", "by_ordering"),
    ("alphatrace.enumeration", "canonical_form", "canon.canonical_form", "by_enumeration"),
    ("alphatrace.enumeration", "classify", "hypergraph.classify", None),
    ("alphatrace.enumeration", "diameter", "hypergraph.diameter", None),
    ("alphatrace.ordering", "trace", "trace.trace", None),
    ("alphatrace.trace", "trace_structural", "trace.trace_structural", lambda args: f"k{args[0].k}"),
    ("alphatrace.trace", "count_in_arborescences", "digraph.count_in_arborescences", None),
    ("alphatrace.ordering", "sign_on_open_unit", "polynomial.sign_on_open_unit", None),
    ("alphatrace.polynomial:AlphaPoly", "evaluate", "polynomial.evaluate", None),
]

FUNCTIONS = [
    "enumeration.enumerate_family",
    "canon.canonical_form",
    "hypergraph.classify",
    "hypergraph.diameter",
    "trace.trace",
    "trace.trace_structural",
    "digraph.count_in_arborescences",
    "polynomial.evaluate",
    "polynomial.sign_on_open_unit",
    "ordering.verify_theorem",
    "ordering.sort_family",
    "ordering.compare_symbolic",
    "cli.main",
]
TAGGED = {
    "canon.canonical_form": ("by_enumeration", "by_ordering"),
    "trace.trace_structural": ("k2", "k3"),
}
RELATIONS = {
    "less-on-(0,1)": "less_on_unit",
    "greater-on-(0,1)": "greater_on_unit",
    "sign-changes": "sign_changes",
    "equal-up-to": "equal_up_to",
}


def _per_layer_names() -> list[tuple[str, str]]:
    names = []
    for fn in FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s"), (f"{fn}.self_s", "s")]
        for tag in TAGGED.get(fn, ()):
            names += [(f"{fn}.{tag}.calls", "count"), (f"{fn}.{tag}.busy_s", "s")]
    names += [
        ("enumeration.enumerate_family.members", "count"),
        ("enumeration.keep_ratio", "ratio"),
        ("trace.cache_hits", "count"),
        ("trace.cache_misses", "count"),
        ("trace.cache_hit_ratio", "ratio"),
        ("ordering.d_used", "count"),
        ("ordering.budget_extensions", "count"),
    ]
    names += [(f"ordering.compare_symbolic.{r}", "count") for r in RELATIONS.values()]
    names.append(("bench.trace_overhead_s", "s"))
    return names


# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = _per_layer_names()


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


class Tracer:
    """Installs the timed wrappers, records spans and counts, and puts
    every original binding back on ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.d_used = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._on_return = {
            "enumeration.enumerate_family": self._count_members,
            "ordering.verify_theorem": self._count_report,
            "ordering.sort_family": self._count_ranking,
            "ordering.compare_symbolic": self._count_relation,
        }

    def install(self):
        for target, attr, name, tag in BINDINGS:
            owner = _resolve(target)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, tag))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def span(self, name: str, call, *args):
        """Run ``call(*args)`` inside a span of the benchmark's own."""
        return self._wrap(call, name, None)(*args)

    def _wrap(self, original, name, tag):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        on_return = self._on_return.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            label = tag(args) if callable(tag) else tag
            span = [name, label, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = perf()
                span[2] = start
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count_members(self, family):
        self.counts["members"] += len(family)

    def _count_report(self, report):
        self.d_used = max(self.d_used, report.d_used)
        if report.d_used > 2 * report.k + 2:
            self.counts["budget_extensions"] += 1

    def _count_ranking(self, ranked):
        self.d_used = max(self.d_used, ranked.d_used)

    def _count_relation(self, verdict):
        self.counts[RELATIONS[verdict.relation]] += 1

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["function", "tag", "start", "end", "parent"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )

    def metrics(self, cache_info) -> dict[str, float]:
        """Per-layer metrics (without ``bench.trace_overhead_s``).

        Busy time counts only the outermost span of a function, so a
        function reached again below itself is not counted twice.  Self
        time is a span's duration minus the durations of its children.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for fn, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for i, (fn, tag, start, end, parent) in enumerate(spans):
            dur = end - start
            out[f"{fn}.calls"] += 1
            out[f"{fn}.self_s"] += dur - child[i]
            if tag is not None:
                out[f"{fn}.{tag}.calls"] += 1
            p = parent
            while p >= 0 and spans[p][0] != fn:
                p = spans[p][4]
            if p < 0:
                out[f"{fn}.busy_s"] += dur
                if tag is not None:
                    out[f"{fn}.{tag}.busy_s"] += dur
        canon_calls = out["canon.canonical_form.by_enumeration.calls"]
        members = self.counts["members"]
        lookups = cache_info.hits + cache_info.misses
        out.update(
            {
                "enumeration.enumerate_family.members": members,
                "enumeration.keep_ratio": members / canon_calls if canon_calls else 0.0,
                "trace.cache_hits": cache_info.hits,
                "trace.cache_misses": cache_info.misses,
                "trace.cache_hit_ratio": cache_info.hits / lookups if lookups else 0.0,
                "ordering.d_used": self.d_used,
                "ordering.budget_extensions": self.counts["budget_extensions"],
            }
        )
        for r in RELATIONS.values():
            out[f"ordering.compare_symbolic.{r}"] = self.counts[r]
        return {name: out[name] for name, _ in PER_LAYER if name != "bench.trace_overhead_s"}
