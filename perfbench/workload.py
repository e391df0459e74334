"""One run of one workload's operation list, in a fresh process.

Reads a JSON spec on stdin -- the workload name, its generated inputs,
an output directory and whether to trace -- and prints one JSON line:
wall and CPU time, peak RSS, the per-operation outputs the runner
checks, and, when traced, the per-layer metrics.

Each workload has three phases: set-up (untimed), the timed operation
list, and the collection of outputs (untimed).  An operation that
raises is recorded as an error and the list goes on; the runner counts
it as failed.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import alphatrace
from alphatrace import cli, enumeration, ordering
from alphatrace.hypergraph import LINEAR_UNICYCLIC, hypergraph


@dataclass
class Failed:
    error: str


def _attempt(span, call, *args):
    try:
        return span(call, *args)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Failed(f"{type(exc).__name__}: {exc}")


def _output(value, convert) -> dict:
    return {"error": value.error} if isinstance(value, Failed) else convert(value)


def catalog(inputs, out_dir: Path):
    """``alphatrace verify`` for every claim, in-process through ``cli.main``."""
    paths = {cid: out_dir / f"catalog-{cid}.json" for cid in inputs["claims"]}
    for path in paths.values():
        path.unlink(missing_ok=True)
    common = ["--k", str(inputs["k"]), "--m", str(inputs["m"]), "--alpha", inputs["alpha"],
              "--format", "json"]

    def run(span):
        return [
            _attempt(span, cli.main, ["verify", "--theorem", cid, *common, "--out", str(path)])
            for cid, path in paths.items()
        ]

    def outputs(codes):
        out = []
        for path, code in zip(paths.values(), codes):
            entry = _output(code, lambda c: {"exit": c})
            if path.exists():
                report = json.loads(path.read_text())
                entry.update(holds=report["holds"], d_used=report["d_used"])
            out.append(entry)
        return out

    return run, outputs


def dense_trace(inputs, out_dir: Path):
    """``trace(h, d)`` for every input and every order."""
    graphs = [hypergraph(g["k"], g["n"], g["edges"]) for g in inputs["hypergraphs"]]
    orders = range(1, inputs["d_max"] + 1)

    def run(span):
        return [_attempt(span, alphatrace.trace, h, d) for h in graphs for d in orders]

    def outputs(polys):
        return [_output(p, lambda p: {"poly": p.to_json()}) for p in polys]

    return run, outputs


def family_rank(inputs, out_dir: Path):
    """Enumerate one family, rank it at several weights, then decide every
    neighbouring pair of the last ranking symbolically."""
    filt = enumeration.FamilyFilter(LINEAR_UNICYCLIC, inputs["k"], inputs["m"])
    alphas = [Fraction(a) for a in inputs["alphas"]]
    family = []

    def run(span):
        family.extend(enumeration.enumerate_family(filt, inputs["m"]))
        rankings = [
            _attempt(span, ordering.sort_family, family, alpha, inputs["sort_d_max"])
            for alpha in alphas
        ]
        last = rankings[-1]
        line = [] if isinstance(last, Failed) else [i for g in last.groups for i in g]
        verdicts = [
            _attempt(span, ordering.compare_symbolic, family[i], family[j], inputs["compare_d_max"])
            for i, j in zip(line, line[1:])
        ]
        return rankings, verdicts

    def ranking(r):
        return {
            "d_used": r.d_used,
            "first": [family[i].to_json_dict() for i in r.groups[0]],
            "last": [family[i].to_json_dict() for i in r.groups[-1]],
        }

    def outputs(result):
        rankings, verdicts = result
        return [_output(r, ranking) for r in rankings] + [
            _output(v, lambda v: {"relation": v.relation}) for v in verdicts
        ]

    return run, outputs


WORKLOADS = {"catalog": catalog, "dense-trace": dense_trace, "family-rank": family_rank}


def main():
    spec = json.load(sys.stdin)
    out_dir = Path(spec["out_dir"])
    run, outputs = WORKLOADS[spec["workload"]](spec["inputs"], out_dir)
    tracer = None
    span = lambda call, *args: call(*args)  # noqa: E731
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = lambda call, *args: tracer.span("bench.op", call, *args)  # noqa: E731

    start = time.perf_counter()
    result = run(span)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "library": os.path.dirname(alphatrace.__file__),
    }
    if tracer is not None:
        tracer.uninstall()
        cache = importlib.import_module("alphatrace.trace")._structural_components_cached
        report["layers"] = tracer.metrics(cache.cache_info())
        tracer.write(out_dir / f"spans-{spec['label']}.json")
    report["outputs"] = outputs(result)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
