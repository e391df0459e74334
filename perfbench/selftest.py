"""Self-test of the benchmark: counts must repeat exactly.

    python3 perfbench/selftest.py [--seed 1]

Runs two traced runs of every workload on the same inputs and fails
unless every count-valued per-layer metric (calls, members, cache hits
and misses, determinants, d_used, budget extensions, compare relations,
and the ratios made from them) is identical between the two.  Times are
not required to repeat.  It also checks that ``BENCHMARK.json`` lists
exactly the metrics the runner reports, and prints the layer split that
the workloads were chosen to show.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from tracer import PER_LAYER


def _split(workload: str, layers: dict, wall: float) -> str:
    if workload == "catalog":
        share = (layers["canon.canonical_form.busy_s"] + layers["enumeration.enumerate_family.busy_s"]
                 - layers["canon.canonical_form.by_enumeration.busy_s"]) / wall
        return f"canon plus enumeration busy = {share:.0%} of wall_s"
    if workload == "dense-trace":
        share = layers["trace.trace_structural.busy_s"] / wall
        return (f"canon calls = {layers['canon.canonical_form.calls']}, cache hits = "
                f"{layers['trace.cache_hits']}, trace busy = {share:.0%} of wall_s")
    return f"cache hit ratio = {layers['trace.cache_hit_ratio']:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [w["name"] for w in declared["workloads"]] != list(run.CHECKERS):
        problems.append("BENCHMARK.json workloads differ from run.CHECKERS")

    run.OUT.mkdir(exist_ok=True)
    counted = [name for name, unit in PER_LAYER if unit in ("count", "ratio")]
    for workload in run.CHECKERS:
        inputs = run.make_inputs(workload, args.seed)
        first, second = (
            run.run_workload(workload, inputs, True, f"selftest-{workload}-{i}") for i in (1, 2)
        )
        differ = [
            f"{name}: {first['layers'][name]} vs {second['layers'][name]}"
            for name in counted
            if first["layers"][name] != second["layers"][name]
        ]
        problems += [f"{workload} {d}" for d in differ]
        print(f"{workload}: {len(counted) - len(differ)} of {len(counted)} counts repeat; "
              f"{_split(workload, first['layers'], first['wall_s'])}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
