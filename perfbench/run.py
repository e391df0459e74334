"""Benchmark runner: one workload, one seed, cold processes.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 35 --trace 0

The runner makes the workload's inputs from the seed, then runs the
workload's operation list again and again, each time in a fresh Python
process (so the trace engine's caches start cold, as for a CLI user),
one process at a time, until the next run would end past ``--seconds``.
It reports the median of those runs.  ``setup_s`` is the median, over
several spawns before each run, of the time from spawning a process to
``import alphatrace`` being done.

With ``--trace 1`` it also makes one traced run; the JSON line then
carries the per-layer metrics of that run instead of the end-to-end
ones, and the lines above it print both.

Every run's outputs are checked against independent oracles after the
timing.  Every metric is printed by name with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SPAWNS_PER_RUN = 5
CHILD_TIMEOUT_S = 150
SETUP_PROBE = (
    "import time\n"
    "import alphatrace\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

CLAIMS = ("5.1", "5.2", "5.3", "5.5", "5.6", "5.7", "6.2", "6.3", "6.4", "6.5", "6.6",
          "7.1", "7.2", "7.3")
# Every claim holds at each of these weights at k=3, m=6.
CATALOG_ALPHAS = ("1/10", "1/3", "1/2", "2/3", "9/10")
FAMILY_ALPHAS = ("1/10", "1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5", "9/10")

# Dense inputs: the complete graph K6 and the complete 3-graph on six
# vertices, each with a fixed set of edges removed.  The structures are
# fixed so that every seed asks for the same amount of work (their costs
# differ by up to a third between isomorphism classes); the seed draws
# the vertex labelling, so every (hypergraph, order) pair is new to the
# trace cache and the label-dependent enumeration order varies.
DENSE_REMOVED = (
    (2, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    (2, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    (2, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    (3, [(0, 1, 5), (0, 4, 5), (1, 2, 3), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (3, 4, 5)]),
    (3, [(0, 1, 2), (0, 1, 5), (0, 4, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)]),
    (3, [(0, 1, 2), (0, 1, 4), (0, 1, 5), (0, 4, 5), (1, 2, 3), (1, 3, 4), (1, 3, 5), (2, 4, 5)]),
)
DENSE_N = 6
DENSE_D_MAX = 8


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "catalog":
        return {"claims": CLAIMS, "k": 3, "m": 6, "alpha": rng.choice(CATALOG_ALPHAS)}
    if workload == "dense-trace":
        graphs = []
        for k, removed in DENSE_REMOVED:
            perm = list(range(DENSE_N))
            rng.shuffle(perm)
            edges = [e for e in combinations(range(DENSE_N), k) if e not in removed]
            graphs.append({"k": k, "n": DENSE_N, "edges": [[perm[v] for v in e] for e in edges]})
        return {"hypergraphs": graphs, "d_max": DENSE_D_MAX}
    if workload == "family-rank":
        return {"k": 3, "m": 7, "alphas": rng.sample(FAMILY_ALPHAS, 3),
                "sort_d_max": 23, "compare_d_max": 12}
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# Output checks (untimed, in the runner, against independent oracles)
# ---------------------------------------------------------------------------

def _catalog_checker(inputs):
    return lambda i, out: out.get("exit") == 0 and out.get("holds") is True


def _dense_checker(inputs):
    """k=2 against the matrix-power oracle at every order; k=3 against
    brute force at every order within its default class budget."""
    from alphatrace import BudgetExceeded, hypergraph, trace_bruteforce
    from alphatrace.matrix_oracle import matrix_power_trace

    expected = []
    for g in inputs["hypergraphs"]:
        h = hypergraph(g["k"], g["n"], g["edges"])
        for d in range(1, inputs["d_max"] + 1):
            try:
                oracle = matrix_power_trace if h.k == 2 else trace_bruteforce
                expected.append(oracle(h, d).to_json())
            except BudgetExceeded:
                expected.append(None)
    return lambda i, out: "poly" in out and expected[i] in (None, out["poly"])


def _family_checker(inputs):
    """The first and last members at every weight are the hypercycle and
    the girth-3 cycle with all pendant edges at one joint (claims 5.6 and
    5.2).  Symbolic compares pass unless they raise; their relations are
    reported as counts, not judged."""
    from alphatrace import canonical_form, cycle_with_pendant_star, hypercycle
    from alphatrace.hypergraph import from_json_dict

    k, m = inputs["k"], inputs["m"]
    first, last = canonical_form(hypercycle(k, m)), canonical_form(cycle_with_pendant_star(k, 3, m))

    def check(i, out):
        if "relation" in out:
            return True
        return (
            "first" in out
            and [canonical_form(from_json_dict(h)) for h in out["first"]] == [first]
            and [canonical_form(from_json_dict(h)) for h in out["last"]] == [last]
        )

    return check


CHECKERS = {"catalog": _catalog_checker, "dense-trace": _dense_checker, "family-rank": _family_checker}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args, stdin=None) -> str:
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_time() -> float:
    """Seconds from spawning a process to ``import alphatrace`` done."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    return float(_spawn(["-c", SETUP_PROBE]).split()[-1]) - start


def run_workload(workload: str, inputs: dict, trace: bool, label: str) -> dict:
    spec = {"workload": workload, "inputs": inputs, "out_dir": str(OUT), "trace": trace, "label": label}
    result = json.loads(_spawn([str(HERE / "workload.py")], json.dumps(spec)).splitlines()[-1])
    if Path(result["library"]).resolve() != (SRC / "alphatrace").resolve():
        raise RuntimeError(f"measured the library at {result['library']}, not {SRC}")
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool):
    inputs = make_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    setup_time()  # writes the byte-code cache, as an earlier CLI call would have
    setups, runs = [], []
    started = time.perf_counter()
    while True:
        # spawns are spread over the run, so they see the same machine as the workload
        setups += [setup_time() for _ in range(SETUP_SPAWNS_PER_RUN)]
        runs.append(run_workload(workload, inputs, False, f"{workload}-{seed}"))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(runs) > seconds:
            break
    traced = run_workload(workload, inputs, True, f"{workload}-{seed}") if trace else None
    return inputs, setups, runs, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "alphatrace" / "__init__.py").is_file():
        sys.stderr.write(f"no alphatrace sources under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))

    inputs, setups, runs, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    check = CHECKERS[args.workload](inputs)
    attempted = failed = 0
    for run in runs + ([traced] if traced else []):
        for i, out in enumerate(run["outputs"]):
            attempted += 1
            failed += not check(i, out)

    walls = [r["wall_s"] for r in runs]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    names = END_TO_END
    if traced:
        values.update(traced["layers"])
        values["bench.trace_overhead_s"] = traced["wall_s"] - values["wall_s"]
        names = PER_LAYER

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} cold runs"
          f"{' and 1 traced run' if traced else ''}, {len(setups)} set-up spawns")
    print("wall_s of each cold run: " + " ".join(f"{w:.4f}" for w in walls))
    for name, unit in END_TO_END + (PER_LAYER if traced else []):
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
