"""Steadiness command: two interleaved sets of runs per workload.

Usage (from the repository root)::

    python3 sievebench/steady.py --runs 5 [--workloads edge_query ...]

Runs every workload ``--runs`` times in each of two sets, alternating set A
and set B run by run (and workload by workload), each run with its own
seed.  For every end-to-end metric it prints each set's median and
quartiles, the spread of all runs (interquartile distance as a share of
the median), and how far set B's median moved from set A's, against the
metric's bound in ``BENCHMARK.json``.  Bounds are set from, and later
re-checked with, this command: every spread, ``setup_s``'s too, must stay
within its bound and should stay below a third of it, and the two sets'
medians must agree within the bound in either direction.  The seeds are
``FIRST_SEED`` upwards.  The raw results are written to
``.sievebench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from sievebench.run import WORK_DIR, WORKLOADS  # noqa: E402

FIRST_SEED = 100


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join("sievebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (two sets per workload)")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    results = {workload: {"A": [], "B": []} for workload in args.workloads}
    for index in range(args.runs):
        for workload in args.workloads:
            for offset, label in enumerate("AB"):
                seed = FIRST_SEED + 2 * index + offset
                start = time.perf_counter()
                result = run_once(workload, seed, spec["run_seconds"])
                result["seed"] = seed
                result["wall_s"] = time.perf_counter() - start
                results[workload][label].append(result)
                print(f"{workload} set {label} seed {seed}: "
                      f"correct={result['correct']} "
                      f"{result['failed']}/{result['attempted']} failed, "
                      f"{result['wall_s']:.1f} s", flush=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"raw results: {path}")
    return analyse(results, spec)


def analyse(results: dict, spec: dict) -> int:
    """Print the per-metric table; 0 when every metric is within bounds.

    A metric is within bounds when its spread over both sets is at most its
    bound and set B's median differs from set A's by at most the bound.
    """
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    steady = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        print(f"{'metric':<16}{'A median [q1, q3]':>34}"
              f"{'B median [q1, q3]':>34}{'spread':>8}{'B/A-1':>8}"
              f"{'bound':>7}")
        for name, bound in bounds.items():
            row = f"{name:<16}"
            medians = []
            for label in "AB":
                values = [r["metrics"][name]["value"] for r in sets[label]]
                q1, median, q3 = quartiles(values)
                medians.append(median)
                row += f"{median:>14.6g} [{q1:.5g}, {q3:.5g}]".rjust(34)
            values = [r["metrics"][name]["value"]
                      for label in "AB" for r in sets[label]]
            total = spread(values)
            moved = medians[1] / medians[0] - 1 if medians[0] else 0.0
            within = abs(moved) <= bound and total <= bound
            steady &= within
            # "!" breaks the bound; "~" is inside it but not below a third.
            mark = ("  !" if not within else
                    "  ~" if total >= bound / 3 else "")
            print(f"{row}{total:>8.4f}{moved:>+8.4f}{bound:>7.3f}{mark}")
        shares = {label: [r["failed"] / r["attempted"] for r in sets[label]]
                  for label in "AB"}
        print(f"failed shares A {shares['A']} B {shares['B']}")
    print(f"\n{'within bounds' if steady else 'NOT within bounds'}"
          " (! breaks a bound, ~ spreads over a third of it)")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
