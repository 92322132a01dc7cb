"""``run.py --check-repeat K``: does the benchmark agree with itself?

Two sets of K runs of this checkout per workload, run *k* of either
set with seed ``seed + k`` -- the procedure the benchmark's acceptance
uses.  For every end-to-end metric the check prints each set's median,
full range and spread (interquartile range over median), and fails if

* a set's spread exceeds the metric's bound (``setup_s`` exempt: it is
  judged on its medians only);
* the two medians differ by more than the bound;
* a timing metric's full range exceeds both ``RANGE_LIMIT`` of its
  median and its bound (one run that far out would read as a
  regression on its own);
* a count metric differs between the two runs that share a seed, or
  any run reports a failed transaction.

A spread above a third of the bound is flagged ``wide`` without
failing.  Everything measured goes to ``perf/out/repeat.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
from typing import Callable, Dict, List, Sequence

import estimator

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: Metrics computed from counts alone: one seed, one value, always.
EXACT = (
    "wal_bytes_per_txn",
    "sim_txn_per_unit",
    "sim_rw_gain_x",
    "sim_attempts_per_txn",
)
RANGE_LIMIT = 0.10


def judge(
    metric: Dict, first: Sequence[float], second: Sequence[float]
) -> List[str]:
    """The reasons *metric* fails over two sets of values (none: ok)."""
    name, bound = metric["name"], metric["bound"]
    reasons = []
    medians = [statistics.median(first), statistics.median(second)]
    if abs(medians[1] - medians[0]) > bound * abs(medians[0]):
        reasons.append("medians %.6g and %.6g differ by more than %g"
                       % (medians[0], medians[1], bound))
    for label, values in (("first", first), ("second", second)):
        if name != "setup_s" and estimator.spread(values) > bound:
            reasons.append("%s set's spread %.4f exceeds the bound %g"
                           % (label, estimator.spread(values), bound))
        reach = (max(values) - min(values)) / abs(statistics.median(values))
        limit = max(RANGE_LIMIT, bound)
        if name not in EXACT and name != "setup_s" and reach > limit:
            reasons.append("%s set's range is %.3f of its median"
                           % (label, reach))
    if name in EXACT and list(first) != list(second):
        reasons.append("a count differs between runs that share a seed")
    return reasons


def check(
    runs: int,
    workloads: Sequence[str],
    seed: int,
    seconds: float,
    bench: Dict,
    child_command: Callable[..., list],
) -> int:
    results: Dict[str, List[List[Dict]]] = {name: [[], []] for name in workloads}
    failures = 0
    for which in (0, 1):
        for k in range(runs):
            for workload in workloads:
                done = subprocess.run(
                    child_command(
                        "--workload", workload, "--seed", seed + k,
                        "--seconds", seconds,
                    ),
                    capture_output=True, text=True,
                )
                if done.returncode:
                    print(done.stdout + done.stderr)
                    print("FAIL %s seed %d exited %d"
                          % (workload, seed + k, done.returncode))
                    return 1
                result = json.loads(done.stdout.strip().splitlines()[-1])
                results[workload][which].append(result)
                print("set %d run %d/%d %s: ok"
                      % (which + 1, k + 1, runs, workload), flush=True)
    report = {}
    for workload in workloads:
        print("\n%s" % workload)
        print("  %-22s %12s %12s %8s %8s %8s  %s"
              % ("metric", "median 1", "median 2", "spread1", "spread2",
                 "bound", "verdict"))
        report[workload] = {}
        for metric in bench["end_to_end"]:
            first, second = (
                [run["metrics"][metric["name"]]["value"] for run in runs_]
                for runs_ in results[workload]
            )
            reasons = judge(metric, first, second)
            spreads = [estimator.spread(first), estimator.spread(second)]
            verdict = "FAIL" if reasons else (
                "wide" if metric["name"] != "setup_s"
                and max(spreads) > metric["bound"] / 3 else "ok"
            )
            failures += bool(reasons)
            print("  %-22s %12.6g %12.6g %8.4f %8.4f %8.2f  %s"
                  % (metric["name"], statistics.median(first),
                     statistics.median(second), spreads[0], spreads[1],
                     metric["bound"], verdict))
            for reason in reasons:
                print("      %s" % reason)
            report[workload][metric["name"]] = {
                "first": first, "second": second, "spreads": spreads,
                "ranges": [[min(first), max(first)],
                           [min(second), max(second)]],
                "bound": metric["bound"], "verdict": verdict,
                "reasons": reasons,
            }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "repeat.json"), "w") as handle:
        json.dump({"runs": runs, "seed": seed, "seconds": seconds,
                   "workloads": report}, handle, indent=1)
    print("\n%s" % ("FAIL: %d metrics" % failures if failures else "ok"))
    return 1 if failures else 0
