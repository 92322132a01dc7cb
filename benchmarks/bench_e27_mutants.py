"""E27 (mutant kill matrix): which checker flags which mutant.

Not a paper claim -- the evidence for which correctness checkers the
repo keeps.  Every mutant of :data:`repro.analysis.faults.MUTANTS`
(each breaks one M(X) rule of Section 5.2) and the unbroken ``moss-rw``
control run on two drivers with pinned seeds:

* ``random`` -- 60 single-threaded random-driver runs (seeds 0-59,
  4 tops, 40 operations);
* ``fuzz``   -- 80 fuzz-controller runs (seeds 0-79, 3 workers x 3
  trees).

Every checker of :mod:`repro.checking.matrix` judges every run.  A cell
counts the runs the checker flagged; ``unique`` counts the runs that
only that checker flagged; ``flagged, linter missed`` sums, over all
policies, the runs a checker flagged that the schedule linter did not.
Cost is the checker's mean time per run;
the auditor runs online, so its cost is the driver's time with the
auditor attached minus without.

Regenerate EXPERIMENTS.md's E27 tables (and ``BENCH_E27.json``) with::

    PYTHONPATH=src python benchmarks/bench_e27_mutants.py

(a few minutes on one core; under pytest it runs as
``test_e27_kill_matrix`` with the same seeds).
"""

import json
import os
import time

from repro.checking.matrix import (
    CHECKERS,
    CONTROL,
    DRIVERS,
    POLICIES,
    KillMatrix,
)

SEEDS = {"random": range(60), "fuzz": range(80)}


def _auditor_ms_per_run(driver):
    """Driver time with the auditor attached minus without, per run."""
    from repro.analysis.faults import MUTANTS
    from repro.checking.matrix import drive_random_workload
    from repro.fuzz import FuzzConfig, run_case

    def once(policy, seed, audit):
        if driver == "random":
            selector = MUTANTS[policy]() if policy in MUTANTS else policy
            drive_random_workload(seed, 4, 40, policy=selector, audit=audit)
        else:
            faults = policy if policy in MUTANTS else "none"
            run_case(
                FuzzConfig(seed=seed, transactions_per_worker=3,
                           faults=faults),
                audit=audit,
            )

    spent = {True: 0.0, False: 0.0}
    runs = 0
    for policy in POLICIES:
        for seed in SEEDS[driver]:
            for audit in (False, True):
                started = time.perf_counter()
                once(policy, seed, audit)
                spent[audit] += time.perf_counter() - started
            runs += 1
    return 1000.0 * (spent[True] - spent[False]) / runs


def run_matrix():
    """Both drivers' matrices, as plain rows for the tables and JSON."""
    result = {}
    for driver in DRIVERS:
        matrix = KillMatrix(driver, SEEDS[driver])
        cost = {name: matrix.ms_per_run(name) for name in CHECKERS}
        cost["auditor"] = _auditor_ms_per_run(driver)
        result[driver] = {
            "seeds": "%d-%d" % (matrix.seeds[0], matrix.seeds[-1]),
            "kills": {
                policy: {
                    name: matrix.count(policy, name) for name in CHECKERS
                }
                for policy in POLICIES
            },
            "unique": {
                policy: {
                    name: len(matrix.unique(policy, name))
                    for name in CHECKERS
                }
                for policy in POLICIES
            },
            "linter_missed": {
                name: sum(
                    len(
                        matrix.kills[policy, name]
                        - matrix.kills[policy, "linter"]
                    )
                    for policy in POLICIES
                )
                for name in CHECKERS
            },
            "ms_per_run": {name: round(cost[name], 3) for name in CHECKERS},
        }
    return result


def render(result):
    """The E27 markdown tables."""
    lines = []
    for driver, data in result.items():
        runs = len(SEEDS[driver])
        lines.append(
            "**%s driver** (%d runs per policy, seeds %s): runs flagged"
            " (runs flagged by that checker alone in brackets)"
            % (driver, runs, data["seeds"])
        )
        lines.append("")
        lines.append("| policy | " + " | ".join(CHECKERS) + " |")
        lines.append("|---" * (len(CHECKERS) + 1) + "|")
        for policy in POLICIES:
            cells = []
            for name in CHECKERS:
                count = data["kills"][policy][name]
                unique = data["unique"][policy][name]
                cells.append(
                    "%d (%d)" % (count, unique) if unique else str(count)
                )
            label = "none (`%s`)" % CONTROL if policy == CONTROL else (
                "`%s`" % policy
            )
            lines.append("| %s | %s |" % (label, " | ".join(cells)))
        lines.append(
            "| flagged, linter missed | %s |"
            % " | ".join(
                str(data["linter_missed"][name]) for name in CHECKERS
            )
        )
        lines.append(
            "| ms per run | %s |"
            % " | ".join(
                "%.2f" % data["ms_per_run"][name] for name in CHECKERS
            )
        )
        lines.append("")
    return "\n".join(lines)


def _write_json(result):
    path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        os.pardir,
        "BENCH_E27.json",
    )
    with open(path, "w") as handle:
        json.dump(
            {"experiment": "e27_kill_matrix", "drivers": result},
            handle,
            indent=2,
        )
        handle.write("\n")


def _check(result):
    """The matrix's standing claims (also pinned by tier-1)."""
    for data in result.values():
        assert not any(data["kills"][CONTROL].values()), data["kills"]
        for policy in POLICIES:
            if policy != CONTROL:
                assert any(data["kills"][policy].values()), policy


def test_e27_kill_matrix(benchmark):
    result = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print(render(result))
    _write_json(result)
    _check(result)


if __name__ == "__main__":
    outcome = run_matrix()
    print(render(outcome))
    _write_json(outcome)
    _check(outcome)
