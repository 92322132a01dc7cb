"""Make ``perf/`` importable and share one set of quick runs."""

import json
import os
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)


@pytest.fixture(scope="session")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def quick_run():
    """``quick_run(workload, trace)``: the result line of one
    ``run.py --quick`` child, run once per session."""
    cache = {}

    def run(workload, trace):
        if (workload, trace) not in cache:
            done = subprocess.run(
                [
                    sys.executable, os.path.join(PERF_DIR, "run.py"),
                    "--workload", workload, "--trace", str(trace),
                    "--seed", "7", "--quick",
                ],
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            cache[workload, trace] = json.loads(
                done.stdout.strip().splitlines()[-1]
            )
        return cache[workload, trace]

    return run
