"""``BENCHMARK.json`` against the command's own output.

These tests drive ``run.py --quick`` end to end (about 5 s a run, six
runs a session) and so live here, outside the tier-1 suite.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import PERF_DIR, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("bank", "deep", "feed")


def test_benchmark_json_is_well_formed(benchmark_json):
    bench = benchmark_json
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert bench["paths"] == ["perf"]
    assert bench["command"] == ["python3", "perf/run.py"]
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in bench[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in bench["end_to_end"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_printed_names_are_the_declared_names(
    benchmark_json, quick_run, workload, trace
):
    declared = benchmark_json["per_layer" if trace else "end_to_end"]
    result = quick_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_the_workloads_separate_the_layers(quick_run):
    """The predictions ISSUE 15 makes about what each workload loads."""
    layer = {w: quick_run(w, 1)["metrics"] for w in WORKLOADS}
    whole = {w: quick_run(w, 0)["metrics"] for w in WORKLOADS}

    def value(table, workload, name):
        return table[workload][name]["value"]

    assert value(layer, "feed", "engine.children_per_txn") == 0
    assert value(layer, "deep", "engine.children_per_txn") >= 8
    assert value(layer, "deep", "engine.max_depth") == 5
    assert value(layer, "deep", "engine.child_aborts_per_txn") > 0
    assert value(layer, "deep", "wal.records_per_txn") >= 2.5 * value(
        layer, "feed", "wal.records_per_txn"
    )
    assert value(whole, "feed", "sim_rw_gain_x") >= 5
    assert 0.9 <= value(whole, "deep", "sim_rw_gain_x") <= 1.1
    assert value(whole, "bank", "sim_attempts_per_txn") >= 3
    assert value(whole, "deep", "sim_attempts_per_txn") < 2
    assert value(layer, "bank", "sim.restarts_per_txn") >= 2
    assert value(layer, "deep", "sim.restarts_per_txn") < 1
    # Spans cover the facade rung's transactions: per-op floors sum to
    # within 10% of the untraced per-transaction floor.
    for workload in WORKLOADS:
        share = value(layer, workload, "trace.facade_span_share")
        assert 0.9 <= share <= 1.1


def test_a_traced_run_writes_its_spans(quick_run):
    quick_run("deep", 1)
    with open(os.path.join(PERF_DIR, "out", "trace-deep.json")) as handle:
        trace = json.load(handle)
    assert set(trace["spans"]) == {"engine", "facade", "serve", "shard"}
    fields = trace["fields"]
    spans = trace["spans"]["facade"]
    by_id = {span[fields.index("id")]: span for span in spans}
    for span in spans:
        record = dict(zip(fields, span))
        assert record["rung"] == "facade"
        assert record["start_ns"] <= record["end_ns"]
        if record["parent"] >= 0:
            parent = dict(zip(fields, by_id[record["parent"]]))
            assert parent["name"] in ("txn", "subtxn")
            assert parent["txn"] == record["txn"]
            assert parent["start_ns"] <= record["start_ns"]
            assert record["end_ns"] <= parent["end_ns"]


def test_workload_pins_hold():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ladder

    for name in WORKLOADS:
        kept = ladder.load_workload(name, ladder.DEFAULT_SEED)
        assert len(kept.programs) == ladder.WORKLOADS[name].transactions
        assert len(kept.programs) >= 100
    other = ladder.load_workload("bank", 8)
    assert other.digest() != ladder.WORKLOADS["bank"].digest_seed7
    assert other.class_names.count("audit") == 12


def test_without_the_sources_the_command_fails_quietly(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ the
    command exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERF_DIR, tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "bank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


_ORPHAN_CHECK = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # orphans of the run come to us
done = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
try:
    os.waitpid(-1, os.WNOHANG)
    sys.exit("a process of the run outlived it")
except ChildProcessError:
    sys.exit(done.returncode)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs a subreaper")
def test_a_run_leaves_no_process_behind():
    """Not a shard worker, not multiprocessing's resource tracker, not
    a zombie: when the command returns, everything it started is gone."""
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_CHECK, sys.executable,
         os.path.join(PERF_DIR, "run.py"), "--workload", "feed",
         "--seed", "7", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
