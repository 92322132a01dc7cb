"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURE = str(
    Path(__file__).parent
    / "analysis"
    / "fixtures"
    / "bad_lock_discipline.py"
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.seed == 0
        assert args.systems == 3

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_validate(self, capsys):
        code = main(
            ["validate", "--systems", "1", "--schedules", "2",
             "--steps", "120"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "HOLDS" in output

    def test_explore(self, capsys):
        code = main(["explore", "--depth", "9", "--cap", "400"])
        output = capsys.readouterr().out
        assert code == 0
        assert "0 violations" in output

    def test_sweep_single_policy(self, capsys):
        code = main(
            [
                "sweep",
                "--programs", "6",
                "--objects", "6",
                "--policies", "moss-rw",
                "--mpl", "2",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "moss-rw" in output
        # Five read-fraction rows plus the header.
        assert len(output.strip().splitlines()) == 6

    def test_conformance(self, capsys):
        code = main(
            ["conformance", "--transactions", "2", "--operations", "15"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "conformance  : OK" in output

    def test_lint_repo_is_clean(self, capsys):
        code = main(["lint"])
        output = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in output

    def test_lint_flags_fixture(self, capsys):
        code = main(["lint", FIXTURE])
        output = capsys.readouterr().out
        assert code == 1
        assert "CD001" in output

    def test_lint_missing_path_is_an_error(self, capsys):
        code = main(["lint", "/no/such/path.py"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no such file" in captured.err

    def test_lint_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        output = capsys.readouterr().out
        assert code == 0
        assert "RW007" in output
        assert "Section 5.2" in output

    def test_analyze_clean(self, capsys):
        code = main(
            ["analyze", "--transactions", "2", "--operations", "15"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in output

    def test_analyze_broken_policy(self, capsys):
        code = main(
            ["analyze", "--policy", "broken-no-inherit", "--seed", "1"]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "RW007" in output

    def test_analyze_json(self, capsys):
        code = main(
            [
                "analyze",
                "--json",
                "--policy",
                "broken-no-inherit",
                "--seed",
                "1",
            ]
        )
        output = capsys.readouterr().out
        assert code == 1
        payload = json.loads(output)
        assert payload["ok"] is False
        codes = {
            finding["code"]
            for report in payload["reports"]
            for finding in report["findings"]
        }
        assert "RW007" in codes

    def test_orphan(self, capsys):
        code = main(["orphan"])
        output = capsys.readouterr().out
        assert code == 0
        assert "anomaly" in output
        assert "T0.0.0" in output

    def test_orphan_verbose_prints_schedule(self, capsys):
        code = main(["orphan", "--verbose"])
        output = capsys.readouterr().out
        assert code == 0
        assert "ABORT(T0.0)" in output

    def test_trace_quickstart_report(self, capsys):
        code = main(["trace", "--workload", "quickstart"])
        output = capsys.readouterr().out
        assert code == 0
        assert output.startswith("workload quickstart (seed 0):")
        assert "transfers=" in output
        assert "== spans ==" in output
        assert "== metrics ==" in output
        assert "== lock contention (top 10) ==" in output
        assert "txn.commit{scope=top}" in output

    def test_trace_chrome_export_is_valid(self, capsys, tmp_path):
        from tests.obs.test_exporters import (
            assert_tracks_are_consistent,
        )

        path = tmp_path / "trace.json"
        code = main(
            ["trace", "--workload", "banking", "--out", str(path)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "chrome trace : %s" % path in output
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        assert_tracks_are_consistent(payload["traceEvents"])

    def test_trace_jsonl_export(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(["trace", "--jsonl", str(path)])
        capsys.readouterr()
        assert code == 0
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert records[-2]["type"] == "metrics"
        assert records[-1]["type"] == "contention"

    def test_trace_rejects_unknown_workload(self, capsys):
        # Workload names are resolved at run time (scenario:<name>
        # entries are dynamic), so rejection is exit code 2, not a
        # parse-time SystemExit.
        code = main(["trace", "--workload", "frobnicate"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown workload" in captured.err

    def test_top_prints_contention_table(self, capsys):
        code = main(
            [
                "top",
                "--programs", "12",
                "--objects", "4",
                "--mpl", "6",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        lines = output.splitlines()
        assert lines[0].startswith("policy moss-rw, seed 3:")
        assert "committed" in lines[0]
        assert "makespan" in lines[0]
        # The table header and at least one hot object.
        assert "object" in lines[1]
        assert "denials" in lines[1]
        assert len(lines) >= 3

    def test_top_limit_bounds_table(self, capsys):
        code = main(
            [
                "top",
                "--programs", "12",
                "--objects", "4",
                "--mpl", "6",
                "--seed", "3",
                "--limit", "1",
                "--no-trace",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        # Summary line + header + exactly one row.
        assert len(output.strip().splitlines()) == 3

    def test_fuzz_replay_trace_out(self, capsys, tmp_path):
        path = tmp_path / "fuzz_trace.json"
        code = main(
            [
                "fuzz",
                "--seed", "5",
                "--choices", "",
                "--trace-out", str(path),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "trace  : %s" % path in output
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        report = (tmp_path / "fuzz_trace.json.report.txt").read_text()
        assert "== metrics ==" in report

    def test_dist(self, capsys):
        code = main(
            ["dist", "--programs", "6", "--objects", "6"]
        )
        output = capsys.readouterr().out
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 5  # header + 4 site counts
        assert lines[1].startswith("1")


class TestRecoverCommand:
    """Exit codes mirror ``repro audit``: 0/1/4/2."""

    @pytest.fixture()
    def wal_dir(self, tmp_path):
        from repro.adt import Counter, IntRegister
        from repro.engine.engine import Engine
        from repro.wal import FileWalSink

        engine = Engine(
            [Counter("c"), IntRegister("x")], policy="moss-rw"
        )
        wal = engine.attach_wal(sink=FileWalSink(str(tmp_path)))
        top = engine.begin_top()
        top.perform("c", Counter.increment(5))
        top.commit()
        dangling = engine.begin_top()
        dangling.perform("x", IntRegister.write(9))
        wal.flush()
        return tmp_path

    def test_complete_log_exits_zero(self, capsys, wal_dir):
        code = main(["recover", str(wal_dir)])
        output = capsys.readouterr().out
        assert code == 0
        assert "recovery: complete" in output
        assert "committed c = 5" in output
        assert "presumed-abort: T1" in output

    def test_no_presume_abort_keeps_the_top(self, capsys, wal_dir):
        code = main(["recover", str(wal_dir), "--no-presume-abort"])
        output = capsys.readouterr().out
        assert code == 0
        assert "presumed-abort" not in output

    def test_torn_log_exits_one(self, capsys, wal_dir):
        from repro.wal import read_log_bytes

        torn = wal_dir / "torn.bin"
        torn.write_bytes(read_log_bytes(str(wal_dir))[:-3])
        code = main(["recover", str(torn)])
        output = capsys.readouterr().out
        assert code == 1
        assert "recovery: partial" in output
        assert "stopped: torn" in output

    def test_headerless_log_exits_four(self, capsys, wal_dir):
        empty = wal_dir / "empty.bin"
        empty.write_bytes(b"")
        code = main(["recover", str(empty)])
        captured = capsys.readouterr()
        assert code == 4
        assert "no segment header" in captured.err

    def test_missing_log_exits_two(self, capsys, tmp_path):
        code = main(["recover", str(tmp_path / "missing.bin")])
        captured = capsys.readouterr()
        assert code == 2
        assert "repro recover:" in captured.err

    def test_out_writes_report(self, capsys, wal_dir, tmp_path):
        report = tmp_path / "recovery.txt"
        code = main(["recover", str(wal_dir), "--out", str(report)])
        output = capsys.readouterr().out
        assert code == 0
        assert "recovery report : %s" % report in output
        assert "recovery: complete" in report.read_text()
