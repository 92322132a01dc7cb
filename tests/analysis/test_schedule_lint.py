"""Tests for the schedule linter (rules RW001...RW008)."""

import dataclasses

import pytest

from repro.adt import IntRegister
from repro.analysis import ScheduleLinter, analyze_engine, lint_schedule
from repro.analysis.faults import NoInheritPolicy
from repro.analysis.schedule import SCHEDULE_RULES, STRUCTURAL_RULES
from repro.checking.anomalies import orphan_anomaly_witness
from repro.checking.matrix import drive_random_workload
from repro.core.events import (
    Commit,
    Create,
    InformAbortAt,
    InformCommitAt,
    RequestCommit,
)

from tests.checking.test_conformance import drive_simple_run


def trace_of(engine):
    recorder = engine.recorder
    return recorder.schedule(), recorder.system_type(engine.specs)


class TestCleanTraces:
    def test_simple_run_has_no_findings(self):
        events, system_type = trace_of(drive_simple_run())
        report = lint_schedule(events, system_type)
        assert report.ok, [str(f) for f in report.findings]

    @pytest.mark.parametrize("policy", ["moss-rw", "exclusive"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_workloads_have_no_findings(self, policy, seed):
        engine = drive_random_workload(seed, 4, 60, policy=policy)
        events, system_type = trace_of(engine)
        report = lint_schedule(events, system_type)
        assert report.ok, [str(f) for f in report.findings]

    def test_rule_selection(self):
        assert ScheduleLinter().rules() == STRUCTURAL_RULES
        _, system_type = trace_of(drive_simple_run())
        assert ScheduleLinter(system_type).rules() == SCHEDULE_RULES


class TestSeededViolations:
    def test_lock_leak_flagged_as_rw001(self):
        events, system_type = trace_of(drive_simple_run())
        # Drop the last INFORM_COMMIT: that lock is never inherited.
        last = max(
            index
            for index, event in enumerate(events)
            if isinstance(event, InformCommitAt)
        )
        leaked = events[:last] + events[last + 1:]
        report = lint_schedule(leaked, system_type)
        assert "RW001" in report.codes()
        finding = report.by_code("RW001")[0]
        assert finding.object_name == events[last].object_name

    def test_orphan_witness_flagged_as_rw002_only(self):
        witness = orphan_anomaly_witness()
        report = lint_schedule(witness.schedule, witness.system_type)
        assert report.codes() == ("RW002",)
        finding = report.by_code("RW002")[0]
        # The flagged access lives inside the orphaned subtree.
        assert finding.transaction[: len(witness.orphan)] == witness.orphan

    def test_orphan_found_without_system_type(self):
        witness = orphan_anomaly_witness()
        report = lint_schedule(witness.schedule)
        assert "RW002" in report.codes()

    def test_commit_without_create_flagged_as_rw003(self):
        events, system_type = trace_of(drive_simple_run())
        report = lint_schedule(
            events + (Commit((9,)),), system_type
        )
        assert "RW003" in report.codes()

    def test_inform_for_stranger_flagged_as_rw004(self):
        events, system_type = trace_of(drive_simple_run())
        report = lint_schedule(
            events + (InformCommitAt("x", (9, 9)),), system_type
        )
        assert "RW004" in report.codes()

    def test_premature_inform_abort_flagged_as_rw004(self):
        events, system_type = trace_of(drive_simple_run())
        report = lint_schedule(
            events + (InformAbortAt("x", (9, 9)),), system_type
        )
        assert "RW004" in report.codes()

    def test_missing_inform_abort_flagged_as_rw007_and_rw001(self):
        # drive_simple_run has a doomed child read of "x" whose lock
        # discard (INFORM_ABORT) is the only thing letting the later
        # write of "x" through.  Without it the write is an illegal
        # grant and the aborted reader's lock is stranded.
        events, system_type = trace_of(drive_simple_run())
        censored = tuple(
            event
            for event in events
            if not (
                isinstance(event, InformAbortAt)
                and event.object_name == "x"
            )
        )
        report = lint_schedule(censored, system_type)
        assert {"RW001", "RW007"} <= set(report.codes())
        assert all(
            finding.object_name == "x" for finding in report.findings
        )

    def test_wrong_access_value_flagged_as_rw005(self):
        events, system_type = trace_of(drive_simple_run())
        mutated = []
        broken = False
        for event in events:
            if (
                not broken
                and isinstance(event, RequestCommit)
                and system_type.is_access(event.transaction)
                and system_type.object_of(event.transaction) == "x"
            ):
                event = dataclasses.replace(event, value=999)
                broken = True
            mutated.append(event)
        assert broken
        report = lint_schedule(tuple(mutated), system_type)
        assert "RW005" in report.codes()

    def test_duplicate_create_flagged_as_rw006(self):
        events, system_type = trace_of(drive_simple_run())
        first_create = next(
            event for event in events if isinstance(event, Create)
        )
        report = lint_schedule(events + (first_create,), system_type)
        assert "RW006" in report.codes()

    def test_no_inherit_policy_flagged_as_rw007_and_rw001(self):
        engine = drive_random_workload(
            0, 4, 60, policy=NoInheritPolicy()
        )
        events, system_type = trace_of(engine)
        report = lint_schedule(events, system_type)
        assert "RW007" in report.codes()
        assert "RW001" in report.codes()
        # Every finding carries an event index for localisation.
        assert all(
            finding.event_index is not None
            for finding in report.findings
        )

    def test_analyze_engine_returns_the_linter_report(self):
        engine = drive_random_workload(
            1, 4, 60, policy=NoInheritPolicy()
        )
        report = analyze_engine(engine)
        assert report.subject == "schedule"
        assert not report.ok
        assert report.codes() == lint_schedule(*trace_of(engine)).codes()

    def test_duplicate_return_flagged_as_rw008(self):
        events, system_type = trace_of(drive_simple_run())
        last_commit = next(
            event
            for event in reversed(events)
            if isinstance(event, Commit)
        )
        report = lint_schedule(events + (last_commit,), system_type)
        assert "RW008" in report.codes()

    def test_findings_render_with_rule_code_and_location(self):
        events, system_type = trace_of(
            drive_random_workload(1, 4, 60, policy=NoInheritPolicy())
        )
        report = lint_schedule(events, system_type)
        rendered = str(report.findings[0])
        assert rendered.startswith(report.findings[0].rule.code)
        assert "event" in rendered
