"""Race freedom of recorded schedules: the grant rule RW007.

A race is an access granted while a non-ancestor holds a conflicting
lock on the same object.  The schedule linter's grant rule (RW007)
is the race check: the kill matrix (E27) shows it flags every run a
separate happens-before detector flagged.  These tests pin RW007 on
its own, and check that each clean workload did contain a conflicting
pair of accesses, so that "no race" is not vacuous.
"""

import pytest

from repro.analysis import lint_schedule
from repro.analysis.faults import NoInheritPolicy
from repro.checking.matrix import drive_random_workload
from repro.core.events import RequestCommit

from tests.checking.test_conformance import drive_simple_run


def trace_of(engine):
    recorder = engine.recorder
    return recorder.schedule(), recorder.system_type(engine.specs)


def races(events, system_type):
    return lint_schedule(events, system_type).by_code("RW007")


def has_conflicting_accesses(events, system_type):
    """True if two accesses touch one object, at least one writing.

    Distinct accesses are leaves, so neither is the other's ancestor:
    each such pair is one the grant rule must order.
    """
    by_object = {}
    for event in events:
        if isinstance(event, RequestCommit) and system_type.is_access(
            event.transaction
        ):
            name = event.transaction
            by_object.setdefault(system_type.object_of(name), []).append(
                system_type.operation_of(name).is_read
            )
    return any(
        len(reads) > 1 and not all(reads) for reads in by_object.values()
    )


class TestCleanTraces:
    def test_simple_run_has_no_races(self):
        events, system_type = trace_of(drive_simple_run())
        assert has_conflicting_accesses(events, system_type)
        found = races(events, system_type)
        assert not found, [str(f) for f in found]

    @pytest.mark.parametrize("policy", ["moss-rw", "exclusive"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_workloads_have_no_races(self, policy, seed):
        engine = drive_random_workload(seed, 4, 60, policy=policy)
        events, system_type = trace_of(engine)
        assert has_conflicting_accesses(events, system_type)
        found = races(events, system_type)
        assert not found, [str(f) for f in found]


class TestSeededViolations:
    def test_no_inherit_policy_races(self):
        engine = drive_random_workload(
            0, 4, 60, policy=NoInheritPolicy()
        )
        events, system_type = trace_of(engine)
        found = races(events, system_type)
        assert found
        # Each race is localised to the grant itself: the access's
        # REQUEST_COMMIT, on the object the finding names.
        for finding in found:
            event = events[finding.event_index]
            assert isinstance(event, RequestCommit)
            assert event.transaction == finding.transaction
            assert system_type.is_access(finding.transaction)
            assert (
                system_type.object_of(finding.transaction)
                == finding.object_name
            )
