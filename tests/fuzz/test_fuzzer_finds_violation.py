"""End-to-end: the fuzzer finds, minimises, and replays known bugs.

This is the acceptance test for the fuzz subsystem: seed a known-broken
policy (``NoInheritPolicy`` -- commit of an access-leaf *drops* its
locks instead of inheriting them to the parent, the exact mistake the
paper's INFORM_COMMIT rule exists to prevent) and prove the pipeline

    fuzz_search -> check_engine_trace -> shrink_choices -> replay

deterministically catches it, reduces it, and reproduces it byte for
byte.  Fault modes that do *not* break the model (crashes, denial
spikes, orphan creation) must conversely stay conformant: the engine's
guards absorb them.
"""

from dataclasses import replace

import pytest

from repro.fuzz import (
    FuzzConfig,
    emit_regression_test,
    fuzz_search,
    run_case,
    same_failure,
    shrink_choices,
)

BROKEN = FuzzConfig(seed=7, faults="broken-no-inherit")


@pytest.fixture(scope="module")
def found():
    search = fuzz_search(BROKEN, runs=5)
    assert search.failure is not None, "fuzzer missed a known bug"
    return search


class TestFindsNoInheritViolation:
    def test_first_attempt_finds_it(self, found):
        # The violation is schedule-independent, so attempt one on the
        # base seed must already expose it.
        assert found.attempts == 1
        assert found.failure.config.seed == 7

    def test_classified_as_conformance_failure(self, found):
        failure = found.failure
        assert failure.kind == "conformance"
        assert failure.failed
        # Dropped inheritance shows up as linter violations of the R/W
        # rules.
        assert "RW001" in failure.rule_codes

    def test_finding_lines_mention_rules(self, found):
        text = "\n".join(found.failure.finding_lines)
        assert "RW007" in text
        assert "rejected" in text  # the refinement replay diagnosis

    def test_shrinks_to_empty_schedule(self, found):
        # No particular interleaving is needed -- the policy is broken
        # on *every* schedule -- so ddmin must reach the empty list.
        result = shrink_choices(found.failure.config, found.failure)
        assert result.minimized.choices == []
        assert result.removed == len(found.failure.choices)
        assert same_failure(result.minimized, found.failure.signature)

    def test_replay_is_byte_for_byte(self, found):
        first = run_case(BROKEN, choices=found.failure.choices)
        second = run_case(BROKEN, choices=found.failure.choices)
        assert first.digest == second.digest == found.failure.digest
        assert first.decisions == found.failure.decisions

    def test_emitted_regression_test_pins_the_failure(self, found):
        source = emit_regression_test(found.failure)
        assert "def test_fuzz_regression_seed_7" in source
        assert "broken-no-inherit" in source
        assert found.failure.digest in source
        # The emitted file must be importable python.
        compile(source, "<emitted>", "exec")

    def test_correct_policy_same_schedule_is_clean(self, found):
        # Same seed, same choice list, correct policy: conformant.
        # This pins the blame on the policy, not the schedule.
        fixed = replace(found.failure.config, faults="none")
        result = run_case(fixed, choices=found.failure.choices)
        assert not result.failed


ORPHAN = FuzzConfig(
    seed=7,
    faults="orphan",
    transactions_per_worker=3,
    steps_per_transaction=5,
)


class TestOrphanFaultMode:
    """The new fault mode: inject orphans, engine must refuse them."""

    @pytest.fixture(scope="class")
    def orphan_case(self):
        return run_case(ORPHAN)

    def test_orphans_are_created_and_refused(self, orphan_case):
        hits = sum(
            log.orphan_guard_hits for log in orphan_case.logs
        )
        assert hits > 0

    def test_trace_stays_conformant(self, orphan_case):
        # Orphaned work never reaches the lock tables, so the trace
        # must still refine M(X).
        assert not orphan_case.failed
        assert orphan_case.kind == "ok"

    def test_orphan_run_is_deterministic(self, orphan_case):
        again = run_case(ORPHAN)
        assert again.digest == orphan_case.digest


class TestBenignFaultsStayConformant:
    @pytest.mark.parametrize("faults", ["crash", "deny-spike"])
    def test_single_run(self, faults):
        result = run_case(FuzzConfig(seed=3, faults=faults))
        assert not result.failed

    def test_crashes_actually_happen(self):
        result = run_case(FuzzConfig(seed=5, faults="crash"))
        assert sum(log.crashed for log in result.logs) > 0
        assert not result.failed

    @pytest.mark.slow
    @pytest.mark.parametrize("faults", ["chaos", "crash", "orphan"])
    def test_many_seeds(self, faults):
        for seed in range(8):
            result = run_case(FuzzConfig(seed=seed, faults=faults))
            assert not result.failed, (
                "seed %d faults=%s: %s %s"
                % (seed, faults, result.kind, result.rule_codes)
            )
