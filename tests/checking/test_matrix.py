"""The mutant kill matrix, pinned (EXPERIMENTS.md E27 on fewer seeds).

Each cell counts the runs a checker flags.  A mutant that no checker
kills, or a checker that loses a kill, fails here; so does a checker
that flags the unbroken control.  ``benchmarks/bench_e27_mutants.py``
runs the same matrix on the E27 seeds.
"""

import pytest

from repro.checking.matrix import CHECKERS, CONTROL, POLICIES, KillMatrix
from repro.fuzz import FuzzConfig, run_case

#: Seeds per driver: the random driver is cheap; a fuzz run pays
#: ~130 ms of Theorem 34 checking.
SEEDS = {"random": range(12), "fuzz": range(2)}

_ORDER = ("refinement", "lockstep", "theorem34", "linter", "auditor",
          "classical")

#: driver -> policy -> kills per checker, in ``_ORDER``.
PINNED = {
    "random": {
        "broken-no-inherit": (12, 0, 9, 12, 5, 5),
        "broken-abort-keeps-versions": (6, 0, 4, 6, 0, 0),
        "broken-abort-keeps-locks": (0, 12, 0, 0, 0, 0),
        "broken-inherit-past-parent": (12, 0, 8, 12, 3, 3),
        "broken-all-reads": (12, 0, 9, 12, 0, 5),
    },
    "fuzz": {
        "broken-no-inherit": (2, 0, 2, 2, 2, 2),
        "broken-abort-keeps-versions": (2, 0, 2, 2, 0, 0),
        "broken-abort-keeps-locks": (0, 2, 0, 0, 0, 0),
        "broken-inherit-past-parent": (2, 0, 2, 2, 2, 2),
        "broken-all-reads": (2, 0, 2, 2, 0, 2),
    },
}


@pytest.fixture(scope="module", params=sorted(SEEDS))
def matrix(request):
    return KillMatrix(request.param, SEEDS[request.param])


def test_the_pins_cover_every_checker_and_mutant():
    assert set(_ORDER) == set(CHECKERS)
    for pins in PINNED.values():
        assert set(pins) == set(POLICIES) - {CONTROL}


def test_no_checker_flags_the_control(matrix):
    flagged = {
        name: matrix.count(CONTROL, name)
        for name in CHECKERS
        if matrix.count(CONTROL, name)
    }
    assert not flagged


def test_every_mutant_is_killed(matrix):
    for policy in POLICIES:
        if policy != CONTROL:
            assert any(
                matrix.count(policy, name) for name in CHECKERS
            ), policy


def test_no_checker_loses_a_kill(matrix):
    for policy, pins in PINNED[matrix.driver].items():
        counts = tuple(matrix.count(policy, name) for name in _ORDER)
        lost = [
            (name, count, pin)
            for name, count, pin in zip(_ORDER, counts, pins)
            if count < pin
        ]
        assert not lost, (policy, lost)


def test_the_linter_flags_all_a_schedule_checker_flags(matrix):
    # Why one schedule checker suffices for finding bugs: every run
    # any checker of the recorded schedule flags, the linter flags.
    for policy in POLICIES:
        linted = matrix.kills[policy, "linter"]
        for name in CHECKERS:
            if name != "lockstep":
                assert matrix.kills[policy, name] <= linted, (policy, name)


def test_only_lockstep_sees_leaked_locks(matrix):
    # Why lockstep stays: locks kept past an abort leave every recorded
    # schedule valid; only the live lock tables show them.
    policy = "broken-abort-keeps-locks"
    assert matrix.unique(policy, "lockstep") == frozenset(matrix.seeds)


def test_leaked_locks_stall_the_fuzz_controller():
    # Under threads the leak is also a liveness bug: a worker parks on
    # a lock no live tree holds, and the progress oracle reports it.
    result = run_case(
        FuzzConfig(
            seed=0,
            transactions_per_worker=3,
            faults="broken-abort-keeps-locks",
        )
    )
    assert result.kind == "stall"
