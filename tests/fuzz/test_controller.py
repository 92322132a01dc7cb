"""Determinism and replay of the interleaving controller."""

import threading
import time

import pytest

from repro.fuzz import (
    BoundedPreemptionStrategy,
    FuzzConfig,
    InterleavingController,
    ReplayStrategy,
    run_case,
)


@pytest.fixture(scope="module")
def clean_case():
    return run_case(FuzzConfig(seed=11))


class TestDeterminism:
    def test_same_seed_same_run(self, clean_case):
        again = run_case(FuzzConfig(seed=11))
        assert again.decisions == clean_case.decisions
        assert again.digest == clean_case.digest
        assert again.trace_length == clean_case.trace_length

    def test_different_seed_different_schedule(self, clean_case):
        other = run_case(FuzzConfig(seed=12))
        assert other.digest != clean_case.digest

    def test_replay_choice_list_is_exact(self, clean_case):
        replay = run_case(
            FuzzConfig(seed=11), choices=clean_case.decisions
        )
        assert replay.decisions == clean_case.decisions
        assert replay.digest == clean_case.digest

    def test_clean_run_is_conformant(self, clean_case):
        assert not clean_case.failed
        assert clean_case.kind == "ok"
        assert clean_case.rule_codes == ()

    def test_workers_all_made_progress(self, clean_case):
        assert len(clean_case.logs) == 3
        assert all(log.performed for log in clean_case.logs)


class TestReplayFallback:
    def test_short_choice_list_is_deterministic(self):
        first = run_case(FuzzConfig(seed=11), choices=[2, 2, 1])
        second = run_case(FuzzConfig(seed=11), choices=[2, 2, 1])
        assert first.digest == second.digest
        # The canonical reproducer input is echoed back, while the
        # full decision record keeps going past it.
        assert first.choices == [2, 2, 1]
        assert first.decision_count > 3

    def test_invalid_choice_falls_back(self):
        # Worker 9 never exists: every decision falls back to the
        # lowest runnable id, same as an empty list.
        via_invalid = run_case(FuzzConfig(seed=11), choices=[9] * 50)
        via_empty = run_case(FuzzConfig(seed=11), choices=[])
        assert via_invalid.digest == via_empty.digest


class TestStrategies:
    def test_replay_strategy_falls_back_to_min(self):
        strategy = ReplayStrategy([1])
        assert strategy.pick(0, (0, 1, 2)) == 1
        assert strategy.pick(1, (0, 2)) == 0
        assert strategy.pick(5, (2,)) == 2

    def test_bounded_strategy_is_nonpreemptive_by_default(self):
        strategy = BoundedPreemptionStrategy()
        assert strategy.pick(0, (0, 1, 2)) == 0
        assert strategy.pick(1, (0, 1, 2)) == 0
        # Current worker blocks: switch to the lowest runnable.
        assert strategy.pick(2, (1, 2)) == 1
        assert strategy.pick(3, (1, 2)) == 1

    def test_bounded_strategy_preempts_at_chosen_decision(self):
        strategy = BoundedPreemptionStrategy({1: 0})
        assert strategy.pick(0, (0, 1, 2)) == 0
        # Preemption: leave worker 0 for the next worker over.
        assert strategy.pick(1, (0, 1, 2)) == 1
        assert strategy.pick(2, (0, 1, 2)) == 1

    def test_bounded_run_is_deterministic(self):
        first = run_case(
            FuzzConfig(seed=11),
            strategy=BoundedPreemptionStrategy({3: 0}),
        )
        second = run_case(
            FuzzConfig(seed=11),
            strategy=BoundedPreemptionStrategy({3: 0}),
        )
        assert first.digest == second.digest
        assert not first.failed


class TestStall:
    def test_stall_does_not_leak_out_of_waiting_workers(self, monkeypatch):
        # Worker 0 overruns its turn; worker 1, still waiting for its
        # first turn, must unwind into its own error slot rather than
        # escape to the thread excepthook, and finish.
        leaked = []
        monkeypatch.setattr(threading, "excepthook", leaked.append)
        controller = InterleavingController(
            ReplayStrategy([0]), turn_timeout=0.2
        )
        controller.spawn(0, lambda: time.sleep(1.0))
        controller.spawn(1, lambda: None)
        controller.run(lambda worker_id: True)
        assert controller.stalled
        for thread in controller._threads.values():
            thread.join(timeout=5.0)
        assert leaked == []
        assert all(
            state.phase == "done" for state in controller._states.values()
        )
