"""Integration tests: engine traces refine the model and satisfy Theorem 34."""

import random

import pytest

from repro.adt import BankAccount, Counter, IntRegister
from repro.checking import check_engine_trace, trace_logic_factory
from repro.engine import Engine
from repro.errors import EngineError, LockDenied, TruncatedTrace


def drive_simple_run(policy="moss-rw"):
    engine = Engine(
        [BankAccount("a", 100), BankAccount("b", 0), IntRegister("x")],
        policy=policy,
        trace=True,
    )
    t1 = engine.begin_top()
    leg = t1.begin_child()
    leg.perform("a", BankAccount.withdraw(30))
    leg.perform("b", BankAccount.deposit(30))
    leg.commit("moved")
    t2 = engine.begin_top()
    t2.perform("x", IntRegister.read())
    doomed = t1.begin_child()
    doomed.perform("x", IntRegister.read())
    doomed.abort()
    t1.commit("transfer")
    t2.perform("x", IntRegister.add(1))
    t2.commit("bump")
    return engine


class TestConformance:
    def test_moss_trace_conforms(self):
        report = check_engine_trace(drive_simple_run())
        assert report.refinement_ok, report.rejection
        assert report.ok
        assert report.trace_length > 20

    def test_exclusive_trace_conforms(self):
        engine = Engine([IntRegister("x")], policy="exclusive", trace=True)
        one = engine.begin_top()
        one.perform("x", IntRegister.read())
        one.commit()
        two = engine.begin_top()
        two.perform("x", IntRegister.add(2))
        two.abort()
        report = check_engine_trace(engine)
        assert report.ok, report.rejection

    def test_flat_policy_rejected(self):
        engine = Engine([IntRegister("x")], policy="flat-2pl", trace=True)
        with pytest.raises(EngineError):
            check_engine_trace(engine)

    def test_untraced_engine_rejected(self):
        engine = Engine([IntRegister("x")])
        with pytest.raises(EngineError):
            check_engine_trace(engine)

    def test_random_engine_runs_conform(self):
        """Randomised interleavings of engine calls all conform."""
        rng = random.Random(17)
        for trial in range(5):
            engine = Engine(
                [Counter("c"), IntRegister("x")], trace=True
            )
            tops = [engine.begin_top() for _ in range(3)]
            live = {top.name: top for top in tops}
            operations = [
                ("c", Counter.increment(1)),
                ("c", Counter.value()),
                ("x", IntRegister.add(2)),
                ("x", IntRegister.read()),
            ]
            for _ in range(25):
                if not live:
                    break
                txn = rng.choice(list(live.values()))
                roll = rng.random()
                if roll < 0.55:
                    object_name, operation = rng.choice(operations)
                    try:
                        txn.perform(object_name, operation)
                    except LockDenied:
                        pass
                elif roll < 0.7:
                    child = txn.begin_child()
                    try:
                        child.perform(*rng.choice(operations))
                    except LockDenied:
                        pass
                    if rng.random() < 0.5:
                        child.commit()
                    else:
                        child.abort()
                elif roll < 0.85:
                    if not txn.live_children():
                        txn.commit()
                        del live[txn.name]
                else:
                    txn.abort()
                    del live[txn.name]
            for txn in list(live.values()):
                for child in txn.live_children():
                    child.abort()
                txn.commit()
            report = check_engine_trace(engine)
            assert report.ok, (trial, report.rejection)


class TestLockstep:
    """Engine/M(X) lock-table lockstep (guards the grant fast path)."""

    def test_clean_run_reports_lockstep(self):
        report = check_engine_trace(drive_simple_run())
        assert report.lockstep_ok
        assert report.lockstep_error is None
        assert report.ok

    def test_exclusive_run_reports_lockstep(self):
        engine = Engine([IntRegister("x")], policy="exclusive", trace=True)
        top = engine.begin_top()
        top.perform("x", IntRegister.add(3))
        top.commit()
        report = check_engine_trace(engine)
        assert report.lockstep_ok
        assert report.ok

    def test_corrupted_holder_table_fails_lockstep(self):
        """A holder the trace never granted must break the comparison:
        this is what a fast-path bug that strands or invents a lock
        would look like."""
        engine = drive_simple_run()
        engine.locks.object("x").write_holders.add((9, 9))
        report = check_engine_trace(engine)
        assert report.refinement_ok  # the trace itself is still fine
        assert not report.lockstep_ok
        assert "x" in report.lockstep_error
        assert "(9, 9)" in report.lockstep_error
        assert not report.ok

    def test_missing_holder_fails_lockstep(self):
        engine = Engine([Counter("c")], policy="moss-rw", trace=True)
        top = engine.begin_top()
        top.perform("c", Counter.increment(1))
        # Leave `top` live: it still holds the write lock, so silently
        # dropping it from the engine table must be caught.
        engine.locks.object("c").write_holders.discard(top.name)
        report = check_engine_trace(engine)
        assert not report.lockstep_ok
        assert "c" in report.lockstep_error


class TestTruncatedTraces:
    """A ring buffer that dropped events kept a suffix, not a run."""

    def test_a_truncated_trace_is_refused(self):
        engine = Engine([Counter("c")], trace=True, trace_limit=4)
        for _ in range(3):
            top = engine.begin_top()
            top.perform("c", Counter.increment(1))
            top.commit()
        assert engine.recorder.dropped_events
        with pytest.raises(TruncatedTrace):
            check_engine_trace(engine)

    def test_fuzz_case_with_a_kept_suffix_is_not_a_violation(self):
        from repro.fuzz import FuzzConfig, run_case

        # Replaying the kept 40 events from a fresh system rejected
        # the first one, and the correct run came back "conformance".
        assert run_case(FuzzConfig(seed=3), trace_limit=40).kind == "ok"
        assert run_case(FuzzConfig(seed=3), trace_limit=200).kind == "ok"


class TestTraceLogicFactory:
    def test_reconstructs_requests_and_values(self):
        engine = drive_simple_run()
        alpha = engine.recorder.schedule()
        factory = trace_logic_factory(
            alpha, engine.recorder.commit_values
        )
        logic_t1 = factory((0,))
        assert logic_t1.has_commit
        assert logic_t1.commit_value == "transfer"
        assert set(logic_t1.wanted) == {(0, 0), (0, 1)}
        logic_root = factory(())
        assert not logic_root.has_commit
        assert set(logic_root.wanted) == {(0,), (1,)}
