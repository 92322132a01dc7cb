"""Unit and integration tests for the nested-transaction engine."""

import gc
import sys

import pytest

from repro.adt import BankAccount, Counter, IntRegister
from repro.engine import Engine, TransactionStatus
from repro.errors import (
    EngineError,
    InvalidTransactionState,
    LockDenied,
    TransactionAborted,
)


@pytest.fixture
def engine():
    return Engine([BankAccount("a", 100), BankAccount("b", 0)])


class TestLifecycle:
    def test_begin_commit(self, engine):
        txn = engine.begin_top()
        assert txn.is_top_level
        assert txn.is_active
        txn.commit("v")
        assert txn.status is TransactionStatus.COMMITTED
        assert txn.value == "v"

    def test_names_are_paths(self, engine):
        top = engine.begin_top()
        child = top.begin_child()
        grandchild = child.begin_child()
        assert top.name == (0,)
        assert child.name[:1] == (0,)
        assert grandchild.name[: len(child.name)] == child.name
        assert grandchild.depth == 3

    def test_dropped_engine_frees_its_names(self):
        # Names are plain tuples: nothing outside the engine (no
        # process-wide pool) keeps one alive once the engine is gone.
        engine = Engine([BankAccount("a", 100)])
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("a", BankAccount.deposit(5))
        child.commit()
        top.commit()
        top_name, child_name = top.name, child.name
        del engine, top, child
        gc.collect()
        # One reference from the local, one from getrefcount's argument.
        assert sys.getrefcount(top_name) == 2
        assert sys.getrefcount(child_name) == 2

    def test_commit_with_live_children_rejected(self, engine):
        top = engine.begin_top()
        top.begin_child()
        with pytest.raises(InvalidTransactionState):
            top.commit()

    def test_dead_handle_rejected(self, engine):
        txn = engine.begin_top()
        txn.commit()
        with pytest.raises(InvalidTransactionState):
            txn.perform("a", BankAccount.balance())
        with pytest.raises(InvalidTransactionState):
            txn.commit()

    def test_orphan_detection(self, engine):
        top = engine.begin_top()
        child = top.begin_child()
        grandchild = child.begin_child()
        top.abort()
        assert grandchild.status is TransactionStatus.ABORTED
        with pytest.raises(InvalidTransactionState):
            grandchild.perform("a", BankAccount.balance())

    def test_context_manager_commits(self, engine):
        with engine.begin_top() as txn:
            txn.perform("a", BankAccount.deposit(1))
        assert txn.status is TransactionStatus.COMMITTED
        assert engine.object_value("a") == 101

    def test_context_manager_aborts_on_exception(self, engine):
        with pytest.raises(RuntimeError):
            with engine.begin_top() as txn:
                txn.perform("a", BankAccount.deposit(1))
                raise RuntimeError("boom")
        assert txn.status is TransactionStatus.ABORTED
        assert engine.object_value("a") == 100

    def test_unknown_object_rejected(self, engine):
        txn = engine.begin_top()
        with pytest.raises(EngineError):
            txn.perform("ghost", BankAccount.balance())


class TestIsolation:
    def test_uncommitted_writes_invisible_to_other_trees(self, engine):
        writer = engine.begin_top()
        writer.perform("a", BankAccount.withdraw(60))
        reader = engine.begin_top()
        with pytest.raises(LockDenied):
            reader.perform("a", BankAccount.balance())

    def test_committed_writes_visible(self, engine):
        writer = engine.begin_top()
        writer.perform("a", BankAccount.withdraw(60))
        writer.commit()
        reader = engine.begin_top()
        assert reader.perform("a", BankAccount.balance()) == 40

    def test_concurrent_readers(self, engine):
        one = engine.begin_top()
        two = engine.begin_top()
        assert one.perform("a", BankAccount.balance()) == 100
        assert two.perform("a", BankAccount.balance()) == 100

    def test_reader_blocks_writer(self, engine):
        reader = engine.begin_top()
        reader.perform("a", BankAccount.balance())
        writer = engine.begin_top()
        with pytest.raises(LockDenied):
            writer.perform("a", BankAccount.deposit(1))

    def test_parent_sees_committed_child_work(self, engine):
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("a", BankAccount.withdraw(30))
        child.commit()
        assert top.perform("a", BankAccount.balance()) == 70

    def test_sibling_blocked_until_child_commits(self, engine):
        top = engine.begin_top()
        one = top.begin_child()
        one.perform("a", BankAccount.withdraw(30))
        two = top.begin_child()
        with pytest.raises(LockDenied):
            two.perform("a", BankAccount.balance())
        one.commit()
        assert two.perform("a", BankAccount.balance()) == 70


class TestRecovery:
    def test_child_abort_restores_object_state(self, engine):
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("a", BankAccount.withdraw(50))
        child.perform("b", BankAccount.deposit(50))
        child.abort()
        assert top.perform("a", BankAccount.balance()) == 100
        assert top.perform("b", BankAccount.balance()) == 0

    def test_nested_abort_keeps_siblings_work(self, engine):
        top = engine.begin_top()
        keeper = top.begin_child()
        keeper.perform("a", BankAccount.withdraw(10))
        keeper.commit()
        loser = top.begin_child()
        loser.perform("b", BankAccount.deposit(99))
        loser.abort()
        top.commit()
        assert engine.object_value("a") == 90
        assert engine.object_value("b") == 0

    def test_top_abort_restores_everything(self, engine):
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("a", BankAccount.withdraw(50))
        child.commit()
        top.abort()
        assert engine.object_value("a") == 100

    def test_deep_nesting_inheritance(self):
        engine = Engine([Counter("c")])
        top = engine.begin_top()
        level1 = top.begin_child()
        level2 = level1.begin_child()
        level2.perform("c", Counter.increment(5))
        level2.commit()
        level1.commit()
        # Value is visible inside the tree but not committed globally.
        assert top.perform("c", Counter.value()) == 5
        assert engine.object_value("c") == 0
        top.commit()
        assert engine.object_value("c") == 5


class TestDeadlockHooks:
    def test_fresh_blockers(self):
        engine = Engine([IntRegister("x")])
        one = engine.begin_top()
        one.perform("x", IntRegister.add(1))
        two = engine.begin_top()
        blockers = engine.fresh_blockers(two, "x", IntRegister.read())
        assert blockers == {(0,)}
        one.commit()
        assert engine.fresh_blockers(two, "x", IntRegister.read()) == set()


class TestStats:
    def test_counters(self, engine):
        txn = engine.begin_top()
        txn.perform("a", BankAccount.balance())
        txn.commit()
        other = engine.begin_top()
        other.abort()
        assert engine.stats["accesses"] == 1
        # Access leaves commit inline and are counted under "accesses".
        assert engine.stats["commits"] == 1
        assert engine.stats["aborts"] == 1
