"""Tests for the thread-safe blocking facade."""

import threading
import time

import pytest

from repro.adt import BankAccount, Counter
from repro.engine.threadsafe import ThreadSafeEngine
from repro.errors import (
    InvalidTransactionState,
    LockDenied,
    TransactionAborted,
)


@pytest.fixture
def facade():
    return ThreadSafeEngine([BankAccount("acct", 100), Counter("c")])


class TestSingleThread:
    def test_basic_flow(self, facade):
        with facade.begin_top() as txn:
            txn.perform("acct", BankAccount.deposit(10))
        assert facade.object_value("acct") == 110

    def test_context_manager_aborts_on_error(self, facade):
        with pytest.raises(RuntimeError):
            with facade.begin_top() as txn:
                txn.perform("acct", BankAccount.deposit(10))
                raise RuntimeError("boom")
        assert facade.object_value("acct") == 100

    def test_children(self, facade):
        top = facade.begin_top()
        child = top.begin_child()
        child.perform("c", Counter.increment(1))
        child.commit()
        top.commit()
        assert facade.object_value("c") == 1

    def test_timeout_raises_lock_denied(self, facade):
        holder = facade.begin_top()
        holder.perform("acct", BankAccount.deposit(1))
        # An older waiter cannot wound... make the waiter YOUNGER so it
        # waits (wound-wait: younger waits on older).
        waiter = facade.begin_top()
        with pytest.raises(LockDenied):
            waiter.perform(
                "acct", BankAccount.balance(), timeout=0.05
            )
        holder.commit()


class TestThreads:
    def test_blocking_wait_resolves(self, facade):
        """A younger reader blocks until the older writer commits."""
        holder = facade.begin_top()
        holder.perform("acct", BankAccount.withdraw(40))
        results = {}

        def reader():
            txn = facade.begin_top()
            results["balance"] = txn.perform(
                "acct", BankAccount.balance(), timeout=5.0
            )
            txn.commit()

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        holder.commit()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results["balance"] == 60

    def test_wound_wait_aborts_younger_holder(self, facade):
        """An older transaction wounds the younger lock-holder."""
        elder = facade.begin_top()
        younger = facade.begin_top()
        younger.perform("acct", BankAccount.deposit(5))
        # The elder wants the lock: the younger holder is wounded.
        balance = elder.perform("acct", BankAccount.balance(), timeout=5.0)
        assert balance == 100
        assert not younger.is_active
        with pytest.raises(TransactionAborted):
            younger.perform("acct", BankAccount.balance())
        elder.commit()

    def test_many_threads_conserve_money(self, facade):
        """Concurrent transfers keep the committed total constant."""
        errors = []

        def worker(index):
            for _ in range(5):
                try:
                    txn = facade.begin_top()
                    txn.perform(
                        "acct",
                        BankAccount.deposit(1),
                        timeout=5.0,
                    )
                    txn.perform("c", Counter.increment(1), timeout=5.0)
                    txn.commit()
                except (TransactionAborted, InvalidTransactionState):
                    continue  # wounded: drop this iteration
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert all(not thread.is_alive() for thread in threads)
        # Deposits and the counter moved in lockstep: every committed
        # transaction did exactly one of each.
        deposited = facade.object_value("acct") - 100
        assert deposited == facade.object_value("c")
        assert 0 < deposited <= 20


class TestTimeoutDeadline:
    def test_timeout_bounds_total_wait_under_signal_storm(
        self, facade
    ):
        """Regression: *timeout* is a deadline, not a per-wait budget.

        The condition variable is signalled by every commit in the
        system.  A waiter whose 0.15 s timeout were re-applied to each
        individual wait would never expire while unrelated commits keep
        arriving every ~10 ms; with a monotonic deadline it must raise
        within the timeout regardless of signal traffic.
        """
        holder = facade.begin_top()
        holder.perform("acct", BankAccount.deposit(1))
        stop = threading.Event()

        def noise():
            # Unrelated commits, each of which signals the condition.
            while not stop.is_set():
                txn = facade.begin_top()
                txn.perform("c", Counter.increment(1), timeout=5.0)
                txn.commit()
                time.sleep(0.01)

        thread = threading.Thread(target=noise)
        thread.start()
        try:
            waiter = facade.begin_top()
            started = time.monotonic()
            with pytest.raises(LockDenied):
                waiter.perform(
                    "acct", BankAccount.balance(), timeout=0.15
                )
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert elapsed < 1.0, (
            "timeout restarted on every signal: %.2fs" % elapsed
        )
        holder.commit()


def _wound(facade, elder, handle):
    # The older tree wants the lock the handle holds: wound-wait.
    elder.perform("acct", BankAccount.balance(), timeout=5.0)


def _abort_top(facade, elder, handle):
    assert facade.abort_top(handle.name)


class TestDeadHandleContract:
    """A dead tree's handles raise ``TransactionAborted``, named right.

    ``abort_top`` documents it as the same contract as a wound: the
    owner's next ``perform``, ``begin_child`` or ``commit`` on any
    handle of the tree raises ``TransactionAborted`` whose
    ``transaction_id`` is that handle's name.
    """

    @pytest.mark.parametrize("kill", [_wound, _abort_top])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_every_call_raises_transaction_aborted(
        self, facade, kill, depth
    ):
        elder = facade.begin_top()
        top = facade.begin_top()
        handle = top if depth == 1 else top.begin_child()
        handle.perform("acct", BankAccount.deposit(5))
        kill(facade, elder, handle)
        assert not handle.is_active
        calls = {
            "perform": lambda: handle.perform(
                "c", Counter.value(), timeout=1.0
            ),
            "begin_child": handle.begin_child,
            "commit": handle.commit,
        }
        for label, call in calls.items():
            with pytest.raises(TransactionAborted) as excinfo:
                call()
            assert excinfo.value.transaction_id == handle.name, label
        # Aborting a dead handle stays an idempotent no-op.
        handle.abort()
        elder.commit()
        assert facade.object_value("acct") == 100


class TestWoundWaitEdges:
    def test_victim_already_inactive_is_not_wounded(self, facade):
        """A blocker that died before the wound lands is left alone."""
        elder = facade.begin_top()
        younger = facade.begin_top()
        younger.perform("acct", BankAccount.deposit(5))
        younger.abort()
        # Hand _wound a stale denial still naming the dead transaction
        # (the race: the blocker aborted between the denial and the
        # wound).  It must decline to wound and not blow up.
        denial = LockDenied(
            "stale", blockers={younger._inner.name}
        )
        with facade._mutex:
            assert facade._wound(elder._inner, denial) is False
        # The elder still gets the (now free) lock.
        assert elder.perform("acct", BankAccount.balance()) == 100
        elder.commit()

    def test_sibling_blocker_is_waited_for_not_wounded(self, facade):
        """Blockers under the waiter's own top are relatives: no wound.

        A younger-created child holding a conflicting sibling lock must
        make its sibling *wait* (here: time out), never abort it --
        wounding within one's own tree would be self-sabotage.
        """
        top = facade.begin_top()
        writer = top.begin_child()
        writer.perform("c", Counter.increment(1))
        reader = top.begin_child()
        with pytest.raises(LockDenied):
            reader.perform("c", Counter.value(), timeout=0.05)
        # Nothing in the family was aborted by the denial.
        assert top.is_active
        assert writer.is_active
        assert reader.is_active
        # Once the writer commits, the lock is inherited by `top`, an
        # ancestor of the reader, so the read proceeds.
        writer.commit()
        assert reader.perform("c", Counter.value()) == 1
        reader.commit()
        top.commit()

    def test_abort_races_blocked_perform(self, facade):
        """Aborting a transaction parked inside perform() unblocks it.

        The waiter sits in the condition wait; another thread aborts it
        (exactly what a wound does).  The retry after wake-up must
        surface the death as an exception, not hang or succeed.
        """
        holder = facade.begin_top()
        holder.perform("acct", BankAccount.deposit(1))
        waiter = facade.begin_top()
        outcome = {}

        def blocked_reader():
            try:
                outcome["value"] = waiter.perform(
                    "acct", BankAccount.balance(), timeout=10.0
                )
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=blocked_reader)
        thread.start()
        time.sleep(0.1)  # let it park in the condition wait
        waiter.abort()  # signals the condition; waiter retries, dies
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert "value" not in outcome
        assert isinstance(outcome["error"], TransactionAborted)
        holder.commit()

    def test_commit_races_blocked_perform(self, facade):
        """A commit that lands while a sibling thread waits unblocks it
        with the result, exercising the release -> retry path."""
        holder = facade.begin_top()
        holder.perform("acct", BankAccount.deposit(7))
        waiter = facade.begin_top()
        outcome = {}

        def blocked_reader():
            outcome["value"] = waiter.perform(
                "acct", BankAccount.balance(), timeout=10.0
            )
            waiter.commit()

        thread = threading.Thread(target=blocked_reader)
        thread.start()
        time.sleep(0.05)
        holder.commit()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome["value"] == 107
