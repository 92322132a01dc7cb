"""Tests for who the thread-safe facade wakes, and what it counts.

The facade holds one mutex for every engine transition; a denied
access parks on its object's condition, and a commit, abort or wound
notifies only the conditions of the objects the finishing tree
touched -- as does a ``perform`` that aborts its own tree.  These
tests pin that targeting with a spy condition, check that a parked
waiter whose own tree dies wakes and raises, and hammer the facade
from real threads.
"""

import threading
import time

import pytest

from repro.adt import Counter
from repro.engine.threadsafe import ThreadSafeEngine
from repro.errors import (
    InvalidTransactionState,
    LockDenied,
    TransactionAborted,
)
from repro.obs import Observer


class SpyCondition(threading.Condition):
    """A condition that counts its parkings and broadcasts."""

    def __init__(self, lock):
        super().__init__(lock)
        self.parked = 0
        self.notified = 0

    def wait(self, timeout=None):
        self.parked += 1
        return super().wait(timeout)

    def notify_all(self):
        self.notified += 1
        super().notify_all()


def _spy(facade, object_name):
    spy = SpyCondition(facade._mutex)
    facade._waiting[object_name] = spy
    return spy


def _until(predicate, limit=5.0):
    deadline = time.monotonic() + limit
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class _Parked:
    """Run one blocking perform on a thread; keep its outcome."""

    def __init__(self, txn, object_name, operation):
        self.result = None
        self.error = None
        self.thread = threading.Thread(
            target=self._run, args=(txn, object_name, operation)
        )
        self.thread.start()

    def _run(self, txn, object_name, operation):
        try:
            self.result = txn.perform(object_name, operation, timeout=10.0)
        except Exception as exc:
            self.error = exc

    def join(self):
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()


class TestTargetedWakeups:
    def test_unrelated_commit_does_not_wake_a_parked_waiter(self):
        facade = ThreadSafeEngine([Counter("a"), Counter("b")])
        spy = _spy(facade, "a")
        holder = facade.begin_top()
        holder.perform("a", Counter.increment(1))
        waiter = _Parked(facade.begin_top(), "a", Counter.increment(1))
        _until(lambda: spy.parked == 1)
        # A tree that touched only b commits: a's waiter sleeps on.
        other = facade.begin_top()
        other.perform("b", Counter.increment(1))
        other.commit()
        assert spy.notified == 0
        assert spy.parked == 1
        # The holder's commit releases a and wakes exactly its waiter.
        holder.commit()
        waiter.join()
        assert spy.notified == 1
        assert waiter.error is None

    def test_a_grant_wakes_nobody(self):
        facade = ThreadSafeEngine([Counter("a")])
        spy = _spy(facade, "a")
        reader = facade.begin_top()
        reader.perform("a", Counter.value())
        reader.perform("a", Counter.value())
        assert spy.notified == 0
        reader.commit()
        assert spy.notified == 1

    def test_wounded_parked_victim_wakes_and_raises(self):
        facade = ThreadSafeEngine([Counter("a"), Counter("b")])
        spy = _spy(facade, "a")
        holder = facade.begin_top()  # oldest: nobody can wound it
        elder = facade.begin_top()
        victim = facade.begin_top()  # youngest
        holder.perform("a", Counter.increment(1))
        victim.perform("b", Counter.increment(1))
        parked = _Parked(victim, "a", Counter.increment(1))
        _until(lambda: spy.parked == 1)
        # The elder wants b, wounds the victim, and so wakes it on a.
        assert elder.perform("b", Counter.value(), timeout=5.0) == 0
        parked.join()
        assert isinstance(parked.error, TransactionAborted)
        assert not victim.is_active
        elder.commit()
        holder.commit()

    def test_abort_top_wakes_its_parked_waiter(self):
        facade = ThreadSafeEngine([Counter("a")])
        spy = _spy(facade, "a")
        holder = facade.begin_top()
        holder.perform("a", Counter.increment(1))
        waiter = facade.begin_top()
        parked = _Parked(waiter, "a", Counter.increment(1))
        _until(lambda: spy.parked == 1)
        assert facade.abort_top(waiter.name) is True
        parked.join()
        assert isinstance(parked.error, TransactionAborted)
        holder.commit()
        assert facade.object_value("a") == 1

    def test_a_tree_aborted_inside_perform_wakes_its_objects(self):
        # Under MVTO a write can abort its own tree from inside
        # ``perform``.  No commit or abort call follows, so the failed
        # perform must wake the waiters on the objects the tree wrote.
        facade = ThreadSafeEngine(
            [Counter("x"), Counter("y")], policy="mvto"
        )
        ts1, ts2, ts3 = [facade.begin_top() for _ in range(3)]
        ts1.perform("x", Counter.increment(1))
        ts3.perform("y", Counter.value())
        ts3.commit()
        parked = _Parked(ts2, "x", Counter.value())  # waits for ts1
        _until(lambda: facade.engine.stats["denials"] == 1)
        # ts3 already read y, so ts1's write there is too late.
        with pytest.raises(TransactionAborted):
            ts1.perform("y", Counter.increment(1))
        parked.thread.join(timeout=2.0)
        assert not parked.thread.is_alive()
        assert parked.error is None
        assert parked.result == 0
        ts2.commit()

    def test_finished_trees_leave_no_touched_sets(self):
        facade = ThreadSafeEngine([Counter("a"), Counter("b")])
        for finish in ("commit", "abort"):
            top = facade.begin_top()
            child = top.begin_child()
            child.perform("a", Counter.increment(1))
            child.commit()
            top.perform("b", Counter.increment(1))
            getattr(top, finish)()
        wounded = facade.begin_top()
        wounded.perform("a", Counter.increment(1))
        facade.abort_top(wounded.name)
        with pytest.raises(TransactionAborted):
            wounded.perform("b", Counter.increment(1))
        assert facade._touched == {}


class TestSemantics:
    def test_timeout_raises_lock_denied(self):
        facade = ThreadSafeEngine([Counter("c")])
        holder = facade.begin_top()
        holder.perform("c", Counter.increment(1))
        waiter = facade.begin_top()
        with pytest.raises(LockDenied):
            waiter.perform("c", Counter.increment(1), timeout=0.05)
        holder.commit()

    def test_older_wounds_younger_holder(self):
        facade = ThreadSafeEngine([Counter("c")])
        older = facade.begin_top()
        younger = facade.begin_top()
        younger.perform("c", Counter.increment(3))
        assert older.perform("c", Counter.value(), timeout=5.0) == 0
        assert not younger.is_active
        older.commit()

    def test_nested_commits_reach_the_objects(self):
        facade = ThreadSafeEngine([Counter("a"), Counter("b")])
        top = facade.begin_top()
        child = top.begin_child()
        child.perform("a", Counter.increment(2))
        child.commit()
        top.perform("b", Counter.increment(5))
        top.commit()
        assert facade.object_value("a") == 2
        assert facade.object_value("b") == 5


def test_stripes_accepts_only_the_one_regime():
    for stripes in (None, 0):
        ThreadSafeEngine([Counter("c")], stripes=stripes)
    with pytest.raises(ValueError):
        ThreadSafeEngine([Counter("c")], stripes=4)


class _Worker:
    """Increment shared and private counters, retrying on wounds."""

    def __init__(self, facade, worker_id, rounds, hold=0.0):
        self.facade = facade
        self.own = "c%d" % worker_id
        self.rounds = rounds
        self.hold = hold
        self.granted = 0
        self.error = None

    def __call__(self):
        try:
            for _ in range(self.rounds):
                self._one_round()
        except Exception as exc:  # pragma: no cover - surfaced below
            self.error = exc

    def _one_round(self):
        while True:
            top = self.facade.begin_top()
            try:
                top.perform("shared", Counter.increment(1), timeout=30.0)
                self.granted += 1
                if self.hold:
                    time.sleep(self.hold)
                top.perform(self.own, Counter.increment(1), timeout=30.0)
                self.granted += 1
                top.commit()
                return
            except (TransactionAborted, InvalidTransactionState,
                    LockDenied):
                try:
                    if top.is_active:
                        top.abort()
                except InvalidTransactionState:
                    pass


def _run_workers(facade, workers, rounds, hold=0.0):
    bodies = [_Worker(facade, i, rounds, hold) for i in range(workers)]
    threads = [threading.Thread(target=body) for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    for body in bodies:
        assert body.error is None
    return bodies


def _specs(workers):
    return [Counter("shared")] + [
        Counter("c%d" % i) for i in range(workers)
    ]


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_threaded_increments_are_conserved(workers):
    rounds = 25
    facade = ThreadSafeEngine(_specs(workers))
    _run_workers(facade, workers, rounds)
    assert facade.object_value("shared") == workers * rounds
    for i in range(workers):
        assert facade.object_value("c%d" % i) == rounds


def test_engine_stats_are_exact_after_a_threaded_run():
    workers, rounds = 8, 20
    observer = Observer(trace=False)
    facade = ThreadSafeEngine(_specs(workers), observer=observer)
    bodies = _run_workers(facade, workers, rounds, hold=0.0005)
    stats = facade.engine.stats
    counters = observer.metrics.snapshot()["counters"]
    # Every granted access returned to exactly one caller, and every
    # denial reached the spine once: the engine's plain-int counters
    # lost no increment to a race.
    assert stats["accesses"] == sum(body.granted for body in bodies)
    assert stats["accesses"] == counters["access{mode=write}"]
    assert stats["denials"] == counters["lock.denials"] > 0
    assert stats["commits"] == workers * rounds


def test_mvto_increments_are_conserved():
    # MVTO aborts whole trees from inside ``perform``; the facade then
    # wakes the dead tree's objects, and retried work still adds up.
    workers, rounds = 4, 15
    facade = ThreadSafeEngine(_specs(workers), policy="mvto")
    _run_workers(facade, workers, rounds, hold=0.0005)
    assert facade.object_value("shared") == workers * rounds
    for i in range(workers):
        assert facade.object_value("c%d" % i) == rounds
