"""Observer unit tests plus engine-integration coverage.

The integration half checks the subsystem's core promise: the recorded
span tree mirrors the transaction tree, counters agree with what the
engine actually did, and an engine without an observer behaves exactly
as before.
"""

import pytest

from repro.adt import BankAccount, Counter, IntRegister
from repro.engine import Engine
from repro.engine.spine import (
    Aborted,
    Began,
    Committed,
    Tagged,
    Waited,
    Wounded,
)
from repro.obs import Observer


# The observer is a spine subscriber; these feed it single events.
def begin(observer, name):
    observer.on_began(Began(name))


def commit(observer, name, moved=None):
    observer.on_committed(Committed(name, None, moved))


def abort(observer, name, cause="explicit", moved=None):
    observer.on_aborted(Aborted(name, (name,), moved, cause))


def wait(observer, txn, object_name, started, ended):
    observer.on_waited(Waited(txn, object_name, started, ended))


class FakeClock:
    """A settable clock so observer tests are deterministic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, amount=1.0):
        self.now += amount
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def observer(clock):
    return Observer(clock=clock)


class TestObserverUnit:
    def test_use_clock_repoints_time(self, observer):
        observer.use_clock(lambda: 123.0)
        assert observer.now() == 123.0

    def test_commit_latency_measured_by_clock(self, observer, clock):
        begin(observer, (0,))
        clock.tick(2.5)
        commit(observer, (0,))
        snap = observer.metrics.snapshot()
        assert snap["counters"]["txn.begin{scope=top}"] == 1
        assert snap["counters"]["txn.commit{scope=top}"] == 1
        histogram = snap["histograms"]["txn.commit_latency{scope=top}"]
        assert histogram["count"] == 1
        assert histogram["sum"] == 2.5

    def test_active_gauge_tracks_concurrency(self, observer):
        begin(observer, (0,))
        begin(observer, (1,))
        commit(observer, (0,))
        gauge = observer.metrics.gauge("txn.active")
        assert gauge.value == 1
        assert gauge.high_water == 2

    def test_abort_cause_first_tag_wins(self, observer):
        begin(observer, (3,))
        observer.on_tagged(Tagged((3,), "wound-wait"))
        observer.on_tagged(Tagged((3,), "deadlock"))
        abort(observer, (3,))
        snap = observer.metrics.snapshot()
        assert (
            snap["counters"]["txn.abort{cause=wound-wait,scope=top}"]
            == 1
        )

    def test_abort_without_tag_uses_given_cause(self, observer):
        begin(observer, (0, 1))
        abort(observer, (0, 1), cause="ancestor-abort")
        snap = observer.metrics.snapshot()
        assert (
            snap["counters"][
                "txn.abort{cause=ancestor-abort,scope=child}"
            ]
            == 1
        )

    def test_wound_counts_and_tags_victim_top(self, observer):
        begin(observer, (7,))
        observer.on_wounded(Wounded((7, 0), (1,)))
        abort(observer, (7,))
        snap = observer.metrics.snapshot()
        assert snap["counters"]["woundwait.victims"] == 1
        assert (
            snap["counters"]["txn.abort{cause=wound-wait,scope=top}"]
            == 1
        )

    def test_lock_wait_feeds_metrics_contention_and_trace(
        self, observer
    ):
        wait(observer, (1,), "x", 2.0, 5.0)
        snap = observer.metrics.snapshot()
        assert snap["counters"]["lock.waits"] == 1
        assert snap["histograms"]["lock.wait_time"]["sum"] == 3.0
        assert observer.contention.objects["x"].total_wait == 3.0
        (span,) = observer.tracer.completed()
        assert span.category == "wait"
        assert span.duration == 3.0

    def test_lock_transition_counts_inheritance(self, observer):
        commit(observer, (0, 1), moved=("x", "y"))
        commit(observer, (0,), moved=("x",))  # to ROOT
        abort(observer, (2,), moved=("z",))
        snap = observer.metrics.snapshot()
        assert snap["counters"]["lock.inherited"] == 2
        assert snap["counters"]["lock.released_abort"] == 1
        assert "lock.inherited" in snap["counters"]

    def test_trace_disabled_observer_still_aggregates(self, clock):
        observer = Observer(trace=False, clock=clock)
        begin(observer, (0,))
        commit(observer, (0,))
        wait(observer, (1,), "x", 0.0, 1.0)
        assert observer.tracer.completed() == []
        snap = observer.metrics.snapshot()
        assert snap["counters"]["txn.commit{scope=top}"] == 1
        assert snap["counters"]["lock.waits"] == 1


class TestEngineIntegration:
    def run_nested(self, observer):
        engine = Engine(
            [BankAccount("a", 100), IntRegister("log")],
            observer=observer,
        )
        with engine.begin_top() as top:
            child = top.begin_child()
            child.perform("a", BankAccount.withdraw(10))
            grandchild = child.begin_child()
            grandchild.perform("log", IntRegister.add(1))
            grandchild.commit()
            child.commit()
            doomed = top.begin_child()
            doomed.perform("a", BankAccount.balance())
            doomed.abort()
        observer.finish()
        return engine

    def test_span_tree_mirrors_transaction_tree(self, observer):
        self.run_nested(observer)
        spans = {
            span.txn: span
            for span in observer.tracer.completed()
            if span.category == "txn"
        }
        # One span per transaction the run created (access leaves take
        # child slots too, so the grandchild is (0, 0, 1)).
        assert set(spans) == {(0,), (0, 0), (0, 0, 1), (0, 1)}
        for name, span in spans.items():
            assert span.parent == name[:-1]
        # Children nest inside their parents in time.
        for name, span in spans.items():
            if len(name) == 1:
                continue
            parent = spans[name[:-1]]
            assert parent.start <= span.start
            assert span.end <= parent.end

    def test_outcomes_match_run(self, observer):
        self.run_nested(observer)
        outcomes = {
            span.txn: span.args["outcome"]
            for span in observer.tracer.completed()
            if span.category == "txn"
        }
        assert outcomes[(0,)] == "commit"
        assert outcomes[(0, 0)] == "commit"
        assert outcomes[(0, 1)] == "abort"

    def test_counters_match_run(self, observer):
        self.run_nested(observer)
        snap = observer.metrics.snapshot()
        counters = snap["counters"]
        assert counters["txn.begin{scope=top}"] == 1
        assert counters["txn.begin{scope=child}"] == 3
        assert counters["txn.commit{scope=top}"] == 1
        assert counters["txn.commit{scope=child}"] == 2
        assert counters["txn.abort{cause=explicit,scope=child}"] == 1
        # withdraw + add are writes; balance is a read.
        assert counters["access{mode=write}"] == 2
        assert counters["access{mode=read}"] == 1

    def test_child_commit_inherits_locks(self, observer):
        self.run_nested(observer)
        counters = observer.metrics.snapshot()["counters"]
        # Child commits moved locks to parents at least once.
        assert counters["lock.inherited"] >= 2

    def test_denial_reaches_contention_profiler(self, observer):
        from repro.errors import LockDenied

        engine = Engine([Counter("c")], observer=observer)
        holder = engine.begin_top()
        holder.perform("c", Counter.increment(1))
        waiter = engine.begin_top()
        with pytest.raises(LockDenied):
            waiter.perform("c", Counter.increment(1))
        observer.finish()
        counters = observer.metrics.snapshot()["counters"]
        assert counters["lock.denials"] == 1
        entry = observer.contention.objects["c"]
        assert entry.denials == 1
        assert entry.pairs == {((1,), (0,)): 1}

    def test_engine_without_observer_is_unobserved(self):
        engine = Engine([Counter("c")])
        assert engine.subscribers == ()
        top = engine.begin_top()
        top.perform("c", Counter.increment(1))
        top.commit()
        assert engine.object_value("c") == 1

    def test_observed_run_matches_unobserved_values(self, observer):
        observed = self.run_nested(observer)
        engine = Engine([BankAccount("a", 100), IntRegister("log")])
        with engine.begin_top() as top:
            child = top.begin_child()
            child.perform("a", BankAccount.withdraw(10))
            grandchild = child.begin_child()
            grandchild.perform("log", IntRegister.add(1))
            grandchild.commit()
            child.commit()
            doomed = top.begin_child()
            doomed.perform("a", BankAccount.balance())
            doomed.abort()
        assert observed.object_value("a") == engine.object_value("a")
        assert observed.object_value("log") == engine.object_value("log")
