"""The event spine: zero cost unsubscribed, ordered, serialised.

* With nothing subscribed, no event object is ever built: every spine
  event class and every model-alphabet class raises on construction
  while a seeded workload runs through each engine, the thread-safe
  facade, recovery and the simulator.
* Subscribers see a transition's event once, in transition order, and
  the recorder expands it into the model's actions in that order.
* The write-ahead log still records the post-movement generation.
* Behind the facade's one mutex, a one-thread subscriber's counts stay
  exact.
"""

import threading

import pytest

from repro.adt import Counter, IntRegister
from repro.core import events as model
from repro.core.names import ROOT
from repro.engine import Engine, ThreadSafeEngine, spine
from repro.errors import LockDenied
from repro.mvto.mv_engine import MVTOEngine
from repro.obs import Observer
from repro.scenario import get_driver
from repro.wal import recover, scan_records
from tests.engine.test_event_pins import (
    _compiled,
    _drive,
    _engine_perform,
    _facade_perform,
)

MODEL_EVENTS = [
    cls
    for cls in vars(model).values()
    if isinstance(cls, type)
    and issubclass(cls, model.Event)
    and cls is not model.Event
]


class EventBuilt(AssertionError):
    pass


@pytest.fixture
def no_events(monkeypatch):
    """Make building any spine or model-alphabet event raise."""

    def refuse(self, *args, **kwargs):
        raise EventBuilt(type(self).__name__)

    for cls in spine.EVENTS + tuple(MODEL_EVENTS):
        monkeypatch.setattr(cls, "__init__", refuse)


class TestZeroCostUnsubscribed:
    @pytest.mark.parametrize("workload", ("bank", "deep"))
    @pytest.mark.parametrize("scheme", ("moss-rw", "flat-2pl"))
    def test_engine(self, no_events, workload, scheme):
        compiled = _compiled(workload)
        engine = Engine(compiled.store(), policy=scheme)
        commits, aborts = _drive(
            engine.begin_top, compiled.programs, _engine_perform
        )
        assert commits
        assert engine.stats["denials"] > 0

    # Both ``stripes`` spellings the constructor still accepts.
    @pytest.mark.parametrize("stripes", (None, 0))
    def test_facade(self, no_events, stripes):
        compiled = _compiled("bank")
        facade = ThreadSafeEngine(compiled.store(), stripes=stripes)
        commits, aborts = _drive(
            facade.begin_top, compiled.programs, _facade_perform
        )
        assert commits and aborts

    def test_mvto(self, no_events):
        compiled = _compiled("bank")
        engine = MVTOEngine(compiled.store())
        commits, _ = _drive(
            engine.begin_top, compiled.programs, _engine_perform
        )
        assert commits

    def test_recover(self, monkeypatch):
        compiled = _compiled("deep")
        engine = Engine(compiled.store())
        wal = engine.attach_wal()
        _drive(engine.begin_top, compiled.programs, _engine_perform)
        log = wal.sink.getvalue()

        def refuse(self, *args, **kwargs):
            raise EventBuilt(type(self).__name__)

        for cls in spine.EVENTS + tuple(MODEL_EVENTS):
            monkeypatch.setattr(cls, "__init__", refuse)
        state = recover(log, specs=compiled.store())
        assert state.report.verdict == "complete"
        assert state.report.records_applied > 100

    def test_sim_driver(self, no_events):
        result = get_driver("sim").run(_compiled("bank"), scheme="moss-rw")
        assert result.committed == len(_compiled("bank").programs)
        assert result.extras["denials"] > 0


class Tape:
    """A subscriber of every kind that keeps what it is handed."""

    def __init__(self):
        self.events = []

    def __getattr__(self, name):
        if name.startswith("on_"):
            return self.events.append
        raise AttributeError(name)


class TestTransitionOrder:
    def _run(self, engine):
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("c", Counter.increment(2))
        child.commit()
        doomed = top.begin_child()
        grandchild = doomed.begin_child()
        grandchild.perform("x", IntRegister.write(5))
        doomed.abort()
        rival = engine.begin_top()
        with pytest.raises(LockDenied):
            rival.perform("c", Counter.increment(1))
        top.perform("x", IntRegister.read())
        top.commit("done")
        engine.count_deadlock()
        return top, rival

    def test_subscribers_see_transitions_in_order(self):
        tape = Tape()
        engine = Engine([Counter("c"), IntRegister("x")])
        engine.subscribe(tape)
        self._run(engine)
        increment = Counter.increment(2)
        assert tape.events == [
            spine.Began((0,)),
            spine.Began((0, 0)),
            spine.Granted((0, 0), (0, 0, 0), "c", increment, False, 2, 1),
            spine.Committed((0, 0), None, ("c",)),
            spine.Began((0, 1)),
            spine.Began((0, 1, 0)),
            spine.Granted(
                (0, 1, 0), (0, 1, 0, 0), "x", IntRegister.write(5),
                False, 0, 1,
            ),
            spine.Aborted(
                (0, 1), ((0, 1), (0, 1, 0)), ("x",), "explicit"
            ),
            spine.Began((1,)),
            spine.Denied((1,), "c", {(0,)}),
            spine.Granted(
                (0,), (0, 2), "x", IntRegister.read(), True, 0, 3
            ),
            spine.Committed((0,), "done", ("c", "x")),
            spine.Deadlocked(None),
        ]

    def test_recorder_expands_events_in_transition_order(self):
        engine = Engine([Counter("c"), IntRegister("x")], trace=True)
        self._run(engine)
        leaf, inner, read = (0, 0, 0), (0, 1, 0, 0), (0, 2)
        assert engine.recorder.schedule() == (
            model.Create(ROOT),
            model.RequestCreate((0,)),
            model.Create((0,)),
            model.RequestCreate((0, 0)),
            model.Create((0, 0)),
            model.RequestCreate(leaf),
            model.Create(leaf),
            model.RequestCommit(leaf, 2),
            model.Commit(leaf),
            model.ReportCommit(leaf, 2),
            model.InformCommitAt("c", leaf),
            model.RequestCommit((0, 0), None),
            model.Commit((0, 0)),
            model.ReportCommit((0, 0), None),
            model.InformCommitAt("c", (0, 0)),
            model.RequestCreate((0, 1)),
            model.Create((0, 1)),
            model.RequestCreate((0, 1, 0)),
            model.Create((0, 1, 0)),
            model.RequestCreate(inner),
            model.Create(inner),
            model.RequestCommit(inner, 0),
            model.Commit(inner),
            model.ReportCommit(inner, 0),
            model.InformCommitAt("x", inner),
            model.Abort((0, 1)),
            model.ReportAbort((0, 1)),
            model.InformAbortAt("x", (0, 1)),
            model.RequestCreate((1,)),
            model.Create((1,)),
            model.RequestCreate(read),
            model.Create(read),
            model.RequestCommit(read, 0),
            model.Commit(read),
            model.ReportCommit(read, 0),
            model.InformCommitAt("x", read),
            model.RequestCommit((0,), "done"),
            model.Commit((0,)),
            model.ReportCommit((0,), "done"),
            model.InformCommitAt("c", (0,)),
            model.InformCommitAt("x", (0,)),
        )

    def test_subscribe_is_idempotent(self):
        tape = Tape()
        engine = Engine([Counter("c")])
        assert engine.subscribe(tape) is engine.subscribe(tape)
        engine.begin_top()
        assert tape.events == [spine.Began((0,))]
        assert engine.subscribers == (tape,)


class TestWalGeneration:
    def test_acquire_records_the_post_movement_generation(self):
        engine = Engine([Counter("c")])
        wal = engine.attach_wal()
        managed = engine.locks.object("c")
        top = engine.begin_top()
        logged = []
        for _ in range(3):
            child = top.begin_child()
            child.perform("c", Counter.increment(1))
            # The leaf's lock moved to the child before the record.
            logged.append(managed.generation)
            child.commit()
        top.commit()
        acquires = [
            record.payload["gen"]
            for record in scan_records(wal.sink.getvalue()).records
            if record.kind_name == "acquire"
        ]
        assert acquires == logged == [1, 3, 5]


class TestStripedDispatch:
    """The facade dispatches every event under its one mutex.

    So a subscriber written for one thread keeps exact counts while
    many threads drive the facade.
    """

    def test_one_thread_subscriber_counts_stay_exact(self):
        workers, rounds = 4, 150
        observer = Observer(trace=False)
        facade = ThreadSafeEngine(
            [Counter("c%d" % index) for index in range(workers)],
            observer=observer,
        )

        def body(index):
            for _ in range(rounds):
                top = facade.begin_top()
                top.perform("c%d" % index, Counter.increment(1))
                top.commit()

        threads = [
            threading.Thread(target=body, args=(index,))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = observer.metrics.snapshot()["counters"]
        total = workers * rounds
        assert counters["txn.begin{scope=top}"] == total
        assert counters["txn.commit{scope=top}"] == total
        assert counters["access{mode=write}"] == total
        gauges = observer.metrics.snapshot()["gauges"]
        assert gauges["txn.active"]["value"] == 0
