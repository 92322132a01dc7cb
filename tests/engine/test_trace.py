"""Unit tests for engine trace recording."""

import pytest

from repro.adt import Counter, IntRegister
from repro.core.events import Create, RequestCommit
from repro.core.names import ROOT
from repro.engine import Engine
from repro.engine.trace import TraceRecorder


class TestTraceRecorder:
    def test_records_events_in_order(self):
        recorder = TraceRecorder()
        recorder.record(Create(ROOT))
        recorder.record(Create((0,)))
        assert recorder.schedule() == (Create(ROOT), Create((0,)))

    def test_system_type_rebuild(self):
        engine = Engine([Counter("c"), IntRegister("x")], trace=True)
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("c", Counter.increment(1))
        child.commit()
        top.perform("x", IntRegister.read())
        top.commit()
        system_type = engine.recorder.system_type(engine.specs)
        # The tree has exactly the nodes the run created.
        assert system_type.contains(top.name)
        assert system_type.contains(child.name)
        accesses = list(system_type.all_accesses())
        assert len(accesses) == 2
        objects = {system_type.object_of(a) for a in accesses}
        assert objects == {"c", "x"}

    def test_access_operation_recorded(self):
        engine = Engine([Counter("c")], trace=True)
        top = engine.begin_top()
        top.perform("c", Counter.increment(7))
        top.commit()
        system_type = engine.recorder.system_type(engine.specs)
        access = next(iter(system_type.all_accesses()))
        operation = system_type.operation_of(access)
        assert operation.kind == "increment"
        assert operation.args == (7,)

    def test_commit_values_tracked(self):
        engine = Engine([Counter("c")], trace=True)
        top = engine.begin_top()
        top.commit("the-value")
        assert engine.recorder.commit_values[top.name] == "the-value"

    def test_read_reclassified_under_exclusive(self):
        engine = Engine([Counter("c")], policy="exclusive", trace=True)
        top = engine.begin_top()
        top.perform("c", Counter.value())
        top.commit()
        system_type = engine.recorder.system_type(engine.specs)
        access = next(iter(system_type.all_accesses()))
        assert not system_type.is_read_access(access)

    def test_read_kept_under_moss(self):
        engine = Engine([Counter("c")], policy="moss-rw", trace=True)
        top = engine.begin_top()
        top.perform("c", Counter.value())
        top.commit()
        system_type = engine.recorder.system_type(engine.specs)
        access = next(iter(system_type.all_accesses()))
        assert system_type.is_read_access(access)


class TestRingBufferMode:
    def test_unbounded_by_default(self):
        recorder = TraceRecorder()
        assert recorder.bounded is False
        for index in range(100):
            recorder.record(Create((index,)))
        assert len(recorder.schedule()) == 100
        assert recorder.dropped_events == 0

    def test_tail_is_preserved_and_drops_counted(self):
        recorder = TraceRecorder(max_events=3)
        assert recorder.bounded is True
        for index in range(10):
            recorder.record(Create((index,)))
        # The newest three events survive, oldest first.
        assert recorder.schedule() == (
            Create((7,)),
            Create((8,)),
            Create((9,)),
        )
        assert recorder.dropped_events == 7

    def test_no_drops_until_full(self):
        recorder = TraceRecorder(max_events=5)
        for index in range(5):
            recorder.record(Create((index,)))
        assert recorder.dropped_events == 0
        assert len(recorder.schedule()) == 5

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)
        with pytest.raises(ValueError):
            TraceRecorder(max_events=-3)

    def test_engine_passes_trace_limit_through(self):
        engine = Engine([Counter("c")], trace=True, trace_limit=4)
        for _ in range(3):
            top = engine.begin_top()
            top.perform("c", Counter.increment(1))
            top.commit()
        assert engine.recorder.bounded
        assert len(engine.recorder.schedule()) == 4
        assert engine.recorder.dropped_events > 0
        # The tail is the newest events: the last commit's lock hand-off
        # (the InformCommitAt for "c") is the final retained event.
        kinds = [type(e).__name__ for e in engine.recorder.schedule()]
        assert kinds[-1] == "InformCommitAt"

    def test_system_type_survives_truncation(self):
        # The tree metadata is kept outside the ring buffer, so the
        # emergent system type is complete even when events dropped.
        engine = Engine([Counter("c")], trace=True, trace_limit=2)
        top = engine.begin_top()
        top.perform("c", Counter.increment(1))
        top.commit()
        system_type = engine.recorder.system_type(engine.specs)
        assert system_type.contains(top.name)
        assert len(list(system_type.all_accesses())) == 1


class TestUntraced:
    def test_untraced_engine_has_no_recorder(self):
        engine = Engine([Counter("c")])
        assert engine.recorder is None
        assert engine.subscribers == ()
