"""Engines keep only live trees, and a tree's age lives on its handle.

When a top-level transaction commits or aborts, ``Engine`` and
``MVTOEngine`` forget every node of its tree; a handle the caller still
holds answers ``status``.  The memory test drives 10 000 trees through
each engine, the thread-safe facade and a ``serve`` session and bounds
what stays allocated afterwards.
"""

import gc
import tracemalloc

import pytest

from repro.adt import Counter, Register
from repro.engine import Engine
from repro.engine.spine import Aborted
from repro.engine.threadsafe import ThreadSafeEngine
from repro.engine.transaction import TransactionStatus
from repro.errors import EngineError, TransactionAborted
from repro.mvto import MVTOEngine, mv_object
from repro.serve.session import Session
from repro.wal import recover

TREES = 10_000
WARMUP = 500
#: Bytes a finished tree may leave behind, on average.
BYTES_PER_TREE = 16


def _specs():
    return [Register("a", 0), Register("b", 0)]


class TestForgetFinishedTrees:
    @pytest.mark.parametrize("make", [Engine, MVTOEngine])
    @pytest.mark.parametrize("finish", ["commit", "abort"])
    def test_top_finish_drops_every_node(self, make, finish):
        engine = make(_specs())
        top = engine.begin_top()
        child = top.begin_child()
        grandchild = child.begin_child()
        grandchild.perform("a", Register.write(1))
        grandchild.commit()
        aborted = top.begin_child()
        aborted.abort()
        # An aborted child stays known while its tree lives.
        assert set(engine.transactions) == {
            (0,), (0, 0), (0, 0, 0), (0, 1)
        }
        child.commit()
        getattr(top, finish)()
        assert engine.transactions == {}
        # Handles outlive the tree and still answer their status.
        expected = (
            TransactionStatus.COMMITTED
            if finish == "commit"
            else TransactionStatus.ABORTED
        )
        assert top.status is expected
        assert top.children == [] and child.children == []
        with pytest.raises(EngineError):
            engine.transaction((0,))

    def test_mvto_forgets_the_tree_timestamp(self):
        engine = MVTOEngine(_specs())
        first = engine.begin_top()
        second = engine.begin_top()
        first.perform("a", Register.write(1))
        first.commit()
        second.abort()
        assert engine._tree_ts == {} and engine._ts_owner == {}

    def test_mvto_timestamp_conflict_forgets_the_tree(self):
        engine = MVTOEngine([Counter("c")])
        early = engine.begin_top()
        late = engine.begin_top()
        late.perform("c", Counter.value())
        with pytest.raises(TransactionAborted):
            early.perform("c", Counter.increment(1))
        assert early.status is TransactionStatus.ABORTED
        assert set(engine.transactions) == {late.name}

    def test_attach_wal_still_refused_after_trees_finished(self):
        engine = Engine(_specs())
        engine.begin_top().commit()
        with pytest.raises(EngineError):
            engine.attach_wal()


class TestAge:
    def test_engine_age_is_at_or_the_begin_clock(self):
        engine = Engine(_specs())
        first = engine.begin_top()
        child = first.begin_child()
        second = engine.begin_top()
        pinned = engine.begin_top(at=-4.5)
        assert first.age < second.age
        assert child.age == first.age
        assert pinned.age == -4.5

    def test_mvto_age_is_at_or_the_timestamp(self):
        engine = MVTOEngine(_specs())
        first = engine.begin_top()
        pinned = engine.begin_top(ts=40)
        chosen = engine.begin_top(at=2.5)
        assert first.age == float(engine._tree_ts[first.name])
        assert pinned.age == 40.0
        assert chosen.age == 2.5
        assert first.begin_child().age == first.age


class TestRecoveryOfForgottenTrees:
    def _log(self, *extra_aborts):
        engine = Engine(_specs())
        wal = engine.attach_wal()
        top = engine.begin_top()
        top.perform("a", Register.write(3))
        top.commit()
        live = engine.begin_top()
        live.perform("b", Register.write(4))
        for name in extra_aborts:
            # A late ABORT record, as a wound racing a commit can log.
            wal.on_aborted(Aborted(name, (name,), (), "explicit"))
        wal.flush()
        return wal.sink.getvalue()

    def test_abort_of_a_finished_tree_replays_as_a_no_op(self):
        state = recover(self._log((0,)))
        assert state.report.verdict == "complete"
        assert state.report.committed == {"a": 3, "b": None}
        assert state.report.presumed_aborted == ((1,),)
        assert state.engine.transactions == {}

    @pytest.mark.parametrize("name", [(7,), (1, 5)])
    def test_abort_of_a_name_that_never_began_stops(self, name):
        state = recover(self._log(name))
        assert state.report.stopped == "corrupt"
        assert "never began" in state.report.detail


def _engine_tree(engine):
    def run():
        top = engine.begin_top()
        top.perform("a", Register.read())
        child = top.begin_child()
        child.perform("b", Register.write(1))
        child.commit()
        top.commit()

    return run


def _session_tree(session):
    def run():
        top = session.run({"id": 1, "op": "begin"})["txn"]
        session.run({"id": 2, "op": "read", "txn": top, "object": "a"})
        child = session.run({"id": 3, "op": "child", "txn": top})["txn"]
        session.run(
            {"id": 4, "op": "write", "txn": child, "object": "b",
             "value": 1}
        )
        session.run({"id": 5, "op": "commit", "txn": child})
        assert session.run({"id": 6, "op": "commit", "txn": top})["ok"]

    return run


def _growth_per_tree(run_tree, drop_history=None):
    """Bytes still allocated per tree after TREES trees and a collection."""
    for _ in range(WARMUP):
        run_tree()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(TREES):
            run_tree()
        if drop_history is not None:
            drop_history()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    exclude = [tracemalloc.Filter(False, tracemalloc.__file__)]
    if drop_history is not None:
        exclude.append(tracemalloc.Filter(False, mv_object.__file__))
    diff = after.filter_traces(exclude).compare_to(
        before.filter_traces(exclude), "filename"
    )
    return sum(stat.size_diff for stat in diff) / TREES


class TestMemoryFollowsLiveTrees:
    def test_engine(self):
        growth = _growth_per_tree(_engine_tree(Engine(_specs())))
        assert growth < BYTES_PER_TREE

    def test_mvto_apart_from_its_version_chain(self):
        # Every committed write adds a Version (~96 B with its
        # timestamp) to the object's chain: that chain is the
        # multiversion history by design, and nothing prunes it yet.
        # Everything else a finished tree leaves must be gone, so the
        # chain alone is cut back to its newest version (dropping the
        # Versions and their timestamps) and mv_object.py's own
        # allocations are left out of the count.
        engine = MVTOEngine(_specs())

        def drop_history():
            for obj in engine.objects.values():
                del obj.versions[:-1]

        growth = _growth_per_tree(_engine_tree(engine), drop_history)
        assert growth < BYTES_PER_TREE

    def test_facade(self):
        growth = _growth_per_tree(_engine_tree(ThreadSafeEngine(_specs())))
        assert growth < BYTES_PER_TREE

    def test_serve_session(self):
        session = Session(ThreadSafeEngine(_specs()), conn_id=1)
        growth = _growth_per_tree(_session_tree(session))
        assert growth < BYTES_PER_TREE
        assert session.handles == {}
