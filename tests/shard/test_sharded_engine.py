"""The sharded engine's facade surface: routing, 2PC, wound-wait.

Every test spawns real worker processes (spawn context, one engine
per shard), so the suite keeps workloads small -- the goal is protocol
and lifecycle coverage, not throughput (benchmarks/bench_e25 does
that).
"""

import pytest

from repro.adt import Counter, IntRegister
from repro.engine.spine import Wounded
from repro.errors import EngineError, TransactionAborted
from repro.obs import Observer
from repro.shard import ShardedEngine
from repro.shard.engine import placement_sharding


def _specs(registers=4, counters=2):
    specs = [IntRegister("r%d" % index) for index in range(registers)]
    specs += [Counter("c%d" % index) for index in range(counters)]
    return specs


def _spread_sharding(name, shards):
    """Deterministic round-robin over the trailing digit: guarantees
    objects land on different shards, so commits really cross."""
    return int(name[1:]) % shards


class TestLifecycle:
    def test_single_worker_fast_path(self):
        with ShardedEngine(_specs(), workers=1) as engine:
            assert engine.shards == 1
            top = engine.begin_top()
            top.perform("c0", Counter.increment(3))
            assert top.perform("c0", Counter.value()) == 3
            top.commit()
            assert engine.object_value("c0") == 3
            assert engine.stats["commits"] == 1
            # A single participant takes the one-phase path: the
            # worker saw no prepare.
            (stats,) = engine.shard_stats()
            assert stats["engine"]["commits"] >= 1

    def test_workers_clamped_to_object_count(self):
        with ShardedEngine([Counter("only")], workers=4) as engine:
            assert engine.shards == 1

    def test_close_is_idempotent(self):
        engine = ShardedEngine(_specs(), workers=2).start()
        engine.close()
        engine.close()
        with pytest.raises(EngineError):
            engine.begin_top()

    def test_worker_pids_are_real_processes(self):
        with ShardedEngine(_specs(), workers=2) as engine:
            pids = engine.worker_pids
            assert len(pids) == 2
            assert all(pid > 0 for pid in pids)


class TestCrossShard:
    def test_two_phase_commit_spans_shards(self):
        with ShardedEngine(
            _specs(), workers=2, sharding=_spread_sharding
        ) as engine:
            top = engine.begin_top()
            top.perform("r0", IntRegister.write(7))  # shard 0
            top.perform("r1", IntRegister.write(9))  # shard 1
            top.commit()
            assert engine.object_value("r0") == 7
            assert engine.object_value("r1") == 9
            # Both shards saw engine work for the same tree.
            per_shard = engine.shard_stats()
            assert all(s["engine"]["accesses"] >= 1 for s in per_shard)

    def test_cross_shard_abort_undoes_both_shards(self):
        with ShardedEngine(
            _specs(), workers=2, sharding=_spread_sharding
        ) as engine:
            top = engine.begin_top()
            top.perform("r0", IntRegister.write(7))
            top.perform("r1", IntRegister.write(9))
            top.abort()
            assert engine.object_value("r0") == 0
            assert engine.object_value("r1") == 0
            assert engine.stats["aborts"] == 1

    def test_nested_child_commit_merges_to_parent(self):
        with ShardedEngine(
            _specs(), workers=2, sharding=_spread_sharding
        ) as engine:
            top = engine.begin_top()
            child = top.begin_child()
            child.perform("r1", IntRegister.write(5))
            child.commit()
            # The child's write survives through the parent...
            assert top.perform("r1", IntRegister.read()) == 5
            top.commit()
            assert engine.object_value("r1") == 5

    def test_nested_child_abort_discards_only_child(self):
        with ShardedEngine(
            _specs(), workers=2, sharding=_spread_sharding
        ) as engine:
            top = engine.begin_top()
            top.perform("r0", IntRegister.write(1))
            child = top.begin_child()
            child.perform("r1", IntRegister.write(5))
            child.abort()
            top.commit()
            assert engine.object_value("r0") == 1
            assert engine.object_value("r1") == 0

    def test_commit_with_live_children_refused(self):
        with ShardedEngine(_specs(), workers=2) as engine:
            top = engine.begin_top()
            top.begin_child()
            with pytest.raises(Exception):
                top.commit()
            top.abort()


class TestFlatAbortEscalates:
    """Under flat 2PL a child's abort is the whole tree's, on every
    shard: the coordinator's tree is the scheme's engine, so it
    escalates the abort exactly as the workers' engines do."""

    class _Aborts:
        def __init__(self):
            self.names = []

        def on_aborted(self, event):
            self.names.append(event.name)

    def test_child_abort_kills_the_tree_on_both_shards(self):
        with ShardedEngine(
            _specs(), policy="flat-2pl", workers=2,
            sharding=_spread_sharding,
        ) as engine:
            aborts = engine.subscribe(self._Aborts())
            top = engine.begin_top()
            top.perform("r0", IntRegister.write(1))  # shard 0
            child = top.begin_child()
            child.perform("r1", IntRegister.write(2))  # shard 1
            child.abort()
            assert not top.is_active
            with pytest.raises(TransactionAborted):
                top.perform("r0", IntRegister.read())
            assert aborts.names == [top.name]
            # The top's lock on the child-free shard went with it.
            second = engine.begin_top()
            second.perform("r0", IntRegister.write(3), timeout=0.5)
            second.commit()
            assert engine.object_value("r0") == 3
            assert engine.object_value("r1") == 0


class TestPlacement:
    def test_placement_pins_objects_to_workers(self):
        placement = {"r0": 1, "r1": 1, "r2": 0}
        with ShardedEngine(
            _specs(), workers=2, placement=placement
        ) as engine:
            assert engine.store.shard_of("r0") == 1
            assert engine.store.shard_of("r1") == 1
            assert engine.store.shard_of("r2") == 0
            # A transaction over co-placed objects stays single-shard.
            top = engine.begin_top()
            top.perform("r0", IntRegister.write(3))
            top.perform("r1", IntRegister.write(4))
            top.commit()
            assert engine.object_value("r0") == 3
            stats = engine.shard_stats()
            assert stats[1]["engine"]["accesses"] >= 2
            assert stats[0]["engine"]["accesses"] == 0

    def test_placement_affinity_folds_onto_worker_count(self):
        # Affinity 5 on 2 workers -> shard 1; same spec stays valid
        # when deployed on fewer shards than it was written for.
        sharding = placement_sharding({"r0": 5})
        assert sharding("r0", 2) == 1
        assert sharding("r0", 4) == 1
        # Unplaced objects fall back to CRC32.
        from repro.kernel.store import default_sharding

        assert sharding("r3", 2) == default_sharding("r3", 2)

    def test_placement_and_sharding_are_exclusive(self):
        with pytest.raises(EngineError):
            ShardedEngine(
                _specs(),
                workers=2,
                sharding=_spread_sharding,
                placement={"r0": 0},
            )


class TestWoundWait:
    def test_older_top_wounds_younger_holder(self):
        with ShardedEngine(_specs(), workers=2) as engine:
            older = engine.begin_top()
            # Pin the older tree's age by touching anything first.
            older.perform("r0", IntRegister.read())
            younger = engine.begin_top()
            younger.perform("r1", IntRegister.write(9))
            # The older top now wants r1: wound-wait kills the
            # younger holder rather than blocking behind it.
            older.perform("r1", IntRegister.write(4))
            older.commit()
            assert engine.object_value("r1") == 4
            with pytest.raises(TransactionAborted):
                younger.perform("r1", IntRegister.read())
            assert not younger.is_active

    def test_abort_top_from_foreign_thread_view(self):
        with ShardedEngine(_specs(), workers=2) as engine:
            top = engine.begin_top()
            top.perform("r0", IntRegister.write(1))
            assert engine.abort_top(top.name, cause="reaper") is True
            # Idempotent, like the facade.
            assert engine.abort_top(top.name) is False
            with pytest.raises(TransactionAborted):
                top.perform("r0", IntRegister.read())
            assert engine.object_value("r0") == 0



class TestWoundCountedOnce:
    """Only the thread whose locked section found the victim active,
    and claimed its abort there, counts and announces a coordinator
    wound: ``Wounded`` then ``Aborted``, once."""

    class _Log:
        def __init__(self):
            self.events = []

        def on_wounded(self, event):
            self.events.append(("wounded", event.victim))

        def on_aborted(self, event):
            self.events.append(("aborted", event.name, event.cause))

    @pytest.mark.parametrize("competitor", ["abort_top", "second_wound"])
    def test_competing_abort_between_check_and_abort(self, competitor):
        with ShardedEngine(_specs(), workers=2) as engine:
            observer = engine.subscribe(Observer())
            log = engine.subscribe(self._Log())
            older = engine.begin_top()
            older.perform("r0", IntRegister.read())
            second = engine.begin_top()
            younger = engine.begin_top()
            younger.perform("r1", IntRegister.write(9))
            if competitor == "abort_top":
                def compete():
                    return engine.abort_top(younger.name, cause="reaper")
            else:
                def compete():
                    return engine._wound(second.name, [younger.name])
            raced = []
            note = engine.note

            def race_then_note(kind, *fields):
                # Interpose the competitor once, where the wound path
                # announces its victim.
                if kind is Wounded and not raced:
                    raced.append("racing")
                    raced[0] = compete()
                note(kind, *fields)

            engine.note = race_then_note
            older.perform("r1", IntRegister.write(4))
            older.commit()
            second.abort()
            # The competitor found the tree already claimed.
            assert raced == ([False] if competitor == "abort_top" else [None])
            assert engine.stats["deadlocks"] == 1
            # The abort is the tree engine's ("explicit"); its cause
            # reaches the observer through the Wounded note, as on the
            # facade.
            assert [
                event for event in log.events if event[1] == younger.name
            ] == [
                ("wounded", younger.name),
                ("aborted", younger.name, "explicit"),
            ]
            assert observer._abort_causes == {}
            counters = observer.metrics.snapshot()["counters"]
            assert counters["txn.abort{cause=wound-wait,scope=top}"] == 1
            assert engine.object_value("r1") == 4


class TestGhostMirrorRegression:
    """A perform racing an abort down the pipe must not re-begin the
    tree on the worker (the ghost mirror held locks forever)."""

    def test_worker_refuses_perform_for_forgotten_top(self):
        from repro.serve import protocol as proto
        from repro.shard.worker import ShardWorker, WorkerConfig

        worker = ShardWorker(
            WorkerConfig(
                shard=0,
                shards=1,
                specs=_specs(),
                check_sharding=False,
            )
        )
        worker.handle({"id": 1, "op": "begin", "txn": [0]})
        reply = worker.handle(
            {
                "id": 2,
                "op": "perform",
                "txn": [0],
                "object": "r0",
                "kind": "write",
                "args": [3],
            }
        )
        assert reply["ok"] is True
        worker.handle({"id": 3, "op": "abort", "txn": [0]})
        # The straggler that lost the race: the tree is forgotten, so
        # the worker must refuse -- not lazily mirror a ghost.
        late = worker.handle(
            {
                "id": 4,
                "op": "perform",
                "txn": [0],
                "object": "r0",
                "kind": "read",
                "args": [],
                "read": True,
            }
        )
        assert late["ok"] is False
        assert late["error"]["code"] == proto.ERR_TXN_ABORTED
        # And no mirror reappeared: a fresh top can take the locks.
        worker.handle({"id": 5, "op": "begin", "txn": [1]})
        retry = worker.handle(
            {
                "id": 6,
                "op": "perform",
                "txn": [1],
                "object": "r0",
                "kind": "write",
                "args": [8],
            }
        )
        assert retry["ok"] is True, retry


class TestAbortRacesCommit:
    """A wound-wait abort that reaches a worker before the victim's
    own ``prepare``/``decide`` must read as a retryable abort -- not
    the raw ``EngineError: shard N does not know transaction`` the
    forgotten tree used to raise."""

    @staticmethod
    def _worker_with_aborted_top():
        from repro.shard.worker import ShardWorker, WorkerConfig

        worker = ShardWorker(
            WorkerConfig(
                shard=0, shards=1, specs=_specs(), check_sharding=False
            )
        )
        assert worker.handle({"id": 1, "op": "begin", "txn": [0]})["ok"]
        assert worker.handle(
            {
                "id": 2,
                "op": "perform",
                "txn": [0],
                "object": "r0",
                "kind": "write",
                "args": [3],
            }
        )["ok"]
        # The wound: another coordinator thread aborts the tree, and
        # the worker forgets it.
        assert worker.handle({"id": 3, "op": "abort", "txn": [0]})["ok"]
        return worker

    @pytest.mark.parametrize("op", ["prepare", "decide"])
    def test_worker_answers_txn_aborted_for_forgotten_top(self, op):
        from repro.serve import protocol as proto

        worker = self._worker_with_aborted_top()
        late = worker.handle({"id": 4, "op": op, "txn": [0]})
        assert late["ok"] is False
        assert late["error"]["code"] == proto.ERR_TXN_ABORTED
        assert late["error"]["retryable"] is True
        # Nothing was committed or re-mirrored by the late request.
        value = worker.handle({"id": 5, "op": "value", "object": "r0"})
        assert value["value"] == 0
        assert worker.handle({"id": 6, "op": "begin", "txn": [1]})["ok"]
        assert worker.handle(
            {
                "id": 7,
                "op": "perform",
                "txn": [1],
                "object": "r0",
                "kind": "write",
                "args": [8],
            }
        )["ok"]

    @pytest.mark.parametrize(
        "objects", [("r0",), ("r0", "r1")], ids=["decide", "prepare"]
    )
    def test_coordinator_surfaces_transaction_aborted(self, objects):
        # One participant commits through ``decide`` alone, two go
        # through ``prepare`` first.  The worker-side abort is sent
        # down the link directly: exactly the window in which a wound
        # has reached the workers while the victim's thread is already
        # past the coordinator's own liveness check.
        with ShardedEngine(
            _specs(), workers=2, sharding=_spread_sharding
        ) as engine:
            top = engine.begin_top()
            for name in objects:
                top.perform(name, IntRegister.write(5))
            for shard in sorted(engine._tops[top.name].participants):
                reply = engine._links[shard].call("abort", txn=list(top.name))
                assert reply["ok"]
            with pytest.raises(TransactionAborted):
                top.commit()
            assert not top.is_active
            for name in objects:
                assert engine.object_value(name) == 0


class TestOnePhaseCommitClaimsTheDecision:
    """The one-phase path claims its decision before sending ``decide``,
    as 2PC does: an abort landing while the decide is in flight stands
    down, so the tree is reported committed exactly once."""

    class _Terminals:
        def __init__(self):
            self.events = []

        def on_committed(self, event):
            self.events.append(("committed", event.name))

        def on_aborted(self, event):
            self.events.append(("aborted", event.name))

    def test_abort_after_decide_ack_stands_down(self):
        with ShardedEngine(
            _specs(), workers=2, sharding=_spread_sharding
        ) as engine:
            terminals = engine.subscribe(self._Terminals())
            top = engine.begin_top()
            top.perform("r0", IntRegister.write(7))
            (shard,) = engine._tops[top.name].participants
            link = engine._links[shard]
            late_aborts = []
            call = link.call

            def call_then_abort(op, *args, **kwargs):
                reply = call(op, *args, **kwargs)
                if op == "decide":
                    late_aborts.append(engine.abort_top(top.name))
                return reply

            link.call = call_then_abort
            top.commit()
            assert late_aborts == [False]
            assert [
                event for event in terminals.events if event[1] == top.name
            ] == [("committed", top.name)]
            assert engine.stats["aborts"] == 0
            assert engine.stats["commits"] == 1
            assert engine.object_value("r0") == 7


class TestValues:
    def test_object_value_unknown_object(self):
        with ShardedEngine(_specs(), workers=2) as engine:
            with pytest.raises(EngineError):
                engine.object_value("nope")

    def test_uncommitted_value_visible_on_request(self):
        with ShardedEngine(_specs(), workers=1) as engine:
            top = engine.begin_top()
            top.perform("c0", Counter.increment(2))
            assert engine.object_value("c0") == 0
            assert engine.object_value("c0", committed=False) == 2
            top.abort()
