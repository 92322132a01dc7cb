"""The hop discipline: what crosses the coordinator-worker pipe, when.

One rule (docs/SHARDING.md, "What crosses the pipe, and when"): a
request gets a pipe write of its own only if the caller needs its
answer or another tree could observe its effect.  A mirror ``begin``
and a subtransaction ``commit`` are held on the link and leave in
front of its next write; a child's ``commit``/``abort`` goes only to
the shards that mirror it; the waiting thread reads its own reply.

Writes are counted where the perf ladder counts them: at
``Connection.send_bytes`` on the coordinator side.
"""

import multiprocessing.connection
import os
import signal
import sys
import threading
import time

import pytest

from repro.adt import Counter, IntRegister
from repro.audit import AuditConfig
from repro.errors import EngineError, LockDenied, TransactionAborted
from repro.serve import protocol as proto
from repro.shard import ShardDown, ShardedEngine
from repro.shard.link import decode_batch
from repro.shard.worker import ShardWorker, WorkerConfig


def _specs(registers=6, counters=4):
    specs = [IntRegister("r%d" % index) for index in range(registers)]
    specs += [Counter("c%d" % index) for index in range(counters)]
    return specs


def _by_digit(name, shards):
    """Even trailing digit -> shard 0, odd -> shard 1."""
    return int(name[1:]) % shards


@pytest.fixture
def engine():
    with ShardedEngine(_specs(), workers=2, sharding=_by_digit) as started:
        yield started


@pytest.fixture
def writes(engine, monkeypatch):
    """Every coordinator pipe write from here on, as ``(shard, ops)``
    with ``ops`` the ``(op, txn)`` of each frame in the write."""
    shards = {id(link.conn): link.shard for link in engine._links}
    connection = multiprocessing.connection.Connection
    original = connection.send_bytes
    log = []

    def recording(self, data, *args, **kwargs):
        log.append(
            (
                shards[id(self)],
                [
                    (message["op"], tuple(message.get("txn", ())))
                    for message in decode_batch(bytes(data))
                ],
            )
        )
        return original(self, data, *args, **kwargs)

    monkeypatch.setattr(connection, "send_bytes", recording)
    return log


def _awaited(writes):
    """The op each write was made for: its last frame's."""
    return [(shard, ops[-1][0]) for shard, ops in writes]


class TestHopCounts:
    def test_one_shard_tree_is_its_performs_and_one_decide(
        self, engine, writes
    ):
        top = engine.begin_top()
        top.perform("r0", IntRegister.write(1))
        for base in (2, 4):
            child = top.begin_child()
            child.perform("r%d" % base, IntRegister.write(base))
            child.perform("c%d" % (base - 2), Counter.increment(base))
            child.commit()
        top.commit()
        assert _awaited(writes) == [(0, "perform")] * 5 + [(0, "decide")]
        # begin and both subcommits rode along, in order, in front.
        assert [op for op, _ in writes[0][1]] == ["begin", "perform"]
        assert writes[3][1][0] == ("commit", top.name + (0,))
        assert writes[5][1] == [
            ("commit", top.name + (1,)),
            ("decide", top.name),
        ]
        assert engine.object_value("r4") == 4
        assert engine.object_value("c2") == 4

    def test_two_shard_transfer_adds_prepare_and_decide_per_shard(
        self, engine, writes
    ):
        top = engine.begin_top()
        debit = top.begin_child()
        debit.perform("c0", Counter.increment(-5))
        debit.commit()
        credit = top.begin_child()
        credit.perform("c1", Counter.increment(5))
        credit.commit()
        top.commit()
        assert _awaited(writes) == [
            (0, "perform"),
            (1, "perform"),
            (0, "prepare"),
            (1, "prepare"),
            (0, "decide"),
            (1, "decide"),
        ]
        assert (engine.object_value("c0"), engine.object_value("c1")) == (
            -5,
            5,
        )

    def test_child_reaches_only_the_shards_that_mirror_it(
        self, engine, writes
    ):
        top = engine.begin_top()
        top.perform("r1", IntRegister.write(1))  # the tree is on shard 1
        idle = top.begin_child()
        idle.commit()  # touched nothing: nothing is sent, or held
        local = top.begin_child()
        inner = local.begin_child()
        inner.perform("r0", IntRegister.write(2))  # shard 0 only
        inner.commit()
        local.abort()
        doomed = top.begin_child()
        doomed.abort()  # touched nothing
        assert _awaited(writes) == [
            (1, "perform"),
            (0, "perform"),
            (0, "abort"),
        ]
        # The abort carried the grandchild's subcommit to shard 0;
        # shard 1 heard of neither child.
        assert writes[2][1] == [
            ("commit", inner.name),
            ("abort", local.name),
        ]
        assert all(
            len(txn) == 1 for shard, ops in writes if shard == 1
            for _, txn in ops
        )
        top.commit()
        assert engine.object_value("r0") == 0
        assert engine.object_value("r1") == 1

    def test_abort_is_never_held(self, engine, writes):
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("r0", IntRegister.write(9))
        child.abort()
        assert _awaited(writes)[-1] == (0, "abort")
        # The lock is free at once: a second tree takes it untimed.
        other = engine.begin_top()
        other.perform("r0", IntRegister.write(3), timeout=0)
        other.commit()
        top.commit()
        assert engine.object_value("r0") == 3


class TestOrderAndInvisibility:
    def test_held_subcommit_rides_in_front_of_another_trees_perform(
        self, engine, writes
    ):
        older = engine.begin_top()
        child = older.begin_child()
        child.perform("r1", IntRegister.write(7))
        child.commit()  # held on shard 1
        younger = engine.begin_top()
        del writes[:]
        with pytest.raises(LockDenied) as denied:
            younger.perform("r1", IntRegister.write(8), timeout=0)
        # The younger tree's write carried the older tree's held frame
        # in front of its own, and the lock -- now the older top's --
        # still names the older tree.
        assert writes[0] == (
            1,
            [
                ("commit", child.name),
                ("begin", younger.name),
                ("perform", younger.name),
            ],
        )
        assert set(denied.value.blockers) == {older.name}
        # Wound-wait as before: the older tree takes what the younger
        # holds, the younger dies.
        younger.perform("r3", IntRegister.write(1))
        older.perform("r3", IntRegister.write(2))
        older.commit()
        assert not younger.is_active
        with pytest.raises(TransactionAborted):
            younger.perform("r3", IntRegister.read())
        assert engine.object_value("r1") == 7
        assert engine.object_value("r3") == 2


class TestLiveness:
    def test_abandoned_handles_frames_leave_with_the_next_send(
        self, engine, writes
    ):
        abandoned = engine.begin_top()
        child = abandoned.begin_child()
        child.perform("r0", IntRegister.write(1))
        child.commit()  # held, and the handle is never used again
        other = engine.begin_top()
        other.perform("r2", IntRegister.write(2))
        assert ("commit", child.name) in writes[-1][1]
        other.commit()
        assert engine.object_value("r2") == 2

    def test_close_does_not_hang_on_held_frames(self):
        engine = ShardedEngine(
            _specs(), workers=2, sharding=_by_digit
        ).start()
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("r0", IntRegister.write(1))
        child.commit()
        started = time.monotonic()
        engine.close()
        assert time.monotonic() - started < 5.0
        assert all(not proc.is_alive() for proc in engine._procs)

    def test_sigkill_with_frames_held_raises_shard_down(self, engine):
        top = engine.begin_top()
        child = top.begin_child()
        child.perform("r0", IntRegister.write(1))
        child.perform("r1", IntRegister.write(1))
        child.commit()  # held on both links
        os.kill(engine.worker_pids[0], signal.SIGKILL)
        engine._procs[0].join(timeout=10.0)
        assert not engine._procs[0].is_alive()
        with pytest.raises(ShardDown):
            top.perform("r2", IntRegister.write(2))
        held = [
            waiter for shard, waiter in top._top.held if shard == 0
        ]
        # The begin was acked with the first perform; the subcommit
        # was still held when the worker died, and fails with it.
        begin, subcommit = held
        assert begin.reply["ok"] and subcommit.reply is None
        with pytest.raises(ShardDown):
            engine._links[0].wait(subcommit, timeout=1.0)
        # The live shard still answers, and the tree still aborts.
        top.abort()
        assert engine.object_value("r1") == 0

    def test_wait_times_out_on_a_stopped_worker(self, engine):
        link = engine._links[0]
        pid = engine.worker_pids[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            waiter = link.send("stats")
            started = time.monotonic()
            with pytest.raises(EngineError) as raised:
                link.wait(waiter, timeout=0.05)
            assert time.monotonic() - started < 2.0
            assert not isinstance(raised.value, ShardDown)
            assert "timed out" in str(raised.value)
        finally:
            os.kill(pid, signal.SIGCONT)
        # The late reply is read by whoever waits next; the link lives.
        assert link.wait(waiter, timeout=10.0)["ok"]
        assert link.alive


class TestThreads:
    def test_sibling_subtrees_on_two_threads_audit_clean(self, engine):
        auditor = engine.attach_auditor(config=AuditConfig(sample_every=1))
        errors = []

        def subtree(parent, offset):
            try:
                for step in range(20):
                    child = parent.begin_child()
                    child.perform(
                        "c%d" % offset, Counter.increment(1)
                    )
                    child.perform(
                        "c%d" % (offset + 2), Counter.increment(1)
                    )
                    grandchild = child.begin_child()
                    grandchild.perform(
                        "r%d" % (offset + 1 - 2 * offset),
                        IntRegister.write(step),
                    )
                    grandchild.commit()
                    child.commit()
                parent.commit()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        for _ in range(3):
            top = engine.begin_top()
            # Thread 0: c0, c2 (shard 0), r1 (shard 1); thread 1: c1,
            # c3 (shard 1), r0 (shard 0) -- both cross both links.
            threads = [
                threading.Thread(
                    target=subtree, args=(top.begin_child(), offset)
                )
                for offset in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            top.commit()
        assert engine.object_value("c0") == 60
        assert engine.object_value("c3") == 60
        assert auditor.verdict == "clean", auditor.report()
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-shard-")
        ]

    def test_coordinator_counters_lose_no_updates(self):
        threads_n, trees = 4, 500
        specs = [Counter("c%d" % index) for index in range(threads_n)]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardedEngine(specs, workers=2) as engine:

                def run(index):
                    try:
                        for _ in range(trees):
                            top = engine.begin_top()
                            top.perform(
                                "c%d" % index, Counter.increment(1)
                            )
                            top.commit()
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=run, args=(index,))
                    for index in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert engine.stats["accesses"] == threads_n * trees
                assert engine.stats["commits"] == threads_n * trees
        finally:
            sys.setswitchinterval(interval)


class TestFailedSubcommit:
    """A subcommit some shard refuses must never leave a tree
    half-committed: it aborts everywhere, as ``TransactionAborted``."""

    def test_worker_refuses_a_decide_behind_a_failed_subcommit(self):
        worker = ShardWorker(
            WorkerConfig(
                shard=0, shards=1, specs=_specs(), check_sharding=False
            )
        )

        def batch(*messages):
            reply, serving = worker.handle_batch(
                b"".join(map(proto.encode_frame, messages))
            )
            assert serving
            return decode_batch(reply)

        opened = batch(
            proto.request("begin", 1, txn=[0]),
            proto.request(
                "perform", 2, txn=[0, 0, 0], object="r0", kind="write",
                args=[5],
            ),
        )
        assert [reply["ok"] for reply in opened] == [True, True]
        # The child still has a live grandchild: its commit fails, and
        # so must the decide that left in the same pipe message.
        closed = batch(
            proto.request("commit", 3, txn=[0, 0]),
            proto.request("decide", 4, txn=[0]),
        )
        assert [reply["id"] for reply in closed] == [3, 4]
        assert [reply["ok"] for reply in closed] == [False, False]
        (value,) = batch(proto.request("value", 5, object="r0"))
        assert value["value"] == 0
        (aborted,) = batch(proto.request("abort", 6, txn=[0]))
        assert aborted["ok"]

    @pytest.mark.parametrize(
        "objects", [("r1",), ("r0", "r1")], ids=["decide", "prepare"]
    )
    def test_failed_ack_aborts_the_tree_everywhere(self, engine, objects):
        link = engine._links[1]
        hold = link.hold

        def failing_hold(op, **fields):
            if op == "commit":
                # A name the worker refuses: the ack comes back as an
                # error and the child stays live on the shard.
                fields["txn"] = fields["txn"][:1]
            return hold(op, **fields)

        link.hold = failing_hold
        top = engine.begin_top()
        child = top.begin_child()
        for name in objects:
            child.perform(name, IntRegister.write(5))
        child.commit()
        with pytest.raises(TransactionAborted) as raised:
            top.commit()
        assert "held request failed on shard 1" in str(raised.value)
        assert not top.is_active
        assert top.name[0] not in engine._tops
        del link.hold
        for name in objects:
            assert engine.object_value(name) == 0
            assert engine.object_value(name, committed=False) == 0
        # Nothing is left holding the locks.
        second = engine.begin_top()
        for name in objects:
            second.perform(name, IntRegister.write(6), timeout=0)
        second.commit()
        assert [engine.object_value(name) for name in objects] == [6] * len(
            objects
        )
