"""The inline path: a lone request runs on the event loop, and only there.

``TransactionServer`` tries a lone request on the loop thread through
``Session.try_run`` and hands it to the worker pool only when it would
block.  These tests pin what that must never change: the loop never
parks, per-connection order, wound translation, request counts, and
that a facade or WAL that could block keeps every op on the pool.
"""

import socket
import threading
import time

import pytest

from repro.adt import IntRegister
from repro.engine.threadsafe import ThreadSafeEngine
from repro.serve import protocol as proto
from repro.serve.client import ServeError, SyncClient
from repro.serve.server import ServeConfig, TransactionServer
from repro.serve.session import Session
from repro.wal.log import FileWalSink, GroupCommitSink

LOOP_THREAD = "repro-serve-loop"


def _registers():
    return [IntRegister("r%d" % index) for index in range(4)]


@pytest.fixture()
def server():
    server = TransactionServer(
        _registers(), config=ServeConfig(port=0, op_timeout=10.0)
    )
    handle = server.start_in_thread()
    yield server
    handle.stop()


def connect(server):
    host, port = server.address
    return SyncClient(host, port, timeout=10.0)


def counters(client):
    return client.stats()["metrics"]["counters"]


def wait_for(predicate, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for " + what
        time.sleep(0.005)


class _Blocked:
    """One request sent from a thread of its own; joins for the reply."""

    def __init__(self, client, op, **fields):
        self.response = None
        self._thread = threading.Thread(
            target=self._call, args=(client, op, fields), daemon=True
        )
        self._thread.start()

    def _call(self, client, op, fields):
        self.response = client.call(op, **fields)

    @property
    def answered(self):
        return not self._thread.is_alive()

    def join(self):
        self._thread.join(10.0)
        assert self.answered, "the blocked request never completed"
        return self.response


class TestLoopNeverParks:
    def test_conflicting_read_waits_in_the_pool(self, server):
        with connect(server) as a, connect(server) as b, connect(
            server
        ) as c:
            holder = a.begin()  # older: B must wait for it, not wound it
            a.write(holder, "r0", 7)
            waiter = b.begin()
            before = counters(c)
            assert before.get("serve.would_block", 0) == 0
            assert before["serve.inline"] == 3
            blocked = _Blocked(b, "read", txn=list(waiter), object="r0")
            wait_for(
                lambda: counters(c).get("serve.would_block", 0) == 1,
                "B's read to fall back to the pool",
            )
            # B is parked on a worker thread; the loop still answers a
            # ping and runs an uncontended transaction inline.
            assert c.ping("alive")["payload"] == "alive"
            other = c.begin()
            assert c.read(other, "r1") == 0
            c.commit(other)
            assert not blocked.answered
            stats = c.stats()
            assert stats["inflight"] == 1
            a.commit(holder)
            assert blocked.join()["result"] == 7
            b.commit(waiter)
            after = c.stats()["metrics"]
            assert after["counters"]["serve.would_block"] == 1
            # Only the blocked read went through the pool.
            assert after["histograms"]["serve.batch_size"]["count"] == 1
            # A would-block op is counted once, not once per attempt.
            assert after["counters"]["serve.requests{op=read}"] == 2

    def test_request_behind_inflight_batch_keeps_order(self, server):
        host, port = server.address
        with connect(server) as a, connect(server) as c:
            holder = a.begin()
            a.write(holder, "r0", 1)
            with socket.create_connection((host, port), timeout=10) as raw:
                decoder = proto.FrameDecoder()

                def send(op, request_id, **fields):
                    raw.sendall(
                        proto.encode_frame(
                            proto.request(op, request_id, **fields)
                        )
                    )

                def receive(count):
                    messages = []
                    while len(messages) < count:
                        messages.extend(decoder.feed(raw.recv(1 << 16)))
                    return messages

                send("begin", 1)
                (begun,) = receive(1)
                send("read", 2, txn=begun["txn"], object="r0")
                wait_for(
                    lambda: counters(c).get("serve.would_block", 0) == 1,
                    "the read to fall back to the pool",
                )
                inline_before = counters(c)["serve.inline"]
                # Lone, uncontended, and its connection has a batch in
                # flight: it must queue behind the read, not overtake.
                send("read", 3, txn=begun["txn"], object="r1")
                wait_for(
                    lambda: c.stats()["inflight"] == 2,
                    "the second read to be queued",
                )
                raw.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    raw.recv(1 << 16)
                raw.settimeout(10)
                assert counters(c)["serve.inline"] == inline_before
                a.commit(holder)
                first, second = receive(2)
                assert (first["id"], second["id"]) == (2, 3)
                assert first["result"] == 1 and second["result"] == 0


class TestWoundThroughInlineAttempt:
    def test_older_wounds_younger_and_victim_sees_txn_aborted(
        self, server
    ):
        with connect(server) as b, connect(server) as a:
            older = b.begin()
            younger = a.begin()
            a.write(younger, "r0", 1)
            # The zero-budget attempt still runs the wound pass, so the
            # older transaction wins the lock without leaving the loop.
            b.write(older, "r0", 2)
            with pytest.raises(ServeError) as excinfo:
                a.read(younger, "r0")
            assert excinfo.value.code == proto.ERR_TXN_ABORTED
            assert excinfo.value.retryable
            b.commit(older)
            metrics = b.stats()["metrics"]
            assert metrics["counters"].get("serve.would_block", 0) == 0
            assert "serve.batch_size" not in metrics["histograms"]
        assert server.facade.object_value("r0") == 2


class TestSessionTryRun:
    def test_would_block_is_not_answered_and_counts_once(self):
        facade = ThreadSafeEngine(_registers())
        holder = Session(facade, conn_id=0, op_timeout=0.2)
        waiter = Session(facade, conn_id=1, op_timeout=0.2)
        held = holder.run(proto.request("begin", 1))["txn"]
        assert holder.run(
            proto.request("write", 2, txn=held, object="r0", value=5)
        )["ok"]
        begun = waiter.try_run(proto.request("begin", 1))
        assert begun["ok"] and waiter.requests == 1
        read = proto.request("read", 2, txn=begun["txn"], object="r0")
        assert waiter.try_run(read) is None
        assert waiter.requests == 1
        # The fallback runs the same message with the real budget.
        denied = waiter.run(read)
        assert denied["error"]["code"] == proto.ERR_LOCK_DENIED
        assert waiter.requests == 2
        assert holder.run(proto.request("commit", 3, txn=held))["ok"]
        assert waiter.try_run(read)["result"] == 5
        assert waiter.requests == 3

    def test_errors_are_answered_like_run(self):
        session = Session(ThreadSafeEngine(_registers()), conn_id=0)
        unknown = session.try_run(
            proto.request("read", 1, txn=[9], object="r0")
        )
        assert unknown["error"]["code"] == proto.ERR_UNKNOWN_TXN
        bad = session.try_run(proto.request("write", 2, txn=[9, "x"]))
        assert bad["error"]["code"] == proto.ERR_BAD_REQUEST
        assert session.requests == 2


class _RecordingHandle:
    def __init__(self, facade, inner):
        self._facade = facade
        self._inner = inner
        self.name = inner.name

    @property
    def is_active(self):
        return self._inner.is_active

    @property
    def status(self):
        return self._inner.status

    def begin_child(self):
        self._facade.record()
        return _RecordingHandle(self._facade, self._inner.begin_child())

    def perform(self, object_name, operation, timeout=None):
        self._facade.record()
        return self._inner.perform(object_name, operation, timeout=timeout)

    def commit(self, value=None):
        self._facade.record()
        self._inner.commit(value)

    def abort(self):
        self._facade.record()
        self._inner.abort()


class _ForeignFacade:
    """The facade surface without being a ``ThreadSafeEngine`` -- what
    ``ShardedEngine`` is to the server -- recording who drives it."""

    def __init__(self, specs):
        self._inner = ThreadSafeEngine(specs)
        self.scheme = self._inner.scheme
        self.engine = self._inner.engine
        self.capabilities = self._inner.capabilities
        self.threads = []

    def record(self):
        self.threads.append(threading.current_thread().name)

    def begin_top(self):
        self.record()
        return _RecordingHandle(self, self._inner.begin_top())

    def abort_top(self, name, cause=None):
        return self._inner.abort_top(name, cause=cause)

    def object_value(self, object_name):
        return self._inner.object_value(object_name)


class TestIneligibleFacade:
    def test_foreign_facade_never_runs_on_the_loop(self):
        facade = _ForeignFacade(_registers())
        server = TransactionServer(
            [], config=ServeConfig(port=0), facade=facade
        )
        handle = server.start_in_thread()
        try:
            with connect(server) as client:
                top = client.begin()
                child = client.child(top)
                client.write(child, "r0", 3)
                client.commit(child)
                assert client.read(top, "r0") == 3
                client.commit(top)
                doomed = client.begin()
                client.abort(doomed)
                metrics = client.stats()["metrics"]
        finally:
            handle.stop()
        assert len(facade.threads) == 8
        assert LOOP_THREAD not in facade.threads
        assert all(
            name.startswith("repro-serve_") for name in facade.threads
        )
        assert "serve.inline" not in metrics["counters"]
        assert "serve.would_block" not in metrics["counters"]
        assert metrics["histograms"]["serve.batch_size"]["count"] == 8


def _recording(sink_class):
    class Recording(sink_class):
        """Notes the thread behind every durability request."""

        def __init__(self, directory):
            super().__init__(directory)
            self.flush_threads = []

        def flush(self):
            self.flush_threads.append(threading.current_thread().name)
            return super().flush()

        if hasattr(sink_class, "flush_begin"):

            def flush_begin(self):
                self.flush_threads.append(
                    threading.current_thread().name
                )
                return super().flush_begin()

    return Recording


class TestNoFlushOnTheLoop:
    """Behind a WAL nothing runs inline: any append can wait on an
    fsync (a commit's flush under the facade's locks, or the segment
    roll's under the log's own), so the pool keeps every op."""

    @pytest.mark.parametrize(
        "sink_class",
        [FileWalSink, GroupCommitSink],
        ids=["plain-file", "group-commit"],
    )
    def test_lone_traffic_never_flushes_on_the_loop(
        self, tmp_path, sink_class
    ):
        sink = _recording(sink_class)(str(tmp_path))
        server = TransactionServer(_registers(), config=ServeConfig(port=0))
        # Tiny segments: the log rolls (a synchronous flush on the
        # appending thread) every few records, not only at commits.
        server.attach_wal(sink=sink, segment_bytes=256)
        handle = server.start_in_thread()
        try:
            with connect(server) as client:
                for index in range(5):
                    top = client.begin()
                    child = client.child(top)
                    client.write(child, "r%d" % (index % 4), index)
                    client.commit(child)
                    client.commit(top)
                aborted = client.begin()
                client.write(aborted, "r0", 99)
                client.abort(aborted)
                stats = client.stats()
                # Before shutdown: stopping closes the WAL from the
                # loop thread, with a final flush of its own.
                flush_threads = list(sink.flush_threads)
        finally:
            handle.stop()
        rolls = stats["wal"]["segment_rolls"]
        assert rolls >= 3
        # 5 top-level commits + 1 top-level abort + the rolls.
        assert len(flush_threads) >= 6 + rolls
        assert LOOP_THREAD not in flush_threads
        assert "serve.inline" not in stats["metrics"]["counters"]
        assert server.facade.object_value("r0") == 4

    @pytest.mark.parametrize(
        "sink_class",
        [FileWalSink, GroupCommitSink],
        ids=["plain-file", "group-commit"],
    )
    def test_disconnect_cleanup_never_flushes_on_the_loop(
        self, tmp_path, sink_class
    ):
        # A client that vanishes with a live tree: the server aborts
        # the orphan (an ABORT record plus its flush) from the pool.
        sink = _recording(sink_class)(str(tmp_path))
        server = TransactionServer(_registers(), config=ServeConfig(port=0))
        server.attach_wal(sink=sink)
        handle = server.start_in_thread()
        try:
            with connect(server) as doomed:
                top = doomed.begin()
                doomed.write(top, "r0", 41)
                before = len(sink.flush_threads)
            with connect(server) as witness:
                wait_for(
                    lambda: counters(witness).get("serve.orphan_aborts")
                    == 1,
                    "the orphan abort",
                )
            flush_threads = sink.flush_threads[before:]
        finally:
            handle.stop()
        assert flush_threads, "the orphan's abort must be flushed"
        assert LOOP_THREAD not in flush_threads
        assert server.facade.object_value("r0") == 0
