"""A request runs, and waits, on the thread that read it.

``TransactionServer`` gives each connection one thread, which reads a
burst, runs it in order through ``Session.run`` and answers it.  These
tests pin what that must keep: a lock wait blocks only its own
connection, a connection's responses keep request order behind a
waiting op, a wound still reads as ``txn_aborted``, a foreign facade
and a WAL-backed server run on the same connection threads, and the
accept thread never runs an op.
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
from repro.wal.log import FileWalSink, GroupCommitSink

ACCEPT_THREAD = "repro-serve-accept"
CONN_THREAD = "repro-serve-conn-"


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
    def test_conflicting_read_waits_on_its_own_connection(self, server):
        with connect(server) as a, connect(server) as b, connect(
            server
        ) as c:
            holder = a.begin()  # older: B must wait for it, not wound it
            a.write(holder, "r0", 7)
            waiter = b.begin()
            blocked = _Blocked(b, "read", txn=list(waiter), object="r0")
            wait_for(
                lambda: c.stats()["inflight"] == 1,
                "B's read to be admitted",
            )
            # B is parked on its own connection's thread; every other
            # connection still gets answers, uncontended work included.
            assert c.ping("alive")["payload"] == "alive"
            other = c.begin()
            assert c.read(other, "r1") == 0
            c.commit(other)
            assert not blocked.answered
            assert c.stats()["inflight"] == 1
            a.commit(holder)
            assert blocked.join()["result"] == 7
            b.commit(waiter)
            after = c.stats()
            assert after["inflight"] == 0
            # The waiting read was counted once.
            assert after["metrics"]["counters"]["serve.requests{op=read}"] == 2

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
                    lambda: c.stats()["inflight"] == 1,
                    "the read to start waiting",
                )
                # Uncontended, but its connection's thread is waiting:
                # it must queue behind the read, not overtake it.
                send("read", 3, txn=begun["txn"], object="r1")
                raw.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    raw.recv(1 << 16)
                raw.settimeout(10)
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
            # The older transaction's access runs the wound pass and
            # takes the lock; the victim learns it on its next request.
            b.write(older, "r0", 2)
            with pytest.raises(ServeError) as excinfo:
                a.read(younger, "r0")
            assert excinfo.value.code == proto.ERR_TXN_ABORTED
            assert excinfo.value.retryable
            b.commit(older)
        assert server.facade.object_value("r0") == 2


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
        finally:
            handle.stop()
        # Every op ran on the one thread that read it.
        assert len(facade.threads) == 8
        assert len(set(facade.threads)) == 1
        assert facade.threads[0].startswith(CONN_THREAD)


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
    """Behind a WAL every op, and every fsync it waits on (a commit's
    flush, a segment roll's, an orphan's abort record), runs on its
    own connection's thread -- never on the accept thread."""

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
                # stopping thread, with a final flush of its own.
                flush_threads = list(sink.flush_threads)
        finally:
            handle.stop()
        rolls = stats["wal"]["segment_rolls"]
        assert rolls >= 3
        # 5 top-level commits + 1 top-level abort + the rolls.
        assert len(flush_threads) >= 6 + rolls
        assert ACCEPT_THREAD not in flush_threads
        assert all(name.startswith(CONN_THREAD) for name in flush_threads)
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
        # the orphan (an ABORT record plus its flush) on the vanished
        # connection's own thread.
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
        assert ACCEPT_THREAD not in flush_threads
        assert all(name.startswith(CONN_THREAD) for name in flush_threads)
        assert server.facade.object_value("r0") == 0
