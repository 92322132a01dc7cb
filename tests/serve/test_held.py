"""Held frames: what :class:`SyncClient` sends without awaiting it.

A ``child`` and a subtransaction ``commit`` (once its child's
``child`` reply came back) answer nothing a caller needs, so the
client queues them and they ride in front of the next awaited
request, in one write.  These tests pin what that may change -- the
number of writes -- and what it may not: the frames on the wire, the
error a failed tree surfaces, and that no tree the client reports
failed is ever committed.
"""

import os
import random
import socket
import threading

import pytest

from repro.scenario import compile_scenario, load_scenario
from repro.scenario.backends import _run_plan
from repro.scenario.compiler import build_store
from repro.serve import protocol as proto
from repro.serve.admission import TokenBucket
from repro.serve.client import ServeError, SyncClient

from tests.serve.test_service import connect, start_server

DEEP = os.path.join(
    os.path.dirname(__file__), "..", "..", "perf", "workloads", "deep.toml"
)


@pytest.fixture()
def server():
    server, handle = start_server()
    yield server
    handle.stop()


class _Tap:
    """A socket stand-in that keeps every ``sendall`` payload."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def tapped(client_class, server):
    client = client_class(*server.address)
    client._sock = _Tap(client._sock)
    return client


class OneFramePerWrite(SyncClient):
    """The client before it held anything: every request awaited."""

    def child(self, txn):
        return tuple(self.call("child", txn=list(txn))["txn"])

    def commit(self, txn, value=None):
        return self.call("commit", txn=list(txn), value=value)


def _drive_deep(client):
    """Run seed 7's ``deep`` trees (child aborts included) on *client*."""
    compiled = compile_scenario(load_scenario(DEEP), 7, transactions=40)
    fail_rng = random.Random(7)
    for program in compiled.programs:
        top = client.begin_top()
        _run_plan(top, program.body, fail_rng)
        top.commit()


class TestTheWireStream:
    def test_deep_frames_are_the_one_frame_per_write_stream(self):
        specs = build_store(load_scenario(DEEP))
        streams = []
        for client_class in (OneFramePerWrite, SyncClient):
            server, handle = start_server(objects=specs, audit=False)
            try:
                with tapped(client_class, server) as client:
                    _drive_deep(client)
                    assert not client._held
                    streams.append(client._sock.writes)
            finally:
                handle.stop()
        plain, held = streams
        assert not client._slots
        # Same ids, bodies and order; only the number of writes falls.
        assert b"".join(held) == b"".join(plain)
        assert all(len(proto.FrameDecoder().feed(w)) == 1 for w in plain)
        assert len(held) < len(plain) * 0.6
        largest = max(len(proto.FrameDecoder().feed(w)) for w in held)
        # 1 + 2 x the subtransaction depth (four levels below the top).
        assert largest <= 1 + 2 * 4

    def test_pipeline_carries_held_frames(self, server):
        with tapped(SyncClient, server) as client:
            top = client.begin()
            child = client.child(top)
            assert child == top + (0,)
            responses = client.pipeline(
                [("write", {"txn": list(child), "object": "c0",
                            "kind": "increment", "args": [3]})]
            )
            assert [r["ok"] for r in responses] == [True]
            ops = [
                message["op"]
                for message in proto.FrameDecoder().feed(
                    client._sock.writes[-1]
                )
            ]
            assert ops == ["child", "write"]
            # The pipelined write counted: the next child is slot 1.
            assert client.child(child) == child + (1,)
            client.commit(child + (1,))
            client.commit(child)
            client.commit(top)
        assert server.facade.object_value("c0") == 3


class TestFailures:
    def test_wound_while_child_is_held_raises_txn_aborted(self, server):
        with connect(server) as elder, connect(server) as younger:
            old = elder.begin()
            young = younger.begin()
            younger.write(young, "c0", kind="increment", args=[1])
            # The older tree wounds the younger lock holder.
            elder.read(old, "c0", kind="value")
            child = younger.child(young)
            with pytest.raises(ServeError) as excinfo:
                younger.write(child, "c1", kind="increment", args=[1])
            assert excinfo.value.code == proto.ERR_TXN_ABORTED
            assert excinfo.value.retryable
            younger.abort(young)
            elder.commit(old)
            assert not younger._slots and not younger._held

    def test_a_begin_behind_a_failed_held_frame_begins_nothing(self, server):
        with connect(server) as elder, connect(server) as younger:
            old = elder.begin()
            young = younger.begin()
            younger.write(young, "c0", kind="increment", args=[1])
            elder.read(old, "c0", kind="value")  # wounds ``young``
            younger.child(young)
            with pytest.raises(ServeError) as excinfo:
                younger.begin()
            assert excinfo.value.code == proto.ERR_TXN_ABORTED
            live = server.facade.engine.transactions
            assert [name for name in live if len(name) == 1] == [old]
            assert younger.begin() == (2,)
            elder.commit(old)

    def test_shed_held_subcommit_leaves_the_tree_uncommitted(self):
        server, handle = start_server(audit=False)
        try:
            # begin, then [child, write]: three tokens and no refill.
            server.admission.bucket = TokenBucket(1.0, 3.0, clock=lambda: 0.0)
            with connect(server) as client:
                top = client.begin()
                child = client.child(top)
                client.write(child, "c0", kind="increment", args=[7])
                assert client.commit(child) is None  # held
                with pytest.raises(ServeError) as excinfo:
                    client.commit(top)
                assert excinfo.value.code == proto.ERR_OVERLOADED
                assert server.facade.object_value("c0") == 0
                server.admission.bucket = None
                client.abort(top)
                assert not client._slots
            assert server.facade.object_value("c0") == 0
            assert server.stats()["shed"] == 2
        finally:
            handle.stop()

    def test_a_child_named_otherwise_is_not_retryable(self):
        listener = socket.create_server(("127.0.0.1", 0))
        thread = threading.Thread(
            target=_misnaming_server, args=(listener,), daemon=True
        )
        thread.start()
        try:
            with SyncClient(*listener.getsockname()[:2]) as client:
                top = client.begin()
                child = client.child(top)
                assert child == (0, 0)
                with pytest.raises(ServeError) as excinfo:
                    client.read(child, "c0")
                assert excinfo.value.code == proto.ERR_INTERNAL
                assert not excinfo.value.retryable
                # The count is forgotten: the next child is awaited.
                assert client.child(top) == (0, 5)
        finally:
            listener.close()
            thread.join(5.0)


def _misnaming_server(listener):
    """Answer ``begin`` with ``[0]``, every ``child`` with ``[0, 5]``."""
    sock, _ = listener.accept()
    decoder = proto.FrameDecoder()
    with sock:
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return
            replies = []
            for message in decoder.feed(data):
                fields = {}
                if message["op"] == "begin":
                    fields["txn"] = [0]
                elif message["op"] == "child":
                    fields["txn"] = [0, 5]
                replies.append(
                    proto.encode_frame(
                        proto.ok_response(message["id"], **fields)
                    )
                )
            sock.sendall(b"".join(replies))


class TestBookkeeping:
    def test_per_node_state_follows_live_work(self, server):
        with connect(server) as client:
            for index in range(1000):
                top = client.begin()
                child = client.child(top)
                client.write(child, "c%d" % (index % 4), kind="increment",
                             args=[1])
                if index % 3 == 0:
                    doomed = client.child(child)
                    client.read(doomed, "c0", kind="value")
                    client.abort(doomed)
                client.commit(child)
                if index % 2:
                    client.commit(top)
                else:
                    client.abort(top)
            assert client._slots == {}
            assert client._held == [] and client._expect == []
        assert sum(
            server.facade.object_value("c%d" % i) for i in range(4)
        ) == 500
