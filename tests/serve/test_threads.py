"""One thread per connection: waiting is ordinary, and stop cleans up.

A connection's thread runs its requests and waits on their locks, so
lock waiters cannot starve the lock holder: before this model, eight
waiters behind a WAL or a sharded facade filled an eight-thread pool and
the holder's own ``commit`` queued behind them until ``op_timeout``.
Also pinned here: accepted sockets disable Nagle, and ``stop`` ends a
connection stuck in a lock wait, aborts its tree and leaves no thread.
"""

import socket
import sys
import threading
import time

import pytest

from repro.adt import IntRegister
from repro.serve import protocol as proto
from repro.serve.client import ServeError, SyncClient
from repro.serve.server import ServeConfig, TransactionServer
from repro.shard import ShardedEngine
from repro.wal.log import FileWalSink

WAITERS = 8


def _registers():
    return [IntRegister("r%d" % index) for index in range(4)]


def _server(**config):
    config.setdefault("op_timeout", 10.0)
    return TransactionServer(
        _registers(), config=ServeConfig(port=0, **config)
    )


def _wait_for(predicate, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for " + what
        time.sleep(0.005)


def _serve_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-serve-")
    ]


@pytest.fixture(params=["wal", "sharded"])
def blocking_server(request, tmp_path):
    """A server whose every op may block: behind a WAL, or sharded."""
    if request.param == "wal":
        server = _server()
        server.attach_wal(sink=FileWalSink(str(tmp_path)))
        handle = server.start_in_thread()
        yield server
        handle.stop()
        return
    facade = ShardedEngine(_registers(), policy="moss-rw", workers=2)
    facade.start()
    try:
        server = TransactionServer(
            [], config=ServeConfig(port=0, op_timeout=10.0), facade=facade
        )
        handle = server.start_in_thread()
        yield server
        handle.stop()
    finally:
        facade.close()


class TestWaitersDoNotStarveTheHolder:
    def test_holder_commit_is_prompt_behind_eight_waiters(
        self, blocking_server
    ):
        host, port = blocking_server.address
        holder = SyncClient(host, port)
        clients = [SyncClient(host, port) for _ in range(WAITERS)]
        try:
            top = holder.begin()  # oldest: the waiters must not wound it
            holder.write(top, "r0", 1)
            tops = [client.begin() for client in clients]
            codes = ["unanswered"] * WAITERS

            def wait_then_commit(index):
                try:
                    clients[index].write(tops[index], "r0", 2)
                    clients[index].commit(tops[index])
                    codes[index] = None
                except ServeError as exc:
                    codes[index] = exc.code

            threads = [
                threading.Thread(target=wait_then_commit, args=(index,))
                for index in range(WAITERS)
            ]
            for thread in threads:
                thread.start()
            _wait_for(
                lambda: blocking_server.stats()["inflight"] == WAITERS,
                "every waiter's write to be admitted",
            )
            time.sleep(0.1)  # let each reach its lock wait
            started = time.monotonic()
            holder.commit(top)
            elapsed = time.monotonic() - started
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            assert elapsed < 0.5, "holder's commit took %.2f s" % elapsed
            # A waiter may lose a wound to an older waiter; it may
            # never time out.
            assert proto.ERR_LOCK_DENIED not in codes, codes
            assert set(codes) <= {None, proto.ERR_TXN_ABORTED}, codes
            assert None in codes
        finally:
            holder.close()
            for client in clients:
                client.close()


class TestNoDelay:
    def test_every_accepted_socket_sets_tcp_nodelay(self):
        server = _server()
        handle = server.start_in_thread()
        try:
            host, port = server.address
            with SyncClient(host, port) as a, SyncClient(host, port) as b:
                a.ping()
                b.ping()
                with server._lock:
                    sockets = [
                        sock for sock, _ in server._connections.values()
                    ]
                assert len(sockets) == 2
                for sock in sockets:
                    assert sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
        finally:
            handle.stop()

    def test_small_bursts_never_wait_for_a_delayed_ack(self):
        server = _server()
        handle = server.start_in_thread()
        try:
            host, port = server.address
            frames = [
                proto.encode_frame(proto.request("ping", index, payload=index))
                for index in range(64)
            ]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                decoder = proto.FrameDecoder()
                started = time.monotonic()
                for chunk in range(0, 64, 2):
                    sock.sendall(frames[chunk] + frames[chunk + 1])
                    replies = []
                    while len(replies) < 2:
                        replies.extend(decoder.feed(sock.recv(1 << 16)))
                    assert [r["payload"] for r in replies] == [
                        chunk, chunk + 1
                    ]
                elapsed = time.monotonic() - started
            # 32 round trips; one 40 ms delayed ACK each would be 1.3 s.
            assert elapsed < 0.5, "%.3f s for 32 two-frame chunks" % elapsed
        finally:
            handle.stop()


class TestStop:
    def test_stop_ends_a_lock_wait_and_leaves_no_thread(self):
        op_timeout = 2.0
        server = _server(op_timeout=op_timeout)
        handle = server.start_in_thread()
        host, port = server.address
        holder = SyncClient(host, port)
        waiter = SyncClient(host, port)
        try:
            top = holder.begin()
            holder.write(top, "r0", 1)
            blocked = waiter.begin()
            waiter._sock.sendall(
                proto.encode_frame(
                    proto.request(
                        "write", 99, txn=list(blocked), object="r0", value=2
                    )
                )
            )
            _wait_for(
                lambda: server.stats()["inflight"] == 1,
                "the waiter's write to be admitted",
            )
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < op_timeout + 1.0
            assert _serve_threads() == []
            # Both trees were aborted: nothing committed, r0 is free.
            facade = server.facade
            assert facade.engine.stats["commits"] == 0
            probe = facade.begin_top()
            probe.perform("r0", IntRegister.write(3), timeout=0)
            probe.commit()
            assert facade.object_value("r0") == 3
        finally:
            holder.close()
            waiter.close()


class TestSharedState:
    def test_counts_stay_exact_across_connection_threads(self):
        """Eight connection threads (more than the cores) pipeline
        bursts against one global cap, with a tiny switch interval:
        a lost update to the shared counters or admission breaks an
        exact count."""
        clients, rounds, burst, cap = 8, 40, 32, 96
        server = _server(max_inflight=cap, max_inflight_per_conn=burst)
        handle = server.start_in_thread()
        host, port = server.address
        connections = [SyncClient(host, port) for _ in range(clients)]
        txns = [client.begin() for client in connections]
        shed = [0] * clients
        errors = []

        def drive(index):
            read = ("read", {"txn": list(txns[index]), "object": "r0"})
            try:
                for _ in range(rounds):
                    for response in connections[index].pipeline(
                        [read] * burst
                    ):
                        if not response["ok"]:
                            assert (
                                response["error"]["code"]
                                == proto.ERR_OVERLOADED
                            )
                            shed[index] += 1
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(clients)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        try:
            assert errors == []
            for client, txn in zip(connections, txns):
                client.commit(txn)
                client.close()
            _wait_for(
                lambda: server.stats()["connections"] == 0,
                "every connection thread to exit",
            )
            stats = server.stats()
            counters = stats["metrics"]["counters"]
            assert counters["serve.requests{op=read}"] == (
                clients * rounds * burst
            )
            assert counters["serve.requests{op=commit}"] == clients
            assert stats["shed"] == counters.get("serve.shed", 0) == sum(shed)
            assert stats["inflight"] == 0
            assert stats["inflight_high_water"] <= cap
            gauges = stats["metrics"]["gauges"]
            assert gauges["serve.connections"]["value"] == 0
            assert gauges["serve.inflight"]["value"] == 0
        finally:
            handle.stop()
