"""End-to-end service tests: real sockets, real threads, real engine.

Every test starts a :class:`~repro.serve.server.TransactionServer` on
an ephemeral port and drives it with the real clients.  The headline
check is the serial oracle: N concurrent remote clients racing
``Counter`` increments must leave the counter equal to the number of
*acknowledged* commits -- per scheme, with the online auditor attached
and reporting clean.
"""

import random
import threading
import time

import pytest

from repro.adt import Counter, IntRegister
from repro.serve import protocol as proto
from repro.serve.admission import TokenBucket
from repro.serve.client import ServeError, SyncClient, backoff_ms
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.server import ServeConfig, TransactionServer
from repro.serve.session import Session


def start_server(scheme="moss-rw", objects=None, audit=True, **config):
    if objects is None:
        objects = [Counter("c%d" % i) for i in range(4)]
    server = TransactionServer(
        objects, scheme=scheme, config=ServeConfig(port=0, **config)
    )
    if audit:
        server.attach_auditor()
    handle = server.start_in_thread()
    return server, handle


@pytest.fixture()
def server():
    server, handle = start_server()
    yield server
    handle.stop()


def connect(server):
    host, port = server.address
    return SyncClient(host, port)


class TestBasics:
    def test_hello_handshake(self, server):
        with connect(server) as client:
            hello = client.hello()
            assert hello["version"] == proto.PROTOCOL_VERSION
            assert hello["scheme"] == "moss-rw"
            assert hello["objects"] == ["c0", "c1", "c2", "c3"]

    def test_hello_version_mismatch(self, server):
        with connect(server) as client:
            with pytest.raises(ServeError) as excinfo:
                client.call("hello", version=99)
            assert excinfo.value.code == proto.ERR_VERSION

    def test_ping_echoes_payload(self, server):
        with connect(server) as client:
            assert client.ping(["x", 1])["payload"] == ["x", 1]

    def test_stats_reports_engine_and_admission(self, server):
        with connect(server) as client:
            stats = client.stats()
            assert stats["scheme"] == "moss-rw"
            assert stats["connections"] == 1
            assert "engine" in stats and "metrics" in stats
            assert stats["audit_verdict"] == "clean"

    def test_remote_nested_transactions(self, server):
        with connect(server) as client:
            top = client.begin()
            child = client.child(top)
            client.write(child, "c0", kind="increment", args=[5])
            client.commit(child)
            doomed = client.child(top)
            client.write(doomed, "c0", kind="increment", args=[100])
            client.abort(doomed)
            client.commit(top)
            probe = client.begin()
            assert client.read(probe, "c0", kind="value") == 5
            client.commit(probe)

    def test_bad_frame_closes_connection(self, server):
        host, port = server.address
        import socket

        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"\x05garbg\x00\x00\x00\x00")
            decoder = proto.FrameDecoder()
            messages = []
            while True:
                data = sock.recv(4096)
                if not data:
                    break  # server hung up, as promised
                messages.extend(decoder.feed(data))
            assert len(messages) == 1
            assert messages[0]["error"]["code"] == proto.ERR_BAD_FRAME


def _hammer(server, scheme, clients=4, txns=25):
    """Race increments from N real client threads; return acked count."""
    host, port = server.address
    acked = [0] * clients
    errors = []

    def worker(index):
        rng = random.Random(index)
        try:
            with SyncClient(host, port, timeout=30.0) as client:
                for _ in range(txns):
                    for attempt in range(50):
                        try:
                            txn = client.begin()
                            client.write(
                                txn,
                                "c%d" % rng.randrange(4),
                                kind="increment",
                                args=[1],
                            )
                            client.commit(txn)
                            acked[index] += 1
                            break
                        except ServeError as exc:
                            if not exc.retryable:
                                raise
                            if exc.code != proto.ERR_TXN_ABORTED:
                                try:
                                    client.abort(txn)
                                except ServeError:
                                    pass
                            time.sleep(
                                backoff_ms(
                                    exc.retry_after_ms, attempt, rng
                                )
                                / 1000.0
                            )
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    return sum(acked)


class TestSerialOracle:
    @pytest.mark.parametrize("scheme", ["moss-rw", "exclusive", "mvto"])
    def test_acked_commits_equal_final_state(self, scheme):
        server, handle = start_server(scheme=scheme, op_timeout=10.0)
        try:
            acked = _hammer(server, scheme)
            # The oracle: every acknowledged commit is durable in the
            # engine, nothing else is.
            total = 0
            with connect(server) as client:
                txn = client.begin()
                for name in ("c0", "c1", "c2", "c3"):
                    total += client.read(txn, name, kind="value")
                client.commit(txn)
            assert total == acked
            assert server.auditor.verdict == "clean"
        finally:
            handle.stop()


class TestOrphanCleanup:
    def test_disconnect_aborts_open_transactions(self, server):
        host, port = server.address
        first = SyncClient(host, port)
        txn = first.begin()
        first.write(txn, "c0", kind="increment", args=[7])
        # Drop the connection with the transaction open and its lock
        # held: the server must abort the orphan and free the lock.
        first.close()
        with SyncClient(host, port) as second:
            txn2 = second.begin()
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    second.write(
                        txn2, "c0", kind="increment", args=[1]
                    )
                    break
                except ServeError as exc:
                    assert exc.retryable
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            second.commit(txn2)
            probe = second.begin()
            # The orphan's increment is gone; only ours survived.
            assert second.read(probe, "c0", kind="value") == 1
            second.commit(probe)
            stats = second.stats()
            counters = stats["metrics"]["counters"]
            assert counters.get("serve.orphan_aborts", 0) >= 1

    def test_idle_connections_are_reaped(self):
        server, handle = start_server(idle_timeout=0.2)
        try:
            host, port = server.address
            idle = SyncClient(host, port)
            idle.ping()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    idle.ping()
                    time.sleep(0.3)  # stop pinging; go idle
                    idle._sock.settimeout(1.0)
                    if not idle._sock.recv(1):
                        break  # EOF: reaped
                except (ConnectionError, OSError):
                    break
            else:
                pytest.fail("idle connection was never reaped")
            with SyncClient(host, port) as probe:
                stats = probe.stats()
            counters = stats["metrics"]["counters"]
            assert counters.get("serve.reaped", 0) >= 1
        finally:
            handle.stop()


class TestOverload:
    def test_burst_sheds_and_bounds_inflight(self):
        server, handle = start_server(
            audit=False,
            max_inflight=4,
            max_inflight_per_conn=4,
        )
        try:
            with connect(server) as client:
                txn = client.begin()
                responses = client.pipeline(
                    [
                        (
                            "read",
                            {
                                "txn": list(txn),
                                "object": "c0",
                                "kind": "value",
                            },
                        )
                    ]
                    * 64
                )
            ok = [r for r in responses if r.get("ok")]
            shed = [
                r
                for r in responses
                if not r.get("ok")
                and r["error"]["code"] == proto.ERR_OVERLOADED
            ]
            assert len(ok) + len(shed) == 64
            assert shed, "a 64-deep burst over cap 4 must shed"
            for response in shed:
                assert response["error"]["retryable"] is True
                assert response["error"]["retry_after_ms"] >= 1
            stats = server.stats()
            assert stats["inflight_high_water"] <= 4
            assert stats["shed"] == len(shed)
            counters = stats["metrics"]["counters"]
            assert counters["serve.shed"] == len(shed)
        finally:
            handle.stop()

    def test_token_bucket_sheds_above_rate(self):
        server, handle = start_server(audit=False, rate=5.0, burst=2.0)
        try:
            with connect(server) as client:
                outcomes = []
                txn = None
                for _ in range(10):
                    try:
                        txn = client.begin()
                        outcomes.append("ok")
                    except ServeError as exc:
                        outcomes.append(exc.code)
                assert outcomes.count("ok") >= 2
                assert proto.ERR_OVERLOADED in outcomes
        finally:
            handle.stop()

    def test_a_shed_frame_sheds_the_rest_of_its_burst(self):
        # One token, and the clock refills it between the burst's
        # second and third frame: the third must not run after the
        # second was shed, so a burst runs a prefix.
        server = TransactionServer([Counter("c0")], config=ServeConfig())
        ticks = [0.0, 0.0, 0.0, 5.0]
        server.admission.bucket = TokenBucket(
            1.0, 1.0, clock=lambda: ticks.pop(0) if ticks else 5.0
        )
        session = Session(server.facade, 0)
        burst = [proto.request("begin", index) for index in (1, 2, 3)]
        answers = proto.FrameDecoder().feed(server._answer(session, burst))
        assert [answer["ok"] for answer in answers] == [True, False, False]
        for answer in answers[1:]:
            assert answer["error"]["code"] == proto.ERR_OVERLOADED
            assert answer["error"]["retry_after_ms"] >= 1
        stats = server.stats()
        assert stats["shed"] == 2
        assert stats["metrics"]["counters"]["serve.shed"] == 2
        assert stats["inflight"] == 0
        session.abort_orphans()


class TestBatching:
    def test_pipelined_ops_coalesce(self):
        server, handle = start_server(
            audit=False,
            max_inflight=128,
            max_inflight_per_conn=128,
        )
        try:
            with connect(server) as client:
                txn = client.begin()
                responses = client.pipeline(
                    [
                        (
                            "write",
                            {
                                "txn": list(txn),
                                "object": "c0",
                                "kind": "increment",
                                "args": [1],
                            },
                        )
                    ]
                    * 48
                )
                assert all(r.get("ok") for r in responses)
                assert [r["result"] for r in responses] == list(
                    range(1, 49)
                )
                client.commit(txn)
            stats = server.stats()
            assert stats["metrics"]["counters"][
                "serve.requests{op=write}"
            ] == 48
            # Coalescing happened: a burst was admitted, run and
            # answered as one, not op by op.
            assert stats["inflight_high_water"] > 1
        finally:
            handle.stop()


class TestLoadgen:
    """The load generators against an in-process server."""

    def test_closed_loop_reports_commits(self):
        server, handle = start_server(audit=False)
        try:
            host, port = server.address
            report = run_loadgen(
                LoadgenConfig(
                    host=host,
                    port=port,
                    mode="closed",
                    clients=3,
                    duration=0.7,
                    ops_per_txn=2,
                    seed=7,
                )
            )
            assert report.committed > 0
            assert report.failed == 0
            assert report.throughput > 0
            data = report.to_json()
            assert data["mode"] == "closed"
            assert data["latency_ms"]["p50"] > 0
            assert "p99" in data["latency_ms"]
        finally:
            handle.stop()

    def test_open_loop_reports_commits(self):
        server, handle = start_server(audit=False)
        try:
            host, port = server.address
            report = run_loadgen(
                LoadgenConfig(
                    host=host,
                    port=port,
                    mode="open",
                    clients=4,
                    duration=0.7,
                    rate=60.0,
                    ops_per_txn=2,
                    seed=7,
                )
            )
            assert report.committed > 0
            assert report.failed == 0
            assert "open" in report.render()
        finally:
            handle.stop()

    def test_loadgen_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            LoadgenConfig(mode="sideways")


class TestServerLifecycle:
    def test_stop_is_clean_with_live_connections(self):
        server, handle = start_server(audit=False)
        host, port = server.address
        client = SyncClient(host, port)
        txn = client.begin()
        client.write(txn, "c0", kind="increment", args=[1])
        handle.stop()
        # The dangling transaction was aborted, not committed.
        assert server.facade.engine.stats["commits"] == 0
        client.close()

    def test_registers_as_served_objects(self):
        server, handle = start_server(
            audit=False, objects=[IntRegister("r0"), IntRegister("r1")]
        )
        try:
            with connect(server) as client:
                assert client.hello()["objects"] == ["r0", "r1"]
                txn = client.begin()
                client.write(txn, "r0", value=41)
                assert client.read(txn, "r0") == 41
                client.commit(txn)
        finally:
            handle.stop()
