"""The transaction service front-end: one thread per connection.

One :class:`TransactionServer` owns a
:class:`~repro.engine.threadsafe.ThreadSafeEngine` (or anything with
its surface, such as ``repro.shard.ShardedEngine``) and serves the
framed-JSON protocol of :mod:`repro.serve.protocol` over TCP.  In the
paper's R/W Locking system a conflicting access simply waits: ``M(X)``
enables its ``REQUEST_COMMIT`` once the lock conditions hold, and
Theorem 34 covers every such schedule.  Börger--Schewe model the
transaction manager as one agent per client program.  The server has
that shape: one accept thread, and one blocking thread per connection
(``repro-serve-conn-N``) that loops

1. ``recv``, then ``FrameDecoder.feed``;
2. admit the *whole* decoded burst before running any of it
   (:mod:`repro.serve.admission`), so the per-connection cap, the
   global cap and the token bucket all mean "decoded but unanswered";
   a shed request is answered ``overloaded`` in its place;
3. run the admitted requests in order through
   :meth:`~repro.serve.session.Session.run`, so a lock wait, a shard
   pipe or a WAL fsync blocks this connection and nothing else;
4. answer with one ``sendall`` of the concatenated responses.

Responses therefore keep request order, a pipelining client pays one
read and one write per burst, and a WAL-backed or sharded server runs
exactly the path a plain one does.  Accepted sockets get
``TCP_NODELAY``.  ``idle_timeout`` is the socket timeout of the
``recv``, which is the only place a connection idles with nothing in
flight.  Whatever ends a connection, its thread aborts the trees the
session still owns (:meth:`~repro.serve.session.Session.abort_orphans`)
on the way out.  :meth:`TransactionServer.stop` closes the listener,
shuts every connection socket down, joins every thread, then closes an
attached WAL.

Observability: ``serve.requests`` / ``serve.shed`` / ``serve.reaped`` /
``serve.orphan_aborts`` / ``serve.bad_frames`` and the
``serve.connections`` / ``serve.inflight`` gauges live in a
server-owned :class:`~repro.obs.metrics.MetricsRegistry`; it, the
admission controller and the connection table share one server lock.
An optional :class:`repro.obs.Observer` passed at construction
instruments the engine side exactly as it would off-network.
``attach_wal`` / ``attach_auditor`` mirror the facade's seams, so a
served engine can be durable and self-auditing.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.engine.threadsafe import ThreadSafeEngine
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol as proto
from repro.serve.admission import AdmissionController
from repro.serve.session import Session

#: Ops the server answers itself: never admitted, never the engine's.
_FAST_OPS = frozenset(("hello", "ping", "stats"))


@dataclass
class ServeConfig:
    """Tuning knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Global admitted-but-unanswered request cap.
    max_inflight: int = 256
    #: Per-connection pipelining cap.
    max_inflight_per_conn: int = 32
    #: Optional token-bucket arrival limit (requests/second; None = off).
    rate: Optional[float] = None
    burst: Optional[float] = None
    #: Base shed backoff hint (milliseconds).
    shed_backoff_ms: int = 25
    #: Per-op engine wait budget (seconds; None = wait forever).
    op_timeout: Optional[float] = 5.0
    #: Close connections idle this long (seconds; None = never).
    idle_timeout: Optional[float] = None
    #: Frame size ceiling per connection.
    max_frame_bytes: int = proto.MAX_FRAME_BYTES


def _encode_response(response: Dict[str, Any]) -> bytes:
    """Frame *response*; an unencodable one becomes ``internal``."""
    try:
        return proto.encode_frame(response)
    except Exception as exc:
        return proto.encode_frame(
            proto.error_response(
                response.get("id"),
                proto.ERR_INTERNAL,
                "unencodable response: %s" % (exc,),
            )
        )


def _send(sock: socket.socket, payload: bytes) -> bool:
    """``sendall``; false when the peer (or ``stop``) closed it."""
    try:
        sock.sendall(payload)
    except OSError:
        return False
    return True


def _shut(sock: socket.socket) -> None:
    """Wake whatever thread is blocked on *sock*."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # already disconnected
        pass


class TransactionServer:
    """Serve a kernel-scheme engine to remote clients over TCP."""

    def __init__(
        self,
        specs: Iterable,
        scheme: str = "moss-rw",
        config: Optional[ServeConfig] = None,
        observer=None,
        stripes: Optional[int] = None,
        facade=None,
    ):
        self.config = config or ServeConfig()
        # Any object with the facade surface works -- in particular a
        # ``repro.shard.ShardedEngine`` (``repro serve --sharded``).
        # A passed-in facade's lifecycle stays with the caller; the
        # server never closes it.
        self.facade = facade or ThreadSafeEngine(
            specs,
            policy=scheme,
            observer=observer,
            stripes=stripes,
        )
        self.object_names = sorted(self.facade.engine.specs)
        self.object_types = {
            name: type(spec).__name__
            for name, spec in self.facade.engine.specs.items()
        }
        #: serve.* metrics; touched only under ``_lock``.
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_inflight_per_conn=self.config.max_inflight_per_conn,
            rate=self.config.rate,
            burst=self.config.burst,
            shed_backoff_ms=self.config.shed_backoff_ms,
        )
        #: Guards ``metrics``, ``admission`` and ``_connections``.
        self._lock = threading.Lock()
        #: Live connections: id -> (socket, thread).
        self._connections: Dict[int, Tuple[Any, threading.Thread]] = {}
        self._next_conn = 0
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._stopping = False
        self.wal = None
        self.auditor = None

    # ------------------------------------------------------------------
    # Seams (mirror the facade's)
    # ------------------------------------------------------------------
    def attach_wal(self, wal=None, sink=None, segment_bytes=None):
        """Attach a write-ahead log before starting; returns it.

        Attached through this seam, the log is reported by ``stats``
        and closed by :meth:`stop`.
        """
        self.wal = self.facade.attach_wal(
            wal=wal, sink=sink, segment_bytes=segment_bytes
        )
        return self.wal

    def attach_auditor(self, auditor=None, config=None):
        """Attach an online serializability auditor; returns it."""
        self.auditor = self.facade.attach_auditor(
            auditor=auditor, config=config
        )
        return self.auditor

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        self._listener = socket.create_server(
            (self.config.host, self.config.port), backlog=128
        )
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._acceptor.start()
        return self.address

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop accepting, end every connection, join, close the WAL.

        Each connection thread finishes the request it is running (a
        lock wait ends within ``op_timeout``), finds its socket shut,
        and aborts its session's orphans; *timeout* bounds each join.
        """
        with self._lock:
            if self._listener is None or self._stopping:
                return
            self._stopping = True
        _shut(self._listener)  # wakes the blocked ``accept``
        self._listener.close()
        self._acceptor.join(timeout)
        with self._lock:
            # A socket leaves the table before its thread closes it,
            # so every one shut here is still open.
            connections = list(self._connections.values())
            for sock, _ in connections:
                _shut(sock)
        for _, thread in connections:
            thread.join(timeout)
        if self.wal is not None:
            self.wal.close()

    def start_in_thread(self) -> "ServerThread":
        """Start serving from background threads; returns the handle."""
        return ServerThread(self)

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # ``stop`` shut the listener down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.config.idle_timeout)
            with self._lock:
                if self._stopping:
                    sock.close()
                    return
                conn_id = self._next_conn
                self._next_conn += 1
                thread = threading.Thread(
                    target=self._serve,
                    args=(conn_id, sock),
                    name="repro-serve-conn-%d" % conn_id,
                    daemon=True,
                )
                self._connections[conn_id] = (sock, thread)
                self.metrics.gauge("serve.connections").add(1)
            thread.start()

    def _serve(self, conn_id: int, sock: socket.socket) -> None:
        """One connection: read a burst, answer it, until it ends."""
        session = Session(
            self.facade,
            conn_id,
            op_timeout=self.config.op_timeout,
            retry_hint_ms=self.config.shed_backoff_ms,
        )
        decoder = proto.FrameDecoder(self.config.max_frame_bytes)
        try:
            while True:
                try:
                    data = sock.recv(1 << 16)
                except socket.timeout:
                    self._count("serve.reaped")
                    return
                except OSError:
                    return
                if not data:
                    return
                try:
                    messages = decoder.feed(data)
                except proto.ProtocolError as exc:
                    self._count("serve.bad_frames")
                    _send(
                        sock,
                        _encode_response(
                            proto.error_response(
                                None, proto.ERR_BAD_FRAME, str(exc)
                            )
                        ),
                    )
                    return
                if messages and not _send(
                    sock, self._answer(session, messages)
                ):
                    return
        finally:
            aborted = session.abort_orphans()
            with self._lock:
                if aborted:
                    self.metrics.counter("serve.orphan_aborts").inc(aborted)
                del self._connections[conn_id]
                self.metrics.gauge("serve.connections").add(-1)
            sock.close()

    def _count(self, name: str) -> None:
        with self._lock:
            self.metrics.counter(name).inc()

    def _answer(self, session: Session, messages: List[Dict]) -> bytes:
        """Admit a whole burst, then run it in order; the responses."""
        answers: List[Optional[Dict[str, Any]]] = []
        admitted = 0
        with self._lock:
            for message in messages:
                op = message.get("op")
                self.metrics.counter(
                    "serve.requests", op=op if op in proto.OPS else "invalid"
                ).inc()
                if op not in proto.OPS:
                    answers.append(
                        proto.error_response(
                            message.get("id"),
                            proto.ERR_BAD_REQUEST,
                            "unknown op %r" % (op,),
                        )
                    )
                elif op in _FAST_OPS:
                    answers.append(None)
                else:
                    ok, hint = self.admission.admit(admitted)
                    if ok:
                        admitted += 1
                        answers.append(None)
                    else:
                        self.metrics.counter("serve.shed").inc()
                        answers.append(
                            proto.error_response(
                                message.get("id"),
                                proto.ERR_OVERLOADED,
                                "server overloaded; retry after the hint",
                                retry_after_ms=hint,
                            )
                        )
            if admitted:
                self.metrics.gauge("serve.inflight").set(
                    self.admission.inflight
                )
        try:
            return b"".join(
                _encode_response(
                    answer
                    if answer is not None
                    else self._run(session, message)
                )
                for message, answer in zip(messages, answers)
            )
        finally:
            if admitted:
                with self._lock:
                    self.admission.release(admitted)
                    self.metrics.gauge("serve.inflight").set(
                        self.admission.inflight
                    )

    def _run(self, session: Session, message: Dict[str, Any]):
        op = message.get("op")
        if op not in _FAST_OPS:
            return session.run(message)
        request_id = message.get("id")
        if op == "ping":
            return proto.ok_response(
                request_id, payload=message.get("payload")
            )
        if op == "hello":
            version = message.get("version")
            if version is not None and version != proto.PROTOCOL_VERSION:
                return proto.error_response(
                    request_id,
                    proto.ERR_VERSION,
                    "server speaks protocol %d, client asked for %r"
                    % (proto.PROTOCOL_VERSION, version),
                )
            return proto.ok_response(
                request_id,
                version=proto.PROTOCOL_VERSION,
                scheme=self.facade.scheme.name,
                objects=self.object_names,
                object_types=self.object_types,
                ops=list(proto.OPS),
            )
        return proto.ok_response(request_id, stats=self.stats())

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready server + engine counter snapshot."""
        payload: Dict[str, Any] = {
            "scheme": self.facade.scheme.name,
            # Best-effort under striping.
            "engine": dict(self.facade.engine.stats),
        }
        with self._lock:
            payload.update(
                connections=len(self._connections),
                inflight=self.admission.inflight,
                inflight_high_water=self.admission.inflight_high_water,
                shed=self.admission.shed_total,
                metrics=self.metrics.snapshot(),
            )
        if self.auditor is not None:
            payload["audit_verdict"] = self.auditor.verdict
        if self.wal is not None:
            payload["wal"] = dict(self.wal.stats)
        return payload


class ServerThread:
    """The handle :meth:`TransactionServer.start_in_thread` returns.

    Tests and the perf ladder's serve rung hold one: ``address`` is
    the bound (host, port), ``server`` the server, and ``stop`` shuts
    it down and joins its threads.
    """

    def __init__(self, server: TransactionServer):
        self.server = server
        self.address: Tuple[str, int] = server.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        self.server.stop(timeout)
