"""The asyncio transaction service front-end.

One :class:`TransactionServer` owns a
:class:`~repro.engine.threadsafe.ThreadSafeEngine` and serves the
framed-JSON protocol of :mod:`repro.serve.protocol` over TCP.  The
rule is **inline first, pool when it would block**: Moss' locking
makes an uncontended access a few microseconds of lock-table work, so
only a real conflict should pay for the machinery that waits.  The
layering, bottom up:

* **Engine** -- any registered kernel scheme behind the blocking
  facade; lock waits block *worker* threads, never the event loop.
* **Inline attempt** -- a *lone* request (its connection has nothing
  admitted-but-unanswered, and the socket read that delivered it
  decoded exactly one frame) is tried on the event-loop thread through
  :meth:`~repro.serve.session.Session.try_run`: the same dispatch with
  a zero lock-wait budget.  If it completes it is answered at once; if
  it *would block* (the facade tried the lock, ran its wound pass and
  raised ``LockDenied``) nothing is answered and the message goes to
  the worker pool below with the full ``op_timeout``, exactly as if
  the attempt had not happened.  The loop must never wait on a lock
  wait, a pipe or an fsync, so the attempt is made only when

  a. the facade is an in-process ``ThreadSafeEngine`` -- never a
     ``ShardedEngine`` (``repro serve --sharded``), whose every op
     blocks on a worker pipe; and
  b. no WAL is attached.  Every op appends to the log, under the
     log's own lock, and some appender holds that lock across an
     fsync: a plain ``FileWalSink`` flushes inside the commit's
     structural lock set, and even a group-commit sink (which defers
     the commit flush outside the facade's locks) is flushed
     synchronously by whichever append crosses ``segment_bytes``.
     The loop must neither make that append nor queue behind it, and
     a top-level ``commit``/``abort`` waits for its flush on the
     calling thread besides.  So ``repro serve --wal-dir`` keeps every
     op on the pool.

  Eligibility is read off that state per request; there is no switch.
* **Worker pool** -- a bounded ``ThreadPoolExecutor`` for everything
  the loop did not answer: pipelined bursts, requests behind an
  in-flight batch, ops that would block, and every op of an ineligible
  deployment.  ``workers`` bounds concurrent lock-waiters, the
  admission controller bounds the queue feeding it.
* **Batching** -- requests bound for the pool go through a
  per-connection queue; the pump coalesces everything currently
  queued (up to ``max_batch``) into **one** executor hop that runs the
  ops in order and encodes the responses off the event loop.  A
  pipelining client therefore pays one thread handoff per batch, not
  per op.  A connection is driven from one thread at a time: the
  inline attempt requires that nothing of the connection is in flight,
  and a request that arrives while a batch is in flight queues behind
  it, so responses keep request order.
* **Admission control** (:mod:`repro.serve.admission`) -- per-conn and
  global in-flight caps plus an optional token bucket; shed requests
  are answered immediately with ``overloaded`` + ``retry_after_ms``
  instead of queueing.  Inline requests are admitted and released like
  any other.
* **Sessions** (:mod:`repro.serve.session`) -- transaction ownership;
  a dead connection's trees are aborted (``abort_top``, on the worker
  pool: it takes the facade's locks and a WAL's fsync) once its pump
  drains, and an idle reaper closes connections with no traffic and
  no in-flight work for ``idle_timeout`` seconds.

Observability: ``serve.requests`` / ``serve.shed`` / ``serve.inline`` /
``serve.would_block`` / ``serve.batch_size`` / ``serve.reaped`` and the
in-flight gauge live in a server-owned
:class:`~repro.obs.metrics.MetricsRegistry` touched only from the
event-loop thread (so counters stay exact without locks).
``serve.batch_size`` / ``serve.batch_seconds`` describe only what went
through the pool; ``serve.inline`` counts the ops that did not.  An
optional :class:`repro.obs.Observer` passed at construction
instruments the engine side exactly as it would off-network.
``attach_wal`` / ``attach_auditor`` mirror the facade's seams, so a
served engine can be durable and self-auditing.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.engine.threadsafe import ThreadSafeEngine
from repro.obs.metrics import MetricsRegistry, exponential_buckets
from repro.serve import protocol as proto
from repro.serve.admission import AdmissionController
from repro.serve.session import Session

#: Buckets sized for batch sizes (1..max_batch).
_BATCH_BUCKETS = tuple(float(1 << i) for i in range(9))
#: Buckets sized for op service times in seconds.
_LATENCY_BUCKETS = exponential_buckets(0.0001, 2.0, 18)

#: Ops answered on the event loop without touching the engine.
_FAST_OPS = frozenset(("hello", "ping", "stats"))


@dataclass
class ServeConfig:
    """Tuning knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Worker threads for engine ops (bounds concurrent lock waiters).
    workers: int = 8
    #: Per-connection batch ceiling; 1 disables coalescing.
    max_batch: int = 32
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

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


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


class _Connection:
    """Event-loop-side state of one client connection."""

    __slots__ = (
        "session", "reader", "writer", "queue", "pump", "inflight",
        "decoder", "dead",
    )

    def __init__(self, session, reader, writer, max_frame_bytes):
        self.session = session
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue()
        self.pump: Optional[asyncio.Task] = None
        self.inflight = 0
        self.decoder = proto.FrameDecoder(max_frame_bytes)
        self.dead = False


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
        self._owns_facade = facade is None
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
        #: serve.* metrics; event-loop thread only, hence lock-free.
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_inflight_per_conn=self.config.max_inflight_per_conn,
            rate=self.config.rate,
            burst=self.config.burst,
            shed_backoff_ms=self.config.shed_backoff_ms,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._connections: Dict[int, _Connection] = {}
        self._next_conn = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self._stopping = False
        self.wal = None
        self.auditor = None

    # ------------------------------------------------------------------
    # Seams (mirror the facade's)
    # ------------------------------------------------------------------
    def attach_wal(self, wal=None, sink=None, segment_bytes=None):
        """Attach a write-ahead log before starting; returns it.

        Attach through this seam, not the facade's own: ``self.wal`` is
        how the inline path knows an op can wait on a flush (module
        docstring, rule b).
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
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        if self.config.idle_timeout is not None:
            self._reaper = asyncio.ensure_future(self._reap_idle())
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown
            pass

    async def stop(self) -> None:
        """Stop accepting, drain connections, abort leftovers."""
        self._stopping = True
        if self._reaper is not None:
            self._reaper.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections.values()):
            self._close_transport(conn)
        deadline = time.monotonic() + 5.0
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self._executor.shutdown(wait=True)
        if self.wal is not None:
            self.wal.close()

    def start_in_thread(self, timeout: float = 10.0) -> "ServerThread":
        """Run this server on a dedicated thread; returns its handle."""
        handle = ServerThread(self)
        handle.start(timeout=timeout)
        return handle

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        conn_id = self._next_conn
        self._next_conn += 1
        session = Session(
            self.facade,
            conn_id,
            op_timeout=self.config.op_timeout,
            retry_hint_ms=self.config.shed_backoff_ms,
        )
        conn = _Connection(
            session, reader, writer, self.config.max_frame_bytes
        )
        self._connections[conn_id] = conn
        self.metrics.gauge("serve.connections").add(1)
        conn.pump = asyncio.ensure_future(self._pump(conn))
        try:
            await self._read_loop(conn)
        finally:
            try:
                await self._cleanup(conn_id, conn)
            except asyncio.CancelledError:
                # Loop teardown cancelled the drain mid-await; free
                # what we can synchronously so the task ends quietly.
                self._abandon(conn_id, conn)

    async def _read_loop(self, conn: _Connection) -> None:
        while not conn.dead:
            try:
                data = await conn.reader.read(1 << 16)
            except (ConnectionError, OSError):
                return
            if not data:
                return
            conn.session.last_active = time.monotonic()
            try:
                messages = conn.decoder.feed(data)
            except proto.ProtocolError as exc:
                self.metrics.counter("serve.bad_frames").inc()
                self._send(
                    conn,
                    proto.error_response(
                        None, proto.ERR_BAD_FRAME, str(exc)
                    ),
                )
                return
            lone = len(messages) == 1
            for message in messages:
                self._ingest(conn, message, lone)
            try:
                await conn.writer.drain()
            except (ConnectionError, OSError):
                return

    def _ingest(
        self, conn: _Connection, message: Dict[str, Any], lone: bool
    ) -> None:
        """Answer, shed, try inline or queue one decoded request.

        *lone*: the read that delivered *message* decoded no other
        frame (a pipelined burst keeps the batching pump).
        """
        op = message.get("op")
        request_id = message.get("id")
        self.metrics.counter(
            "serve.requests", op=op if op in proto.OPS else "invalid"
        ).inc()
        if op in _FAST_OPS:
            self._send(conn, self._fast_op(op, request_id, message))
            return
        if op not in proto.OPS:
            self._send(
                conn,
                proto.error_response(
                    request_id,
                    proto.ERR_BAD_REQUEST,
                    "unknown op %r" % (op,),
                ),
            )
            return
        admitted, hint = self.admission.admit(conn.inflight)
        if not admitted:
            self.metrics.counter("serve.shed").inc()
            self._send(
                conn,
                proto.error_response(
                    request_id,
                    proto.ERR_OVERLOADED,
                    "server overloaded; retry after the hint",
                    retry_after_ms=hint,
                ),
            )
            return
        if lone and conn.inflight == 0 and self._loop_may_run():
            response = conn.session.try_run(message)
            if response is not None:
                self.admission.release(1)
                self.metrics.counter("serve.inline").inc()
                self._send(conn, response)
                return
            self.metrics.counter("serve.would_block").inc()
        conn.inflight += 1
        self.metrics.gauge("serve.inflight").set(self.admission.inflight)
        conn.queue.put_nowait(message)

    def _loop_may_run(self) -> bool:
        """May an op be attempted on the event-loop thread?

        The module docstring's rules a and b: only an in-process
        facade, and never behind a WAL (any append can wait on a
        flush).
        """
        return self.wal is None and isinstance(
            self.facade, ThreadSafeEngine
        )

    def _fast_op(self, op, request_id, message) -> Dict[str, Any]:
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
        engine_stats = dict(
            self.facade.engine.stats  # best-effort under striping
        )
        payload: Dict[str, Any] = {
            "scheme": self.facade.scheme.name,
            "connections": len(self._connections),
            "inflight": self.admission.inflight,
            "inflight_high_water": self.admission.inflight_high_water,
            "shed": self.admission.shed_total,
            "engine": engine_stats,
            "metrics": self.metrics.snapshot(),
        }
        if self.auditor is not None:
            payload["audit_verdict"] = self.auditor.verdict
        if self.wal is not None:
            payload["wal"] = dict(self.wal.stats)
        return payload

    def _send(self, conn: _Connection, response: Dict[str, Any]) -> None:
        if conn.dead:
            return
        try:
            conn.writer.write(_encode_response(response))
        except (ConnectionError, OSError):
            conn.dead = True

    # ------------------------------------------------------------------
    # Batching pump: session queue -> one executor hop per batch
    # (everything the inline attempt did not answer)
    # ------------------------------------------------------------------
    async def _pump(self, conn: _Connection) -> None:
        loop = asyncio.get_running_loop()
        queue = conn.queue
        max_batch = self.config.max_batch
        while True:
            message = await queue.get()
            if message is None:
                return
            batch = [message]
            finish_after = False
            while len(batch) < max_batch:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    finish_after = True
                    break
                batch.append(extra)
            self.metrics.histogram(
                "serve.batch_size", bounds=_BATCH_BUCKETS
            ).observe(float(len(batch)))
            started = time.perf_counter()
            payload = await loop.run_in_executor(
                self._executor, self._run_batch, conn.session, batch
            )
            self.metrics.histogram(
                "serve.batch_seconds", bounds=_LATENCY_BUCKETS
            ).observe(time.perf_counter() - started)
            conn.inflight -= len(batch)
            self.admission.release(len(batch))
            self.metrics.gauge("serve.inflight").set(
                self.admission.inflight
            )
            if not conn.dead:
                try:
                    conn.writer.write(payload)
                    await conn.writer.drain()
                except (ConnectionError, OSError):
                    conn.dead = True
            if finish_after:
                return

    def _run_batch(self, session: Session, batch) -> bytes:
        """Worker-thread half: run the ops in order, encode responses."""
        return b"".join(
            _encode_response(session.run(message)) for message in batch
        )

    # ------------------------------------------------------------------
    # Cleanup and reaping
    # ------------------------------------------------------------------
    def _close_transport(self, conn: _Connection) -> None:
        conn.dead = True
        try:
            conn.writer.close()
        except Exception:  # pragma: no cover - transport races
            pass

    def _abandon(self, conn_id: int, conn: _Connection) -> None:
        """Last-resort synchronous teardown (cancelled cleanup)."""
        self._close_transport(conn)
        if conn.pump is not None:
            conn.pump.cancel()
        conn.session.abort_orphans()
        if self._connections.pop(conn_id, None) is not None:
            self.metrics.gauge("serve.connections").add(-1)

    async def _cleanup(self, conn_id: int, conn: _Connection) -> None:
        # Stop feeding the pump, let it drain what was admitted, then
        # (with no worker driving the session any more) abort orphans.
        conn.queue.put_nowait(None)
        if conn.pump is not None:
            try:
                await conn.pump
            except Exception:  # pragma: no cover - pump crash
                pass
        released = 0
        while True:
            try:
                item = conn.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None:
                released += 1
        if released:
            self.admission.release(released)
        # On the pool, never the loop: ``abort_top`` takes the facade's
        # locks and, behind a WAL, waits on the abort record's fsync.
        try:
            aborted = await asyncio.get_running_loop().run_in_executor(
                self._executor, conn.session.abort_orphans
            )
        except RuntimeError:
            # ``stop`` gave up on this drain and shut the pool down.
            aborted = conn.session.abort_orphans()
        if aborted:
            self.metrics.counter("serve.orphan_aborts").inc(aborted)
        self._close_transport(conn)
        self._connections.pop(conn_id, None)
        self.metrics.gauge("serve.connections").add(-1)

    async def _reap_idle(self) -> None:
        timeout = self.config.idle_timeout
        interval = max(0.05, min(1.0, timeout / 4.0))
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for conn in list(self._connections.values()):
                idle = now - conn.session.last_active
                if idle > timeout and conn.inflight == 0:
                    self.metrics.counter("serve.reaped").inc()
                    self._close_transport(conn)


class ServerThread:
    """Run a :class:`TransactionServer` on its own thread + loop.

    The in-process deployment shape used by tests and bench E23 (the
    CLI runs the loop on the main thread instead).  ``start`` returns
    once the server is bound; ``stop`` shuts it down and joins.
    """

    def __init__(self, server: TransactionServer):
        self.server = server
        self.address: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                "server failed to start: %s" % self._error
            )
        assert self.address is not None
        return self.address

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop_event = asyncio.Event()
        try:
            self.address = loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_until_complete(self._stop_event.wait())
            loop.run_until_complete(self.server.stop())
        finally:
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is None or self._stop_event is None:
            return
        if self._thread is None or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
