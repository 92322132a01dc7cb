"""Coordinator-side RPC link to one shard worker.

A :class:`ShardLink` wraps one duplex pipe connection with the framed
JSON protocol.  A pipe message is a batch of frames: ``send`` assigns
a request id and writes the frame at once, behind every frame *held*
on the link, in one ``send_bytes``; ``hold`` (for a request whose
answer no caller needs and whose effect no other tree can observe)
assigns the id and queues the frame, which leaves -- in order, in
front -- inside the next ``send`` any thread makes.

The waiting thread reads: ``wait`` takes the link's receive lock,
reads pipe messages and hands every reply in them to its waiter until
its own has come, then lets the next waiter take over.  Replies
therefore arrive in the worker's execution order, and per-reply hooks
(observer access events) fire in that order on whichever thread is
reading -- which is what keeps the merged audit stream faithful to
each shard's actual history.  An idle waiter blocks in ``recv_bytes``
(``poll`` under a timeout) or on the lock; nothing spins.

A dead pipe (worker SIGKILLed, or exited) fails every pending waiter,
held ones included, and every later call with :class:`ShardDown`, a
typed :class:`~repro.errors.EngineError`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import EngineError
from repro.serve import protocol as proto


class ShardDown(EngineError):
    """The worker process behind a shard link is gone."""

    def __init__(self, shard: int, detail: str = ""):
        self.shard = shard
        message = "shard %d worker is down" % shard
        if detail:
            message = "%s (%s)" % (message, detail)
        super().__init__(message)


def decode_batch(data: bytes) -> List[Dict[str, Any]]:
    """The messages of one pipe message: whole frames, nothing torn."""
    decoder = proto.FrameDecoder()
    messages = decoder.feed(data)
    if decoder.pending:
        raise proto.FrameCorrupt("pipe message ends inside a frame")
    return messages


class _Waiter:
    """One in-flight request: its ok-hook and its reply slot, which
    stays ``None`` if the link dies before the answer is read."""

    __slots__ = ("reply", "on_ok")

    def __init__(self, on_ok: Optional[Callable[[Dict[str, Any]], None]]):
        self.reply: Optional[Dict[str, Any]] = None
        self.on_ok = on_ok


class ShardLink:
    """Pipelined request/reply over one worker pipe."""

    def __init__(self, shard: int, conn):
        self.shard = shard
        self.conn = conn
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, _Waiter] = {}
        self._held: List[bytes] = []
        self._next_id = 0
        self._down: Optional[ShardDown] = None

    # ------------------------------------------------------------------
    # Request/reply
    # ------------------------------------------------------------------
    def _enqueue(self, op: str, waiter: _Waiter, fields) -> None:
        """Frame one request onto the held queue (send lock held)."""
        request_id = self._next_id
        self._next_id += 1
        with self._pending_lock:
            self._pending[request_id] = waiter
        self._held.append(
            proto.encode_frame(proto.request(op, request_id, **fields))
        )

    def hold(self, op: str, **fields: Any) -> _Waiter:
        """Queue one request in front of the link's next ``send``; never
        raises (on a dead link the waiter just never gets a reply)."""
        waiter = _Waiter(None)
        with self._send_lock:
            if self._down is None:
                self._enqueue(op, waiter, fields)
        return waiter

    def send(
        self,
        op: str,
        on_ok: Optional[Callable[[Dict[str, Any]], None]] = None,
        **fields: Any,
    ) -> _Waiter:
        """Fire one request; returns the waiter to pass to ``wait``.

        Held frames leave in front of it in the same pipe write.
        *on_ok* runs on the reading thread right before the reply is
        handed over, only for ok replies -- the coordinator uses it to
        emit observer events in the shard's execution order.
        """
        waiter = _Waiter(on_ok)
        with self._send_lock:
            if self._down is not None:
                raise self._down
            self._enqueue(op, waiter, fields)
            held, self._held = self._held, []
            try:
                self.conn.send_bytes(b"".join(held))
            except (OSError, ValueError, BrokenPipeError) as exc:
                self._mark_down(str(exc))
                raise self._down from None
        return waiter

    def wait(
        self, waiter: _Waiter, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Read replies until *waiter*'s has come; return it.

        Raises :class:`ShardDown` on link death and a plain
        :class:`~repro.errors.EngineError` after *timeout* seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._recv_lock.acquire(timeout=-1 if timeout is None else timeout):
            try:
                while waiter.reply is None:
                    if self._down is not None:
                        raise self._down
                    if self._read_batch(deadline):
                        break  # timed out
            finally:
                self._recv_lock.release()
        if waiter.reply is None:
            raise EngineError(
                "shard %d reply timed out after %ss" % (self.shard, timeout)
            )
        return waiter.reply

    def call(
        self,
        op: str,
        timeout: Optional[float] = None,
        on_ok: Optional[Callable[[Dict[str, Any]], None]] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """``send`` + ``wait`` in one step."""
        return self.wait(self.send(op, on_ok=on_ok, **fields), timeout)

    @property
    def alive(self) -> bool:
        return self._down is None

    # ------------------------------------------------------------------
    # Reading (by whichever waiter holds the receive lock)
    # ------------------------------------------------------------------
    def _read_batch(self, deadline: Optional[float]) -> bool:
        """One pipe message in, its replies out; true if none came by
        *deadline*."""
        conn = self.conn
        try:
            if deadline is not None and not conn.poll(
                max(0.0, deadline - time.monotonic())
            ):
                return True
            data = conn.recv_bytes()
        except (EOFError, OSError, ValueError):
            self._mark_down("pipe closed")
            return False
        try:
            messages = decode_batch(data)
        except proto.ProtocolError:
            self._mark_down("bad frame from worker")
            return False
        for message in messages:
            waiter = None
            request_id = message.get("id")
            if request_id is not None:
                with self._pending_lock:
                    waiter = self._pending.pop(request_id, None)
            if waiter is None:
                # A boot-failure report (id None) poisons the link.
                if message.get("ok") is False:
                    error = message.get("error") or {}
                    self._mark_down(
                        str(error.get("message", "worker boot failed"))
                    )
                    return False
                continue
            if message.get("ok") and waiter.on_ok is not None:
                try:
                    waiter.on_ok(message)
                except Exception:  # noqa: BLE001 - hooks must not kill I/O
                    pass
            waiter.reply = message
        return False

    def _mark_down(self, detail: str) -> None:
        if self._down is None:
            self._down = ShardDown(self.shard, detail)
        with self._pending_lock:
            self._pending.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self._mark_down("closed")
