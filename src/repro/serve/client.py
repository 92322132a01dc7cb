"""Sync and async clients for the transaction service.

:class:`SyncClient` is a plain-socket, one-outstanding-request client
(with an explicit :meth:`SyncClient.pipeline` escape hatch) -- the
closed-loop load generator and the tests use it.  :class:`AsyncClient`
multiplexes any number of concurrent requests over one connection by
``id`` -- the open-loop generator uses it.

Typed failures raise :class:`ServeError`, which carries the protocol
error ``code``, the server's ``retry_after_ms`` hint, and any reported
``blockers``.  :func:`backoff_ms` turns a hint into a jittered sleep
(seeded RNG, so retry schedules are reproducible).
"""

from __future__ import annotations

import asyncio
import random
import socket
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.serve import protocol as proto


class ServeError(ReproError):
    """A typed error response from the server."""

    def __init__(self, response: Dict[str, Any]):
        error = response.get("error") or {}
        self.response = response
        self.code = error.get("code", proto.ERR_INTERNAL)
        self.retryable = bool(error.get("retryable"))
        self.retry_after_ms = error.get("retry_after_ms")
        self.blockers = tuple(
            tuple(name) for name in error.get("blockers", ())
        )
        super().__init__(
            "%s: %s" % (self.code, error.get("message", ""))
        )


def backoff_ms(
    hint_ms: Optional[int],
    attempt: int,
    rng: random.Random,
    base_ms: float = 5.0,
    cap_ms: float = 1000.0,
) -> float:
    """Jittered exponential backoff, seeded with the server's hint.

    The hint (when present) is the floor of the first retry; without
    one, ``base_ms`` doubles per attempt.  Full jitter keeps shed
    herds from retrying in lockstep.
    """
    floor = float(hint_ms) if hint_ms else base_ms
    ceiling = min(cap_ms, floor * (2.0 ** max(0, attempt)))
    return rng.uniform(floor, max(floor, ceiling))


def _raise_on_error(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        raise ServeError(response)
    return response


class SyncClient:
    """Blocking client over one TCP connection."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
    ):
        self._sock = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._decoder = proto.FrameDecoder()
        self._next_id = 0
        self._inbox: List[Dict[str, Any]] = []

    # -- plumbing ------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already dead
            pass

    def __enter__(self) -> "SyncClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _recv_one(self) -> Dict[str, Any]:
        while not self._inbox:
            data = self._sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self._inbox.extend(self._decoder.feed(data))
        return self._inbox.pop(0)

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request, one response (raises :class:`ServeError`)."""
        request_id = self._take_id()
        self._sock.sendall(
            proto.encode_frame(proto.request(op, request_id, **fields))
        )
        response = self._recv_one()
        return _raise_on_error(response)

    def pipeline(
        self, requests: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """Send every request, then read every response (in order).

        Responses are returned raw (``ok`` may be false) so callers
        can count sheds without exception plumbing.
        """
        payload = bytearray()
        ids = []
        for op, fields in requests:
            request_id = self._take_id()
            ids.append(request_id)
            payload.extend(
                proto.encode_frame(
                    proto.request(op, request_id, **fields)
                )
            )
        self._sock.sendall(bytes(payload))
        by_id = {}
        while len(by_id) < len(ids):
            response = self._recv_one()
            by_id[response.get("id")] = response
        return [by_id[request_id] for request_id in ids]

    # -- convenience ---------------------------------------------------
    def hello(self) -> Dict[str, Any]:
        return self.call("hello", version=proto.PROTOCOL_VERSION)

    def ping(self, payload: Any = None) -> Dict[str, Any]:
        return self.call("ping", payload=payload)

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")["stats"]

    def begin(self) -> Tuple[int, ...]:
        return tuple(self.call("begin")["txn"])

    def child(self, txn) -> Tuple[int, ...]:
        return tuple(self.call("child", txn=list(txn))["txn"])

    def read(
        self,
        txn,
        object_name: str,
        kind: Optional[str] = None,
        args: Optional[Iterable] = None,
    ) -> Any:
        return self.call(
            "read",
            txn=list(txn),
            object=object_name,
            kind=kind,
            args=list(args) if args is not None else None,
        ).get("result")

    def write(
        self,
        txn,
        object_name: str,
        value: Any = None,
        kind: Optional[str] = None,
        args: Optional[Iterable] = None,
    ) -> Any:
        fields: Dict[str, Any] = {
            "txn": list(txn), "object": object_name
        }
        if kind is not None or args is not None:
            fields["kind"] = kind
            fields["args"] = list(args) if args is not None else []
        else:
            fields["value"] = value
        return self.call("write", **fields).get("result")

    def commit(self, txn, value: Any = None) -> Dict[str, Any]:
        return self.call("commit", txn=list(txn), value=value)

    def abort(self, txn) -> Dict[str, Any]:
        return self.call("abort", txn=list(txn))


class AsyncClient:
    """Asyncio client multiplexing concurrent requests by ``id``."""

    def __init__(self):
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder = proto.FrameDecoder()
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task: Optional[asyncio.Task] = None
        self._closing = False

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(
            host, port
        )
        client._reader_task = asyncio.ensure_future(client._read_loop())
        return client

    @property
    def connected(self) -> bool:
        """True while the read loop is alive (responses can arrive)."""
        return (
            self._reader_task is not None
            and not self._reader_task.done()
            and not self._closing
        )

    async def close(self) -> None:
        self._closing = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                data = await self._reader.read(1 << 16)
                if not data:
                    raise ConnectionError("server closed the connection")
                for response in self._decoder.feed(data):
                    future = self._pending.pop(
                        response.get("id"), None
                    )
                    if future is not None and not future.done():
                        future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError(str(exc))
                    )
            self._pending.clear()

    async def call_raw(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request; response may be an error (``ok`` false)."""
        assert self._writer is not None
        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(
            proto.encode_frame(proto.request(op, request_id, **fields))
        )
        await self._writer.drain()
        return await future

    async def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        return _raise_on_error(await self.call_raw(op, **fields))

    # -- convenience ---------------------------------------------------
    async def begin(self) -> Tuple[int, ...]:
        return tuple((await self.call("begin"))["txn"])

    async def read(self, txn, object_name: str) -> Any:
        return (
            await self.call(
                "read", txn=list(txn), object=object_name
            )
        ).get("result")

    async def write(self, txn, object_name: str, value: Any) -> Any:
        return (
            await self.call(
                "write",
                txn=list(txn),
                object=object_name,
                value=value,
            )
        ).get("result")

    async def commit(self, txn, value: Any = None) -> Dict[str, Any]:
        return await self.call("commit", txn=list(txn), value=value)

    async def abort(self, txn) -> Dict[str, Any]:
        return await self.call("abort", txn=list(txn))

    async def stats(self) -> Dict[str, Any]:
        return (await self.call("stats"))["stats"]
