"""The blocking client of the transaction service.

:class:`SyncClient` is a plain-socket, one-outstanding-request client
(with an explicit :meth:`SyncClient.pipeline` escape hatch); one
thread owns one client.  :meth:`SyncClient.begin_top` hands out a
:class:`WireTransaction`, a remote tree with the facade handle's
surface, which is how the one client loop
(:func:`repro.serve.loadgen.run_clients`) drives the service from both
load generator modes and the scenario ``serve`` backend.

Typed failures raise :class:`ServeError`, which carries the protocol
error ``code``, the server's ``retry_after_ms`` hint, and any reported
``blockers``.  :func:`backoff_ms` turns a hint into a jittered sleep
(seeded RNG, so retry schedules are reproducible).
"""

from __future__ import annotations

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

    def begin_top(self) -> "WireTransaction":
        """Begin a top-level transaction as a handle (the facade's)."""
        return WireTransaction(self, self.begin())


class WireTransaction:
    """A remote transaction with the facade handle's surface.

    ``begin_child`` / ``perform`` / ``commit`` / ``abort`` each go over
    the client's connection as one request, so the client loop
    (:func:`repro.serve.loadgen.run_clients`) drives a remote tree as
    it drives a :class:`~repro.engine.threadsafe.ThreadSafeTransaction`.
    Failures raise :class:`ServeError`.
    """

    __slots__ = ("client", "name")

    def __init__(self, client: SyncClient, name: Tuple[int, ...]):
        self.client = client
        self.name = name

    def begin_child(self) -> "WireTransaction":
        return WireTransaction(self.client, self.client.child(self.name))

    def perform(self, object_name: str, operation, timeout=None) -> Any:
        """One access; the server's ``--op-timeout`` bounds its wait,
        so *timeout* (the facade's per-call bound) is not sent."""
        call = self.client.read if operation.is_read else self.client.write
        return call(
            self.name,
            object_name,
            kind=operation.kind,
            args=operation.args,
        )

    def commit(self, value: Any = None) -> None:
        self.client.commit(self.name, value)

    def abort(self) -> None:
        self.client.abort(self.name)
