"""The blocking client of the transaction service.

:class:`SyncClient` is a plain-socket, one-outstanding-request client
(with an explicit :meth:`SyncClient.pipeline` escape hatch); one
thread owns one client.  :meth:`SyncClient.begin_top` hands out a
:class:`WireTransaction`, a remote tree with the facade handle's
surface, which is how the one client loop
(:func:`repro.serve.loadgen.run_clients`) drives the service from both
load generator modes and the scenario ``serve`` backend.

The client holds what no caller awaits.  The paper names a
transaction by its path in the tree and every access is a child of
the transaction that issued it, so once ``begin`` answers the client
can name every descendant itself: ``child`` returns ``parent +
(slot,)`` at once, where the slot counts the children begun plus the
accesses granted on that node, and a subtransaction ``commit`` (once
its child's ``child`` reply came back) answers nothing a caller needs
and changes nothing another tree can see.  Both are *held*: their
frames ride in front of the next awaited request, in one ``sendall``,
and every reply of that write is read before it returns.  A held
reply that failed -- or a ``child`` reply that names another child --
raises on that awaited request, the write's first failure winning.

Typed failures raise :class:`ServeError`, which carries the protocol
error ``code``, the server's ``retry_after_ms`` hint, and any reported
``blockers``.  :func:`backoff_ms` turns a hint into a jittered sleep
(seeded RNG, so retry schedules are reproducible).
"""

from __future__ import annotations

import random
import socket
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.names import TransactionName as TxnName
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
    """Blocking client over one TCP connection.

    Not thread-safe: one thread owns one client.  ``begin``, every
    access, a child's ``abort``, a top-level ``commit`` / ``abort`` and
    the fast ops are awaited; a ``child`` and a subtransaction
    ``commit`` are held (see the module docstring).
    """

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
        #: Encoded frames no caller awaits yet, in request order.
        self._held: List[bytes] = []
        #: Per held frame: the node it names, and whether it is a
        #: ``child`` (whose reply must name that node).
        self._expect: List[Tuple[TxnName, bool]] = []
        #: Next child slot of every live node whose count is known; a
        #: ``child`` of any other node is awaited and teaches it.
        self._slots: Dict[TxnName, int] = {}

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

    def _hold(self, op: str, node: TxnName, **fields: Any) -> None:
        """Queue one request whose reply no caller awaits."""
        self._held.append(
            proto.encode_frame(
                proto.request(op, self._take_id(), **fields)
            )
        )
        self._expect.append((node, op == "child"))

    def _send_with_held(self, payload: bytes) -> Optional[ServeError]:
        """Write the held frames, then *payload*, in one ``sendall``;
        read the held replies.  Returns the first failure among them."""
        held, self._held = self._held, []
        expect, self._expect = self._expect, []
        held.append(payload)
        self._sock.sendall(b"".join(held))
        failure = None
        for node, is_child in expect:
            response = self._recv_one()
            if not response.get("ok"):
                error = ServeError(response)
            elif is_child and tuple(response.get("txn") or ()) != node:
                error = ServeError(
                    proto.error_response(
                        response.get("id"),
                        proto.ERR_INTERNAL,
                        "the server named the child %r, not %r"
                        % (response.get("txn"), list(node)),
                    )
                )
            else:
                continue
            # The tree is not what the client counted: forget it, so
            # its next ``child`` is awaited and relearns the count.
            self._forget(node[:1])
            if failure is None:
                failure = error
        return failure

    def _forget(self, root: TxnName) -> None:
        """Drop the slot counts of *root* and its descendants."""
        slots = self._slots
        slots.pop(root, None)
        if slots:  # other counts left: drop *root*'s descendants
            depth = len(root)
            for name in [name for name in slots if name[:depth] == root]:
                del slots[name]

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One awaited request (raises :class:`ServeError`), with the
        held frames in front of it."""
        request_id = self._take_id()
        frame = proto.encode_frame(proto.request(op, request_id, **fields))
        if self._held:
            failure = self._send_with_held(frame)
            response = self._recv_one()
            if failure is not None:
                raise failure
            return _raise_on_error(response)
        self._sock.sendall(frame)
        response = self._recv_one()
        return _raise_on_error(response)

    def pipeline(
        self, requests: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """Send every request, then read every response (in order).

        Responses are returned raw (``ok`` may be false) so callers
        can count sheds without exception plumbing; a failed held
        frame that rode in front still raises.
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
        failure = self._send_with_held(bytes(payload))
        by_id = {}
        while len(by_id) < len(ids):
            response = self._recv_one()
            by_id[response.get("id")] = response
        responses = [by_id[request_id] for request_id in ids]
        for (op, fields), response in zip(requests, responses):
            if "txn" not in fields:
                continue
            node = tuple(fields["txn"])
            if op not in ("read", "write") or not response.get("ok"):
                self._forget(node[:1])
            elif node in self._slots:
                self._slots[node] += 1
        if failure is not None:
            raise failure
        return responses

    # -- convenience ---------------------------------------------------
    def hello(self) -> Dict[str, Any]:
        return self.call("hello", version=proto.PROTOCOL_VERSION)

    def ping(self, payload: Any = None) -> Dict[str, Any]:
        return self.call("ping", payload=payload)

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")["stats"]

    def begin(self) -> TxnName:
        if self._held:
            # Settle another tree's frames in a write of their own: a
            # failure among them would otherwise raise in place of this
            # begin's answer, and its tree would be live but unnamed.
            failure = self._send_with_held(b"")
            if failure is not None:
                raise failure
        name = tuple(self.call("begin")["txn"])
        self._slots[name] = 0
        return name

    def child(self, txn) -> TxnName:
        """Begin a child of *txn*; held when *txn*'s count is known."""
        parent = tuple(txn)
        slot = self._slots.get(parent)
        if slot is None:
            name = tuple(self.call("child", txn=list(txn))["txn"])
            self._slots[parent] = name[-1] + 1
        else:
            name = parent + (slot,)
            self._slots[parent] = slot + 1
            self._hold("child", name, txn=list(txn))
        self._slots[name] = 0
        return name

    def read(
        self,
        txn,
        object_name: str,
        kind: Optional[str] = None,
        args: Optional[Iterable] = None,
    ) -> Any:
        node = tuple(txn)
        try:
            response = self.call(
                "read",
                txn=list(txn),
                object=object_name,
                kind=kind,
                args=list(args) if args is not None else None,
            )
        except BaseException:
            # Granted or not, the count is unknown now: the node's
            # next ``child`` is awaited and relearns it.
            self._slots.pop(node, None)
            raise
        try:  # granted: the access claims the node's next slot
            self._slots[node] += 1
        except KeyError:  # a node whose count is unknown
            pass
        return response.get("result")

    def write(
        self,
        txn,
        object_name: str,
        value: Any = None,
        kind: Optional[str] = None,
        args: Optional[Iterable] = None,
    ) -> Any:
        node = tuple(txn)
        fields: Dict[str, Any] = {
            "txn": list(txn), "object": object_name
        }
        if kind is not None or args is not None:
            fields["kind"] = kind
            fields["args"] = list(args) if args is not None else []
        else:
            fields["value"] = value
        try:
            response = self.call("write", **fields)
        except BaseException:
            self._slots.pop(node, None)  # as in ``read``
            raise
        try:
            self._slots[node] += 1
        except KeyError:
            pass
        return response.get("result")

    def commit(self, txn, value: Any = None) -> Optional[Dict[str, Any]]:
        """Commit *txn*: the response, or None when the commit is held
        (a subtransaction whose ``child`` reply came back)."""
        name = tuple(txn)
        if (
            len(name) > 1
            and name in self._slots
            and (name, True) not in self._expect  # its reply came back
        ):
            # Its descendants finished first (each dropped its own
            # count), or the held commit fails and forgets the tree.
            del self._slots[name]
            self._hold("commit", name, txn=list(txn), value=value)
            return None
        try:
            return self.call("commit", txn=list(txn), value=value)
        finally:
            self._forget(name)

    def abort(self, txn) -> Dict[str, Any]:
        try:
            return self.call("abort", txn=list(txn))
        finally:
            self._forget(tuple(txn))

    def begin_top(self) -> "WireTransaction":
        """Begin a top-level transaction as a handle (the facade's)."""
        return WireTransaction(self, self.begin())


class WireTransaction:
    """A remote transaction with the facade handle's surface.

    ``begin_child`` / ``perform`` / ``commit`` / ``abort`` each go over
    the client's connection as one request (held or awaited, as
    :class:`SyncClient` decides), so the client loop
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
