"""Per-connection sessions: transaction ownership and op dispatch.

Börger--Schewe model the transaction manager as an agent mediating
concurrent client programs; a :class:`Session` is that agent's
per-client half.  It owns every transaction a connection begins, runs
the connection's requests strictly in order (only the connection's own
thread drives it, so handles are never driven concurrently: the
facade's documented handle contract), and is the unit of orphan
cleanup: when the connection dies, every top-level tree it still owns
is aborted through
:meth:`repro.engine.threadsafe.ThreadSafeEngine.abort_top`.

:meth:`Session.run` is the one entry point.  An access waits up to
``op_timeout`` for its lock, on the connection's thread, exactly as a
local caller of the facade would.  Everything it touches is
session-private or engine-side thread-safe.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.object_spec import Operation
from repro.engine.transaction import TransactionStatus
from repro.engine.threadsafe import (
    ThreadSafeEngine,
    ThreadSafeTransaction,
)
from repro.errors import (
    EngineError,
    InvalidTransactionState,
    TransactionAborted,
)
from repro.serve import protocol as proto

TxnName = Tuple[int, ...]


class UnknownTransaction(EngineError):
    """The request named a transaction this connection does not own."""


class Session:
    """One connection's transactions and their dispatch."""

    def __init__(
        self,
        facade: ThreadSafeEngine,
        conn_id: int,
        op_timeout: Optional[float] = 5.0,
        retry_hint_ms: int = 25,
    ):
        self.facade = facade
        self.conn_id = conn_id
        self.op_timeout = op_timeout
        self.retry_hint_ms = retry_hint_ms
        #: Live handles owned by this connection, by name tuple.
        self.handles: Dict[TxnName, ThreadSafeTransaction] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def owned_tops(self):
        """Names of top-level trees this session still owns."""
        return sorted({name[:1] for name in self.handles})

    def abort_orphans(self, cause: str = "disconnect") -> int:
        """Abort every live tree of a dead session; returns the count.

        Called by the connection's thread once it has stopped running
        requests (nothing drives the handles any more), so the only
        races left are engine-side -- exactly what ``abort_top``
        tolerates.
        """
        aborted = 0
        for top in self.owned_tops():
            if self.facade.abort_top(top, cause=cause):
                aborted += 1
        self.handles.clear()
        return aborted

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one request against the engine; never raises.

        An access waits up to ``op_timeout`` for its lock.
        """
        request_id = message.get("id")
        op = message.get("op")
        try:
            handler = _HANDLERS.get(op)
            if handler is None:
                return proto.error_response(
                    request_id,
                    proto.ERR_BAD_REQUEST,
                    "unknown op %r" % (op,),
                )
            return handler(self, request_id, message)
        except Exception as exc:
            return self._error_response(message, exc)

    def _error_response(
        self, message: Dict[str, Any], exc: Exception
    ) -> Dict[str, Any]:
        """The typed error a handler's exception maps to."""
        request_id = message.get("id")
        if isinstance(exc, UnknownTransaction):
            return proto.error_response(
                request_id, proto.ERR_UNKNOWN_TXN, str(exc)
            )
        if isinstance(exc, (ValueError, KeyError, TypeError)):
            return proto.error_response(
                request_id, proto.ERR_BAD_REQUEST, str(exc)
            )
        # engine errors -> typed taxonomy
        exc = self._translate_dead(message, exc)
        return proto.exception_to_error(
            request_id, exc, retry_after_ms=self.retry_hint_ms
        )

    def _translate_dead(
        self, message: Dict[str, Any], exc: Exception
    ) -> Exception:
        """Surface wounds as ``txn_aborted`` and retire dead trees.

        A wound lands while the victim's client is between calls, so
        its next op trips ``_require_active`` and raises
        ``InvalidTransactionState`` -- which reads as client misuse.
        When the named handle is in fact aborted, report the wound
        (:class:`~repro.errors.TransactionAborted`, retryable) instead.
        Either way a dead tree's handles are pruned, since wounds kill
        whole top-level trees.
        """
        try:
            name = proto.txn_name(message.get("txn"))
        except ValueError:
            return exc
        handle = self.handles.get(name)
        if isinstance(exc, TransactionAborted):
            self._prune_subtree(name[:1])
            return exc
        if (
            isinstance(exc, InvalidTransactionState)
            and handle is not None
            and handle.status is TransactionStatus.ABORTED
        ):
            self._prune_subtree(name[:1])
            return TransactionAborted(
                tuple(name),
                reason="wounded before this request ran",
            )
        return exc

    def _handle(self, message: Dict[str, Any]) -> ThreadSafeTransaction:
        name = proto.txn_name(message.get("txn"))
        handle = self.handles.get(name)
        if handle is None:
            raise UnknownTransaction(
                "transaction %r is not owned by this connection"
                % (list(name),)
            )
        return handle

    def _prune_subtree(self, root: TxnName) -> None:
        depth = len(root)
        for name in [n for n in self.handles if n[:depth] == root]:
            del self.handles[name]

    # -- ops -----------------------------------------------------------
    def _op_begin(self, request_id, message):
        handle = self.facade.begin_top()
        name = handle.name
        self.handles[name] = handle
        return proto.ok_response(request_id, txn=list(name))

    def _op_child(self, request_id, message):
        parent = self._handle(message)
        child = parent.begin_child()
        self.handles[child.name] = child
        return proto.ok_response(request_id, txn=list(child.name))

    def _operation(self, message, is_read: bool) -> Operation:
        kind = message.get("kind")
        if kind is not None and not isinstance(kind, str):
            raise ValueError("kind must be a string")
        if is_read:
            args = proto.wire_args(message.get("args"))
            return Operation(kind or "read", args, is_read=True)
        if "args" in message or kind is not None:
            args = proto.wire_args(message.get("args"))
        elif "value" in message:
            value = message["value"]
            if isinstance(value, list):
                value = proto.wire_args(value)
            args = (value,)
        else:
            raise ValueError("write needs a value (or kind/args)")
        return Operation(kind or "write", args, is_read=False)

    def _op_read(self, request_id, message):
        handle = self._handle(message)
        object_name = message.get("object")
        if not isinstance(object_name, str):
            raise ValueError("read needs an object name")
        result = handle.perform(
            object_name,
            self._operation(message, is_read=True),
            timeout=self.op_timeout,
        )
        return proto.ok_response(request_id, result=result)

    def _op_write(self, request_id, message):
        handle = self._handle(message)
        object_name = message.get("object")
        if not isinstance(object_name, str):
            raise ValueError("write needs an object name")
        result = handle.perform(
            object_name,
            self._operation(message, is_read=False),
            timeout=self.op_timeout,
        )
        return proto.ok_response(request_id, result=result)

    def _op_commit(self, request_id, message):
        handle = self._handle(message)
        name = handle.name
        handle.commit(message.get("value"))
        if len(name) == 1:
            self._prune_subtree(name)
        else:
            del self.handles[name]
        return proto.ok_response(request_id)

    def _op_abort(self, request_id, message):
        name = proto.txn_name(message.get("txn"))
        handle = self.handles.get(name)
        if handle is None:
            # The tree already died (wound, explicit ancestor abort,
            # or a duplicate abort); the op is idempotent.
            return proto.ok_response(request_id, already_finished=True)
        if not handle.is_active:
            # A wound or the reaper got here first (children only die
            # with their tree, so a dead handle means a dead subtree);
            # abort is idempotent at the protocol level.
            self._prune_subtree(name)
            return proto.ok_response(request_id, already_finished=True)
        handle.abort()
        self._prune_subtree(name)
        return proto.ok_response(request_id)


#: :meth:`Session.run`'s dispatch table:
#: ``handler(session, request_id, message) -> response``.
_HANDLERS = {
    "begin": Session._op_begin,
    "child": Session._op_child,
    "read": Session._op_read,
    "write": Session._op_write,
    "commit": Session._op_commit,
    "abort": Session._op_abort,
}
