"""The wire protocol of the transaction service: framed canonical JSON.

A connection is a byte stream of frames (:mod:`repro.core.framing`,
the codec the WAL uses: varint length, body, CRC32 of the body) whose
bodies are canonical JSON (:mod:`repro.core.jsonbody`, the body codec
the WAL uses: sorted keys, compact separators, ASCII).
The format is pinned by a golden test
(``tests/serve/test_protocol.py``); bump :data:`PROTOCOL_VERSION` when
changing anything here, including any response field.

Requests and responses
----------------------

Every request is an object with a client-chosen ``id`` (echoed
verbatim in the response, so responses to pipelined requests can be
matched out of band) and an ``op``:

========  ====================================================
hello     version handshake; returns scheme + object names
begin     start a top-level transaction; returns its ``txn``
child     start a subtransaction of ``txn``
read      one read access: ``txn``, ``object``, optional
          ``kind``/``args`` (default ``read()``)
write     one write access: ``txn``, ``object``, ``value``
          (sugar for ``write(value)``) or ``kind``/``args``
commit    commit ``txn`` (optional ``value`` reported upward)
abort     abort ``txn`` (idempotent: an already-finished tree
          answers ``ok`` with ``already_finished``)
ping      liveness probe; echoes ``payload`` if present
stats     server + engine counters snapshot
========  ====================================================

A success response is ``{"id": ..., "ok": true, ...}``; a failure is
``{"id": ..., "ok": false, "error": {...}}`` where the error object
carries the typed taxonomy below.

Error taxonomy
--------------

Engine exceptions map to stable codes so remote clients can react
without parsing messages:

===============  ====================================  =========
code             raised by                             retryable
===============  ====================================  =========
bad_request      malformed request / unknown op        no
bad_frame        unreadable frame (connection closes)  no
version_mismatch hello with an unsupported version     no
unknown_txn      ``txn`` not owned by this connection  no
invalid_state    InvalidTransactionState               no
txn_aborted      TransactionAborted (wounds arrive
                 this way: the facade translates a
                 wound into TransactionAborted)        yes
lock_denied      LockDenied (wait timed out)           yes
retry_later      RetryLater (ordered wait / shed)      yes
overloaded       admission control shed                yes
internal         anything else                         no
===============  ====================================  =========

``retry_later`` and ``overloaded`` responses carry ``retry_after_ms``
-- the server's backoff hint (:class:`repro.errors.RetryLater` and the
admission controller populate it); ``lock_denied`` and ``txn_aborted``
carry it when the server's shed policy supplies one.  Denials also
list ``blockers`` (transaction names as lists) when known.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core import jsonbody
from repro.core.framing import FrameError, frame, read_frame
from repro.errors import (
    InvalidTransactionState,
    LockDenied,
    ReproError,
    RetryLater,
    TransactionAborted,
)

#: Bump when the frame or message layout changes.
PROTOCOL_VERSION = 1

#: Frames larger than this are refused (and the connection closed):
#: a correct client never needs them, and a corrupt length must not
#: make the server buffer gigabytes.
MAX_FRAME_BYTES = 1 << 20

#: The operations the server understands.
OPS = (
    "hello",
    "begin",
    "child",
    "read",
    "write",
    "commit",
    "abort",
    "ping",
    "stats",
)

# Error codes (the taxonomy table above).
ERR_BAD_REQUEST = "bad_request"
ERR_BAD_FRAME = "bad_frame"
ERR_VERSION = "version_mismatch"
ERR_UNKNOWN_TXN = "unknown_txn"
ERR_INVALID_STATE = "invalid_state"
ERR_TXN_ABORTED = "txn_aborted"
ERR_LOCK_DENIED = "lock_denied"
ERR_RETRY_LATER = "retry_later"
ERR_OVERLOADED = "overloaded"
ERR_INTERNAL = "internal"

#: Codes a client may retry (after any ``retry_after_ms`` hint).
RETRYABLE_CODES = frozenset(
    (ERR_TXN_ABORTED, ERR_LOCK_DENIED, ERR_RETRY_LATER, ERR_OVERLOADED)
)


class ProtocolError(ReproError):
    """Base class for wire-level failures."""


class FrameTooLarge(ProtocolError):
    """A frame announced a body over :data:`MAX_FRAME_BYTES`."""


class FrameCorrupt(ProtocolError):
    """A frame's CRC or JSON body failed to decode."""


# ----------------------------------------------------------------------
# Messages as frames
# ----------------------------------------------------------------------
def _jsonify(value: Any) -> Any:
    """JSON fallback for engine result values (sets become lists)."""
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    raise TypeError(
        "value of type %s is not wire-encodable" % type(value).__name__
    )


#: The one true byte encoding of a message body
#: (:mod:`repro.core.jsonbody`; sets become sorted lists).
canonical_json = jsonbody.encoder(_jsonify)


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Encode one message as a wire frame."""
    body = canonical_json(message)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            "message encodes to %d bytes (max %d)"
            % (len(body), MAX_FRAME_BYTES)
        )
    return frame(body)


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Decode exactly one complete frame (tests and golden pins)."""
    decoder = FrameDecoder()
    messages = decoder.feed(data)
    if len(messages) != 1 or decoder.pending:
        raise FrameCorrupt(
            "expected exactly one complete frame, got %d (+%d pending "
            "bytes)" % (len(messages), decoder.pending)
        )
    return messages[0]


class FrameDecoder:
    """Incremental frame decoder: feed bytes, get decoded messages.

    Torn input (a frame split across TCP segments) is buffered until
    the rest arrives; corrupt input -- bad CRC, bad JSON, an oversized
    or malformed length -- raises, and the connection that produced it
    must be closed (framing offers no resynchronisation point, by
    design: a client that corrupts one frame cannot be trusted about
    the next).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self._max = max_frame_bytes

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet decodable."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb *data*; return every newly completed message.

        Frames are parsed straight from *data* unless a torn tail of an
        earlier feed waits in front of it; only a torn tail is kept.
        """
        if self._buffer:
            self._buffer.extend(data)
            data = bytes(self._buffer)
        messages: List[Dict[str, Any]] = []
        offset = 0
        while True:
            try:
                found = read_frame(data, offset, self._max)
            except FrameError as exc:
                refusal = FrameTooLarge if exc.oversized else FrameCorrupt
                raise refusal(str(exc)) from None
            if found is None:
                break  # torn; wait for more bytes
            body, offset = found
            messages.append(
                jsonbody.decode(body, FrameCorrupt, "frame body")
            )
        self._buffer = bytearray(data[offset:])
        return messages


# ----------------------------------------------------------------------
# Message constructors (canonical shapes; the golden test pins these)
# ----------------------------------------------------------------------
def request(op: str, request_id: int, **fields: Any) -> Dict[str, Any]:
    """A request message (validation happens server-side)."""
    message = {"id": request_id, "op": op}
    for key, value in fields.items():
        if value is not None:
            message[key] = value
    return message


def ok_response(request_id: Any, **fields: Any) -> Dict[str, Any]:
    message = {"id": request_id, "ok": True}
    for key, value in fields.items():
        if value is not None:
            message[key] = value
    return message


def error_response(
    request_id: Any,
    code: str,
    message: str,
    retry_after_ms: Optional[int] = None,
    blockers: Optional[Iterable] = None,
) -> Dict[str, Any]:
    error: Dict[str, Any] = {
        "code": code,
        "message": message,
        "retryable": code in RETRYABLE_CODES,
    }
    if retry_after_ms is not None:
        error["retry_after_ms"] = int(retry_after_ms)
    if blockers:
        error["blockers"] = sorted(list(name) for name in blockers)
    return {"id": request_id, "ok": False, "error": error}


def exception_to_error(
    request_id: Any,
    exc: BaseException,
    retry_after_ms: Optional[int] = None,
) -> Dict[str, Any]:
    """Map an engine exception to its typed error response.

    ``retry_after_ms`` is the server's policy hint for denials that do
    not carry their own; a :class:`~repro.errors.RetryLater` hint from
    the engine wins over it.
    """
    if isinstance(exc, RetryLater):
        hint = exc.retry_after_ms
        return error_response(
            request_id,
            ERR_RETRY_LATER,
            str(exc),
            retry_after_ms=hint if hint is not None else retry_after_ms,
            blockers=exc.blockers,
        )
    if isinstance(exc, LockDenied):
        return error_response(
            request_id,
            ERR_LOCK_DENIED,
            str(exc),
            retry_after_ms=retry_after_ms,
            blockers=exc.blockers,
        )
    if isinstance(exc, TransactionAborted):
        return error_response(
            request_id,
            ERR_TXN_ABORTED,
            str(exc),
            retry_after_ms=retry_after_ms,
        )
    if isinstance(exc, InvalidTransactionState):
        return error_response(request_id, ERR_INVALID_STATE, str(exc))
    return error_response(
        request_id, ERR_INTERNAL, "%s: %s" % (type(exc).__name__, exc)
    )


def wire_args(args: Any) -> Tuple:
    """JSON argument lists become hashable operation argument tuples."""
    if args is None:
        return ()
    if not isinstance(args, (list, tuple)):
        raise ValueError("args must be a list")
    return tuple(
        wire_args(item) if isinstance(item, (list, tuple)) else item
        for item in args
    )


def txn_name(value: Any) -> Tuple[int, ...]:
    """A wire ``txn`` field (list of ints) as an engine name tuple."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("txn must be a non-empty list of integers")
    for part in value:
        if type(part) is not int:  # JSON ``true`` is not ``1``
            raise ValueError("txn must be a non-empty list of integers")
    return tuple(value)
