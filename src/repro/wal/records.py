"""The WAL on-disk record format: CRC-framed, varint-length records.

A log is a byte stream of frames (:mod:`repro.core.framing`: varint
length, body, CRC32 of the body) whose bodies are::

    body    := kind(1 byte) payload
    payload := canonical JSON (sorted keys, compact separators, UTF-8)

Framing carries no magic bytes: the first record of every segment is a
:data:`SEGMENT` header whose payload names the format version, so a
non-log file fails the very first frame.

The format is pinned by a golden test (``tests/wal/test_format.py``);
bump ``FORMAT_VERSION`` when changing anything here.

Record kinds
------------

======== ===== =================================================
SEGMENT    0   segment header: format version, scheme, object
               specs, first LSN of the segment
BEGIN      1   a transaction registered (top-level or child)
ACQUIRE    2   one granted access: the leaf name, the object, the
               operation, and the object's post-transition
               movement ``generation`` (cross-checked on replay)
COMMIT     3   commit boundary of a transaction
ABORT      4   abort boundary of a (sub)tree root
======== ===== =================================================

Every payload carries ``lsn``, the log sequence number: a monotone
per-log counter in the movement-only spirit of the PR 5 ``generation``
counter -- it advances exactly once per logged transition and never
for denials, so equal prefixes of two logs describe equal state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.framing import FrameError, frame, scan_frames
from repro.errors import ReproError

#: Bump when the frame or payload layout changes.
FORMAT_VERSION = 1

#: Record kinds.
SEGMENT = 0
BEGIN = 1
ACQUIRE = 2
COMMIT = 3
ABORT = 4

KIND_NAMES = {
    SEGMENT: "segment",
    BEGIN: "begin",
    ACQUIRE: "acquire",
    COMMIT: "commit",
    ABORT: "abort",
}

#: A frame length beyond this is treated as corruption, not a torn
#: tail -- no single record is remotely this large.
MAX_BODY_BYTES = 1 << 28


class WalFormatError(ReproError):
    """A WAL record could not be encoded or decoded."""


def _canonical_json(payload: Dict[str, Any]) -> str:
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
    except (TypeError, ValueError) as exc:
        raise WalFormatError(
            "payload is not JSON-serializable: %s" % exc
        ) from None


def encode_record(kind: int, payload: Dict[str, Any]) -> bytes:
    """Frame one record: the reference encoder.

    The writer (:mod:`repro.wal.log`) renders hot records from byte
    templates instead; ``tests/wal/test_format.py`` pins those to this
    function's output frame for frame.
    """
    if kind not in KIND_NAMES:
        raise WalFormatError("unknown record kind %d" % kind)
    return frame(bytes((kind,)) + _canonical_json(payload).encode())


#: ``(object, op shape) -> b'"object":...,"op":{...}}'`` -- the constant
#: tail of an ACQUIRE body (the per-record head is access/gen/lsn).
#: The vocabulary (object names x operation shapes) is small and fixed;
#: the cap only guards against pathological workloads.
_ACQUIRE_TAILS: Dict[Any, bytes] = {}
_CACHE_LIMIT = 4096


def acquire_tail(object_name: str, operation) -> bytes:
    """The rendered ``"object"``/``"op"`` tail of an ACQUIRE body."""
    # ``repr`` keeps 1, True and 1.0 apart (they hash and compare
    # equal but render differently) and makes unhashable args keyable.
    key = (
        object_name,
        operation.kind,
        repr(operation.args),
        operation.is_read,
    )
    tail = _ACQUIRE_TAILS.get(key)
    if tail is None:
        # Both keys sort after access/gen/lsn, so the tail is the
        # canonical rendering of just these two, minus its ``{``.
        tail = _canonical_json(
            {"object": object_name, "op": operation_to_wire(operation)}
        )[1:].encode()
        if len(_ACQUIRE_TAILS) < _CACHE_LIMIT:
            _ACQUIRE_TAILS[key] = tail
    return tail


@dataclass(frozen=True)
class Record:
    """One decoded record plus its frame offsets."""

    kind: int
    payload: Dict[str, Any]
    #: Byte offset of the frame start in the scanned data.
    offset: int
    #: Byte offset one past the frame (the next record boundary).
    end: int

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, "unknown-%d" % self.kind)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of scanning a byte log.

    ``stopped`` is ``"end"`` (clean), ``"torn"`` (the tail is a
    partial frame -- a crash mid-write), or ``"corrupt"`` (a CRC or
    decode failure -- recovery must stop at the last good record).
    """

    records: Tuple[Record, ...]
    stopped: str
    #: Offset of the first byte not covered by a decoded record.
    stopped_at: int
    #: Human-readable detail for torn/corrupt stops.
    detail: str = ""

    @property
    def clean(self) -> bool:
        return self.stopped == "end"

    def boundaries(self) -> List[int]:
        """Record boundaries: 0 plus the end offset of every record."""
        return [0] + [record.end for record in self.records]


def _decode_record(body: bytes, start: int, end: int) -> Record:
    if not body:
        raise FrameError("empty body")
    kind = body[0]
    if kind not in KIND_NAMES:
        raise FrameError("unknown record kind %d" % kind)
    try:
        payload = json.loads(body[1:].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError("bad payload: %s" % exc) from None
    if not isinstance(payload, dict):
        raise FrameError("payload not an object")
    return Record(kind, payload, start, end)


def scan_records(data: bytes) -> ScanResult:
    """Decode every well-formed frame prefix of *data*.

    Never raises on bad input: scanning stops at the first torn or
    corrupt frame and reports how far it got, which is exactly the
    prefix recovery is allowed to trust.
    """
    records, stopped, stopped_at, detail = scan_frames(
        data, MAX_BODY_BYTES, _decode_record
    )
    return ScanResult(tuple(records), stopped, stopped_at, detail)


def iter_frames(data: bytes) -> Iterator[Record]:
    """Yield decoded records; stop silently at the first bad frame."""
    return iter(scan_records(data).records)


# ----------------------------------------------------------------------
# Payload constructors (shared by the log writer and tests)
# ----------------------------------------------------------------------
def name_to_wire(name) -> List[int]:
    return list(name)


def name_from_wire(wire) -> Tuple[int, ...]:
    return tuple(int(part) for part in wire)


def operation_to_wire(operation) -> Dict[str, Any]:
    return {
        "kind": operation.kind,
        "args": list(operation.args),
        "read": bool(operation.is_read),
    }


def operation_from_wire(wire: Dict[str, Any]):
    from repro.core.object_spec import Operation

    args = tuple(
        tuple(part) if isinstance(part, list) else part
        for part in wire["args"]
    )
    return Operation(wire["kind"], args, bool(wire["read"]))


def segment_payload(
    lsn: int,
    segment: int,
    scheme: str,
    objects: List[Tuple[str, str]],
) -> Dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "lsn": lsn,
        "objects": [list(pair) for pair in objects],
        "scheme": scheme,
        "segment": segment,
    }


def begin_payload(lsn: int, name) -> Dict[str, Any]:
    return {"lsn": lsn, "txn": name_to_wire(name)}


def acquire_payload(
    lsn: int,
    access,
    object_name: str,
    operation,
    generation: int,
) -> Dict[str, Any]:
    return {
        "access": name_to_wire(access),
        "gen": generation,
        "lsn": lsn,
        "object": object_name,
        "op": operation_to_wire(operation),
    }


def commit_payload(lsn: int, name) -> Dict[str, Any]:
    return {"lsn": lsn, "txn": name_to_wire(name)}


def abort_payload(lsn: int, name) -> Dict[str, Any]:
    return {"lsn": lsn, "txn": name_to_wire(name)}


def first_segment_header(records) -> Optional[Record]:
    """The first SEGMENT record of a scanned record list, if any."""
    for record in records:
        if record.kind == SEGMENT:
            return record
    return None
