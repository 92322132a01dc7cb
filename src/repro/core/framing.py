"""The one frame codec shared by the WAL, the wire and the decision log.

Every durable or transmitted byte stream in the repo is a sequence of
*frames*::

    frame := varint(len(body)) body crc32le(body)

``varint`` is unsigned LEB128 (7 bits per byte, high bit = continue).
The CRC covers the body only; the length is implicitly checked because
a corrupted length either points past the end of the data (read as a
torn tail) or lands the 4 CRC bytes on the wrong offsets (read as a
corrupt frame).  What a body *means* -- a WAL record kind plus JSON
(:mod:`repro.wal.records`), a JSON message
(:mod:`repro.serve.protocol`) -- is the caller's business; this module
is the only one that knows the layout above, and codelint rule CD006
keeps it that way.

A *torn* frame (the data ends inside it: a crash mid-write, a TCP
segment boundary) is an ordinary outcome and is reported by value; a
*corrupt* one raises :class:`FrameError`.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, Tuple
from zlib import crc32

from repro.errors import ReproError

_BYTE = [bytes([value]) for value in range(256)]


class FrameError(ReproError):
    """A length prefix, CRC or body that no writer of the format produces."""

    def __init__(self, message: str, oversized: bool = False):
        super().__init__(message)
        #: The announced body length exceeds the reader's limit (as
        #: opposed to a malformed varint or a CRC mismatch).
        self.oversized = oversized


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise FrameError("varint cannot encode %d" % value)
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode an unsigned LEB128 at *offset*; return ``(value, end)``.

    Returns ``(-1, offset)`` when *data* ends mid-varint (torn) and
    raises :class:`FrameError` when the varint is longer than any
    encodable length.
    """
    result = 0
    shift = 0
    index = offset
    while index < len(data):
        byte = data[index]
        index += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, index
        shift += 7
        if shift > 35:
            raise FrameError("varint length prefix over 5 bytes")
    return -1, offset


def frame(body: bytes) -> bytes:
    """Frame *body*: varint length + body + CRC32 of the body."""
    length = len(body)
    prefix = _BYTE[length] if length < 0x80 else encode_varint(length)
    return prefix + body + crc32(body).to_bytes(4, "little")


def read_frame(
    data: bytes, offset: int, max_body: int
) -> Optional[Tuple[bytes, int]]:
    """Read the frame starting at *offset*; return ``(body, end)``.

    Returns ``None`` when the frame is torn (*data* ends inside it).
    Raises :class:`FrameError` on a malformed length, a length over
    *max_body* (checked before the body is looked at, so a reader never
    buffers towards a corrupt length) or a CRC mismatch.
    """
    length, body_start = decode_varint(data, offset)
    if length < 0:
        return None
    if length > max_body:
        raise FrameError(
            "frame length %d exceeds limit %d" % (length, max_body),
            oversized=True,
        )
    body_end = body_start + length
    end = body_end + 4
    if end > len(data):
        return None
    body = data[body_start:body_end]
    if crc32(body) != int.from_bytes(data[body_end:end], "little"):
        raise FrameError("CRC mismatch")
    return body, end


class FrameScan(NamedTuple):
    """Every good frame before the first bad one, and why it stopped."""

    #: What ``decode`` made of each good frame, in stream order.
    items: List[Any]
    #: ``"end"`` (clean), ``"torn"`` or ``"corrupt"``.
    stopped: str
    #: Offset of the first byte not covered by a good frame.
    stopped_at: int
    detail: str = ""


def scan_frames(
    data: bytes,
    max_body: int,
    decode: Callable[[bytes, int, int], Any],
) -> FrameScan:
    """Read frames from the start of *data*; never raises on bad input.

    ``decode(body, start, end)`` turns each frame into the caller's
    item and raises :class:`FrameError` for a body it cannot accept.
    Scanning stops at the first torn or corrupt frame and keeps what
    came before it -- exactly the prefix a recovery is allowed to
    trust.
    """
    items: List[Any] = []
    offset = 0
    size = len(data)
    while offset < size:
        try:
            found = read_frame(data, offset, max_body)
            if found is None:
                return FrameScan(items, "torn", offset, "truncated frame")
            body, end = found
            items.append(decode(body, offset, end))
        except FrameError as exc:
            return FrameScan(items, "corrupt", offset, str(exc))
        offset = end
    return FrameScan(items, "end", offset)
