"""The shared frame codec against both golden formats.

``repro.core.framing`` is the one reader and writer of
``varint(len) body crc32le(body)``; the WAL's and the wire protocol's
golden frames pin the same layout, so the codec must parse and
reproduce every one of them.
"""

import pytest

from repro.core import framing
from tests.serve.test_protocol import GOLDEN_FRAMES as SERVE_GOLDEN
from tests.wal.test_format import GOLDEN_FRAMES as WAL_GOLDEN

GOLDEN = [
    pytest.param(data, id="%s-%s" % (family, name))
    for family, frames in (("wal", WAL_GOLDEN), ("serve", SERVE_GOLDEN))
    for name, data in sorted(frames.items())
]


@pytest.mark.parametrize("data", GOLDEN)
def test_golden_frame_round_trips(data):
    body, end = framing.read_frame(data, 0, 1 << 20)
    assert end == len(data)
    assert framing.frame(body) == data


@pytest.mark.parametrize("data", GOLDEN)
def test_every_strict_prefix_is_torn(data):
    for cut in range(len(data)):
        assert framing.read_frame(data[:cut], 0, 1 << 20) is None


class TestReadFrame:
    FRAME = framing.frame(b"x" * 200)  # two-byte length prefix

    def test_reads_at_an_offset(self):
        data = b"junk" + self.FRAME + b"tail"
        body, end = framing.read_frame(data, 4, 1 << 20)
        assert body == b"x" * 200
        assert data[end:] == b"tail"

    def test_oversized_length_is_refused_before_the_body_arrives(self):
        with pytest.raises(framing.FrameError) as caught:
            framing.read_frame(self.FRAME[:2], 0, 199)
        assert caught.value.oversized

    def test_crc_mismatch_is_corrupt_not_oversized(self):
        damaged = bytearray(self.FRAME)
        damaged[10] ^= 0x01
        with pytest.raises(framing.FrameError) as caught:
            framing.read_frame(bytes(damaged), 0, 1 << 20)
        assert not caught.value.oversized


def _body(body, start, end):
    return body


class TestScanFrames:
    def _stream(self):
        return [framing.frame(b"body-%d" % index) for index in range(4)]

    def test_clean_stream(self):
        frames = self._stream()
        scan = framing.scan_frames(b"".join(frames), 1 << 20, _body)
        assert scan.stopped == "end"
        assert scan.items == [b"body-%d" % index for index in range(4)]
        assert scan.stopped_at == sum(map(len, frames))

    def test_keeps_the_prefix_before_a_corrupt_frame(self):
        frames = self._stream()
        damaged = bytearray(b"".join(frames))
        damaged[len(frames[0]) + len(frames[1]) + 2] ^= 0xFF
        scan = framing.scan_frames(bytes(damaged), 1 << 20, _body)
        assert scan.stopped == "corrupt"
        assert scan.detail == "CRC mismatch"
        assert len(scan.items) == 2
        assert scan.stopped_at == len(frames[0]) + len(frames[1])

    def test_keeps_the_prefix_before_a_torn_tail(self):
        data = b"".join(self._stream())
        scan = framing.scan_frames(data[:-1], 1 << 20, _body)
        assert scan.stopped == "torn"
        assert len(scan.items) == 3

    def test_a_body_the_decoder_refuses_is_corrupt(self):
        frames = self._stream()

        def decode(body, start, end):
            if body == b"body-2":
                raise framing.FrameError("no twos")
            return (start, end)

        scan = framing.scan_frames(b"".join(frames), 1 << 20, decode)
        assert (scan.stopped, scan.detail) == ("corrupt", "no twos")
        assert scan.items == [
            (0, len(frames[0])),
            (len(frames[0]), len(frames[0]) + len(frames[1])),
        ]
        assert scan.stopped_at == len(frames[0]) + len(frames[1])
