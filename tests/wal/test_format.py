"""Golden pin of the WAL on-disk format.

These bytes are the contract: a recovery build must read logs written
by any earlier build of the same ``FORMAT_VERSION``.  Changing any
golden value here means bumping :data:`repro.wal.records.FORMAT_VERSION`
and writing migration notes in docs/DURABILITY.md -- not updating the
test to match.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import framing
from repro.core.object_spec import Operation
from repro.wal import records as rec
from repro.wal import scan_records

GOLDEN_FRAMES = {
    # encode_record(SEGMENT, segment_payload(1, 0, "moss-rw",
    #                                        [("c", "Counter")]))
    "segment": bytes.fromhex(
        "50007b22666f726d6174223a312c226c736e223a312c226f626a65637473"
        "223a5b5b2263222c22436f756e746572225d5d2c22736368656d65223a22"
        "6d6f73732d7277222c227365676d656e74223a307ddeeda09f"
    ),
    # encode_record(BEGIN, begin_payload(2, (0,)))
    "begin": bytes.fromhex(
        "14017b226c736e223a322c2274786e223a5b305d7daf1557c0"
    ),
    # encode_record(ACQUIRE, acquire_payload(3, (0, 0), "c",
    #               Operation("increment", (1,), False), 0))
    "acquire": bytes.fromhex(
        "60027b22616363657373223a5b302c305d2c2267656e223a302c226c736e"
        "223a332c226f626a656374223a2263222c226f70223a7b2261726773223a"
        "5b315d2c226b696e64223a22696e6372656d656e74222c2272656164223a"
        "66616c73657d7dd245b0d3"
    ),
    # encode_record(COMMIT, commit_payload(4, (0,)))
    "commit": bytes.fromhex(
        "14037b226c736e223a342c2274786e223a5b305d7dc3c6a4e5"
    ),
    # encode_record(ABORT, abort_payload(5, (0,)))
    "abort": bytes.fromhex(
        "14047b226c736e223a352c2274786e223a5b305d7d3f2c459f"
    ),
}


class TestGoldenEncoding:
    def test_format_version_is_pinned(self):
        assert rec.FORMAT_VERSION == 1

    def test_segment_frame(self):
        assert (
            rec.encode_record(
                rec.SEGMENT,
                rec.segment_payload(1, 0, "moss-rw", [("c", "Counter")]),
            )
            == GOLDEN_FRAMES["segment"]
        )

    def test_begin_frame(self):
        assert (
            rec.encode_record(rec.BEGIN, rec.begin_payload(2, (0,)))
            == GOLDEN_FRAMES["begin"]
        )

    def test_acquire_frame(self):
        assert (
            rec.encode_record(
                rec.ACQUIRE,
                rec.acquire_payload(
                    3, (0, 0), "c", Operation("increment", (1,), False), 0
                ),
            )
            == GOLDEN_FRAMES["acquire"]
        )

    def test_commit_and_abort_frames(self):
        assert (
            rec.encode_record(rec.COMMIT, rec.commit_payload(4, (0,)))
            == GOLDEN_FRAMES["commit"]
        )
        assert (
            rec.encode_record(rec.ABORT, rec.abort_payload(5, (0,)))
            == GOLDEN_FRAMES["abort"]
        )

    def test_stream_of_golden_frames_scans_clean(self):
        data = b"".join(GOLDEN_FRAMES.values())
        scan = scan_records(data)
        assert scan.clean
        assert [record.kind_name for record in scan.records] == [
            "segment",
            "begin",
            "acquire",
            "commit",
            "abort",
        ]
        assert [
            record.payload["lsn"] for record in scan.records
        ] == [1, 2, 3, 4, 5]


class TestVarint:
    @pytest.mark.parametrize(
        "value,encoded",
        [
            (0, "00"),
            (1, "01"),
            (127, "7f"),
            (128, "8001"),
            (300, "ac02"),
            (1 << 21, "80808001"),
        ],
    )
    def test_known_encodings(self, value, encoded):
        assert framing.encode_varint(value) == bytes.fromhex(encoded)
        decoded, end = framing.decode_varint(bytes.fromhex(encoded), 0)
        assert decoded == value
        assert end == len(bytes.fromhex(encoded))

    def test_truncated_varint_is_torn(self):
        assert framing.decode_varint(b"\x80", 0) == (-1, 0)
        assert scan_records(b"\x80").stopped == "torn"

    def test_oversized_varint_is_corrupt(self):
        with pytest.raises(framing.FrameError):
            framing.decode_varint(b"\x80" * 6 + b"\x01", 0)
        assert scan_records(b"\x80" * 6 + b"\x01").stopped == "corrupt"

    def test_negative_value_rejected(self):
        with pytest.raises(framing.FrameError):
            framing.encode_varint(-1)


class TestScanDiscrimination:
    """Torn tails vs corrupt records: the cases recovery branches on."""

    def _stream(self):
        return b"".join(
            (
                GOLDEN_FRAMES["segment"],
                GOLDEN_FRAMES["begin"],
                GOLDEN_FRAMES["commit"],
            )
        )

    def test_truncation_mid_record_is_torn(self):
        data = self._stream()
        cut = len(GOLDEN_FRAMES["segment"]) + 3
        scan = scan_records(data[:cut])
        assert scan.stopped == "torn"
        assert len(scan.records) == 1
        assert scan.stopped_at == len(GOLDEN_FRAMES["segment"])

    def test_flipped_payload_byte_is_corrupt_crc(self):
        data = bytearray(self._stream())
        # Flip a byte inside the BEGIN record's JSON payload.
        index = len(GOLDEN_FRAMES["segment"]) + 5
        data[index] ^= 0xFF
        scan = scan_records(bytes(data))
        assert scan.stopped == "corrupt"
        assert scan.detail == "CRC mismatch"
        # Scanning stopped at the first bad record: only the segment
        # header survives, the clean COMMIT behind the damage is not
        # trusted.
        assert [r.kind_name for r in scan.records] == ["segment"]

    def test_unknown_kind_is_corrupt(self):
        frame = framing.frame(bytes([9]) + b"{}")
        scan = scan_records(GOLDEN_FRAMES["segment"] + frame)
        assert scan.stopped == "corrupt"
        assert "unknown record kind" in scan.detail

    def test_oversized_length_is_corrupt_not_torn(self):
        data = GOLDEN_FRAMES["segment"] + framing.encode_varint(
            rec.MAX_BODY_BYTES + 1
        )
        scan = scan_records(data)
        assert scan.stopped == "corrupt"
        assert "exceeds limit" in scan.detail

    def test_boundaries_enumerate_record_ends(self):
        data = self._stream()
        scan = scan_records(data)
        assert scan.boundaries() == [
            0,
            len(GOLDEN_FRAMES["segment"]),
            len(GOLDEN_FRAMES["segment"]) + len(GOLDEN_FRAMES["begin"]),
            len(data),
        ]


class TestCorruptRecovery:
    """Recovery over a corrupt log stops at the first bad CRC with a
    ``partial`` verdict -- the inconclusive-style report."""

    def test_recovery_stops_at_first_bad_crc(self):
        from repro.adt import Counter
        from repro.engine.engine import Engine
        from repro.wal import recover

        engine = Engine([Counter("c")], policy="moss-rw")
        wal = engine.attach_wal()
        first = engine.begin_top()
        first.perform("c", Counter.increment(5))
        first.commit()
        second = engine.begin_top()
        second.perform("c", Counter.increment(9))
        second.commit()
        data = bytearray(wal.sink.getvalue())
        scan = scan_records(bytes(data))
        # Damage the second top's ACQUIRE payload.
        target = [
            r
            for r in scan.records
            if r.kind == rec.ACQUIRE and r.payload["lsn"] > 4
        ][0]
        data[target.offset + 4] ^= 0xFF

        state = recover(bytes(data))
        assert state.report.verdict == "partial"
        assert state.report.stopped == "corrupt"
        assert state.report.detail == "CRC mismatch"
        assert state.report.stopped_at == target.offset
        # Only the first (intact) commit is recovered; the second top
        # had begun, so presumed-abort kills it.
        assert state.report.committed == {"c": 5}
        assert state.report.presumed_aborted == ((1,),)
        rendered = state.report.render()
        assert "partial" in rendered
        assert "corrupt" in rendered


class TestWriterMatchesEncodeRecord:
    """The writer's templated path emits ``encode_record`` bytes.

    ``WriteAheadLog.log_*`` render plain-int names of any depth from
    byte templates and hand everything else to ``encode_record``;
    every emitted frame must be indistinguishable from that reference
    encoding.
    """

    NAMES = [
        (0,),
        (3, 1),
        (3, 1, 2),
        (1, 2, 3, 4),
        (1, 2, 3, 4, 5),
        (9, 8, 7, 6, 5, 4),
        (1, 2, 3, 4, 5, 6, 7),
        (1, 2, 3, 4, 5, 6, 7, 8),
        (10**40, 10**41, 10**42),  # long body: varint length path
        ("a", 1),  # not plain ints: reference-encoder fallback
        (True,),
        (2, 1.0),
    ]
    ACCESSES = [name + (9,) for name in NAMES]

    def test_every_frame_matches_the_canonical_encoding(self, monkeypatch):
        # Count the writer's trips to the reference encoder: one per
        # segment header and per record whose name is not plain ints.
        # ``expected`` is built with the unpatched function.
        encode_record = rec.encode_record
        fallbacks = []

        def counting(kind, payload):
            fallbacks.append(kind)
            return encode_record(kind, payload)

        monkeypatch.setattr(rec, "encode_record", counting)

        from repro.adt import Counter
        from repro.wal.log import MemoryWalSink, WriteAheadLog

        wal = WriteAheadLog(
            sink=MemoryWalSink(), segment_bytes=1 << 30
        )
        wal.open("moss-rw", [Counter("c")])
        expected = [
            encode_record(
                rec.SEGMENT,
                rec.segment_payload(
                    1, 0, "moss-rw", [("c", "Counter")]
                ),
            )
        ]
        lsn = 1
        for name in self.NAMES:
            wal.log_begin(name)
            lsn += 1
            expected.append(
                encode_record(
                    rec.BEGIN, rec.begin_payload(lsn, name)
                )
            )
        operations = [
            Operation("increment", (1,), False),
            Operation("increment", (1,), False),  # equal, distinct id
            Operation("increment", (True,), False),  # == and hash-equal,
            Operation("increment", (1.0,), False),  # rendered differently
            Operation("value", (), True),
            Operation("weird", ((1, 2), "s"), False),
            Operation("odd", ([1], {"k": 1}), False),  # unhashable args
        ]
        for access in self.ACCESSES:
            for obj in ("c", "héllo", "x" * 150):
                for operation in operations:
                    for _ in range(2):  # second pass hits the caches
                        wal.log_acquire(access, obj, operation, 7)
                        lsn += 1
                        expected.append(
                            encode_record(
                                rec.ACQUIRE,
                                rec.acquire_payload(
                                    lsn, access, obj, operation, 7
                                ),
                            )
                        )
        for name in self.NAMES:
            wal.log_commit(name)
            lsn += 1
            expected.append(
                encode_record(
                    rec.COMMIT, rec.commit_payload(lsn, name)
                )
            )
            wal.log_abort(name)
            lsn += 1
            expected.append(
                encode_record(
                    rec.ABORT, rec.abort_payload(lsn, name)
                )
            )
        assert wal.sink.getvalue() == b"".join(expected)
        slow = sum(
            any(type(part) is not int for part in name)
            for name in self.NAMES
        )
        assert slow == 3
        per_access = 3 * len(operations) * 2
        assert sorted(fallbacks) == sorted(
            [rec.SEGMENT]
            + [rec.BEGIN, rec.COMMIT, rec.ABORT] * slow
            + [rec.ACQUIRE] * (slow * per_access)
        )


class TestWriterMatchesEncodeRecordProperty:
    """Any depth, and frame lengths on both sides of the one-byte
    varint boundary (a body of 0x80 bytes needs a two-byte length)."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.lists(
            st.integers(min_value=-(10**12), max_value=10**12),
            min_size=1,
            max_size=10,
        ).map(tuple),
        # The LSN's digits move the body length across 0x80.
        before=st.one_of(
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=10**60, max_value=10**130),
        ),
        generation=st.integers(min_value=0, max_value=10**9),
    )
    def test_writer_equals_reference(self, name, before, generation):
        from repro.adt import Counter
        from repro.wal.log import MemoryWalSink, WriteAheadLog

        wal = WriteAheadLog(sink=MemoryWalSink(), segment_bytes=1 << 30)
        wal.open("moss-rw", [Counter("c")])
        header = wal.sink.getvalue()
        wal._lsn = before
        operation = Operation("increment", (1,), False)
        wal.log_begin(name)
        wal.log_acquire(name + (0,), "c", operation, generation)
        wal.log_commit(name)
        wal.log_abort(name)
        expected = [
            rec.encode_record(
                rec.BEGIN, rec.begin_payload(before + 1, name)
            ),
            rec.encode_record(
                rec.ACQUIRE,
                rec.acquire_payload(
                    before + 2, name + (0,), "c", operation, generation
                ),
            ),
            rec.encode_record(
                rec.COMMIT, rec.commit_payload(before + 3, name)
            ),
            rec.encode_record(
                rec.ABORT, rec.abort_payload(before + 4, name)
            ),
        ]
        assert wal.sink.getvalue() == header + b"".join(expected)
        scan = scan_records(wal.sink.getvalue())
        assert scan.clean and len(scan.records) == 5


class TestWriterErrorContract:
    """A record that cannot be encoded is a ``WalFormatError`` at any
    nesting depth, and costs no LSN (a gap would read as a lost record)."""

    @pytest.mark.parametrize(
        "access", [(0, 1), (0, 1, 2, 3, 4)], ids=["depth-2", "depth-5"]
    )
    def test_unserialisable_argument(self, access):
        from repro.adt import Counter
        from repro.wal.log import MemoryWalSink, WriteAheadLog

        wal = WriteAheadLog(sink=MemoryWalSink())
        wal.open("moss-rw", [Counter("c")])
        bad = Operation("write", (object(),), False)
        with pytest.raises(rec.WalFormatError):
            wal.log_acquire(access, "c", bad, 0)
        assert wal.lsn == 1
        wal.log_commit(access[:1])
        scan = scan_records(wal.sink.getvalue())
        assert [r.payload["lsn"] for r in scan.records] == [1, 2]
