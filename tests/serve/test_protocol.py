"""Golden pin of the service wire format.

These bytes are the contract: any client built against
``PROTOCOL_VERSION == 1`` must interoperate with any server of the
same version.  Changing any golden value here means bumping
:data:`repro.serve.protocol.PROTOCOL_VERSION` and writing migration
notes in docs/SERVICE.md -- not updating the test to match.  (Same
discipline as the WAL golden pin in ``tests/wal/test_format.py``.)
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import framing
from repro.serve import protocol as proto

# One golden frame per request op, plus representative responses and
# one error frame per taxonomy code.
GOLDEN_FRAMES = {
    # request("hello", 1, version=1)
    "hello": bytes.fromhex(
        "217b226964223a312c226f70223a2268656c6c6f222c2276657273696f6e"
        "223a317d155f1146"
    ),
    # request("begin", 2)
    "begin": bytes.fromhex(
        "157b226964223a322c226f70223a22626567696e227d68707e1c"
    ),
    # request("child", 3, txn=[0])
    "child": bytes.fromhex(
        "1f7b226964223a332c226f70223a226368696c64222c2274786e223a5b30"
        "5d7de92a8df3"
    ),
    # request("read", 4, txn=[0], object="c")
    "read": bytes.fromhex(
        "2b7b226964223a342c226f626a656374223a2263222c226f70223a227265"
        "6164222c2274786e223a5b305d7d7e587d68"
    ),
    # request("read", 5, txn=[0], object="c", kind="value", args=[])
    "read_kind": bytes.fromhex(
        "447b2261726773223a5b5d2c226964223a352c226b696e64223a2276616c"
        "7565222c226f626a656374223a2263222c226f70223a2272656164222c22"
        "74786e223a5b305d7d47fd2870"
    ),
    # request("write", 6, txn=[0], object="c", value=7)
    "write_value": bytes.fromhex(
        "367b226964223a362c226f626a656374223a2263222c226f70223a227772"
        "697465222c2274786e223a5b305d2c2276616c7565223a377d8fb88577"
    ),
    # request("write", 7, txn=[0, 0], object="c", kind="increment",
    #         args=[1])
    "write_kind": bytes.fromhex(
        "4c7b2261726773223a5b315d2c226964223a372c226b696e64223a22696e"
        "6372656d656e74222c226f626a656374223a2263222c226f70223a227772"
        "697465222c2274786e223a5b302c305d7da918a537"
    ),
    # request("commit", 8, txn=[0])
    "commit": bytes.fromhex(
        "207b226964223a382c226f70223a22636f6d6d6974222c2274786e223a5b"
        "305d7d178e5d73"
    ),
    # request("abort", 9, txn=[0])
    "abort": bytes.fromhex(
        "1f7b226964223a392c226f70223a2261626f7274222c2274786e223a5b30"
        "5d7d2caebb54"
    ),
    # request("ping", 10, payload="x")
    "ping": bytes.fromhex(
        "237b226964223a31302c226f70223a2270696e67222c227061796c6f6164"
        "223a2278227dbc01b2ee"
    ),
    # request("stats", 11)
    "stats": bytes.fromhex(
        "167b226964223a31312c226f70223a227374617473227de55d3a95"
    ),
    # ok_response(1)
    "ok": bytes.fromhex(
        "127b226964223a312c226f6b223a747275657d43423586"
    ),
    # ok_response(2, txn=[0])
    "ok_begin": bytes.fromhex(
        "1c7b226964223a322c226f6b223a747275652c2274786e223a5b305d7d39"
        "69283a"
    ),
    # error_response(3, ERR_OVERLOADED, "shed", retry_after_ms=25)
    "err_overloaded": bytes.fromhex(
        "677b226572726f72223a7b22636f6465223a226f7665726c6f6164656422"
        "2c226d657373616765223a2273686564222c2272657472795f6166746572"
        "5f6d73223a32352c22726574727961626c65223a747275657d2c22696422"
        "3a332c226f6b223a66616c73657df5bfa8ef"
    ),
    # error_response(4, ERR_LOCK_DENIED, "denied",
    #                blockers=[(1,), (0, 2)])  -- blockers sort
    "err_lock_denied": bytes.fromhex(
        "6d7b226572726f72223a7b22626c6f636b657273223a5b5b302c325d2c5b"
        "315d5d2c22636f6465223a226c6f636b5f64656e696564222c226d657373"
        "616765223a2264656e696564222c22726574727961626c65223a74727565"
        "7d2c226964223a342c226f6b223a66616c73657dad875d2b"
    ),
    # error_response(5, ERR_RETRY_LATER, "wait", retry_after_ms=1)
    "err_retry_later": bytes.fromhex(
        "677b226572726f72223a7b22636f6465223a2272657472795f6c61746572"
        "222c226d657373616765223a2277616974222c2272657472795f61667465"
        "725f6d73223a312c22726574727961626c65223a747275657d2c22696422"
        "3a352c226f6b223a66616c73657dbc780ec7"
    ),
    # error_response(6, ERR_TXN_ABORTED, "wounded")
    "err_txn_aborted": bytes.fromhex(
        "577b226572726f72223a7b22636f6465223a2274786e5f61626f72746564"
        "222c226d657373616765223a22776f756e646564222c2272657472796162"
        "6c65223a747275657d2c226964223a362c226f6b223a66616c73657d9052"
        "d314"
    ),
    # error_response(7, ERR_BAD_REQUEST, "bad")
    "err_bad_request": bytes.fromhex(
        "547b226572726f72223a7b22636f6465223a226261645f72657175657374"
        "222c226d657373616765223a22626164222c22726574727961626c65223a"
        "66616c73657d2c226964223a372c226f6b223a66616c73657d74b58558"
    ),
    # error_response(None, ERR_BAD_FRAME, "crc") -- id null: a frame
    # too corrupt to carry an id still gets a typed goodbye
    "err_bad_frame": bytes.fromhex(
        "557b226572726f72223a7b22636f6465223a226261645f6672616d65222c"
        "226d657373616765223a22637263222c22726574727961626c65223a6661"
        "6c73657d2c226964223a6e756c6c2c226f6b223a66616c73657d03535d70"
    ),
    # error_response(8, ERR_VERSION, "v9")
    "err_version": bytes.fromhex(
        "587b226572726f72223a7b22636f6465223a2276657273696f6e5f6d6973"
        "6d61746368222c226d657373616765223a227639222c2272657472796162"
        "6c65223a66616c73657d2c226964223a382c226f6b223a66616c73657d90"
        "f898c3"
    ),
    # error_response(9, ERR_UNKNOWN_TXN, "who")
    "err_unknown_txn": bytes.fromhex(
        "547b226572726f72223a7b22636f6465223a22756e6b6e6f776e5f74786e"
        "222c226d657373616765223a2277686f222c22726574727961626c65223a"
        "66616c73657d2c226964223a392c226f6b223a66616c73657d4ee753dc"
    ),
    # error_response(10, ERR_INVALID_STATE, "dead")
    "err_invalid_state": bytes.fromhex(
        "587b226572726f72223a7b22636f6465223a22696e76616c69645f737461"
        "7465222c226d657373616765223a2264656164222c22726574727961626c"
        "65223a66616c73657d2c226964223a31302c226f6b223a66616c73657dab"
        "1f7b1c"
    ),
    # error_response(11, ERR_INTERNAL, "boom")
    "err_internal": bytes.fromhex(
        "537b226572726f72223a7b22636f6465223a22696e7465726e616c222c22"
        "6d657373616765223a22626f6f6d222c22726574727961626c65223a6661"
        "6c73657d2c226964223a31312c226f6b223a66616c73657d994b5798"
    ),
}

_GOLDEN_MESSAGES = {
    "hello": proto.request("hello", 1, version=1),
    "begin": proto.request("begin", 2),
    "child": proto.request("child", 3, txn=[0]),
    "read": proto.request("read", 4, txn=[0], object="c"),
    "read_kind": proto.request(
        "read", 5, txn=[0], object="c", kind="value", args=[]
    ),
    "write_value": proto.request(
        "write", 6, txn=[0], object="c", value=7
    ),
    "write_kind": proto.request(
        "write", 7, txn=[0, 0], object="c", kind="increment", args=[1]
    ),
    "commit": proto.request("commit", 8, txn=[0]),
    "abort": proto.request("abort", 9, txn=[0]),
    "ping": proto.request("ping", 10, payload="x"),
    "stats": proto.request("stats", 11),
    "ok": proto.ok_response(1),
    "ok_begin": proto.ok_response(2, txn=[0]),
    "err_overloaded": proto.error_response(
        3, proto.ERR_OVERLOADED, "shed", retry_after_ms=25
    ),
    "err_lock_denied": proto.error_response(
        4, proto.ERR_LOCK_DENIED, "denied", blockers=[(1,), (0, 2)]
    ),
    "err_retry_later": proto.error_response(
        5, proto.ERR_RETRY_LATER, "wait", retry_after_ms=1
    ),
    "err_txn_aborted": proto.error_response(
        6, proto.ERR_TXN_ABORTED, "wounded"
    ),
    "err_bad_request": proto.error_response(
        7, proto.ERR_BAD_REQUEST, "bad"
    ),
    "err_bad_frame": proto.error_response(
        None, proto.ERR_BAD_FRAME, "crc"
    ),
    "err_version": proto.error_response(8, proto.ERR_VERSION, "v9"),
    "err_unknown_txn": proto.error_response(
        9, proto.ERR_UNKNOWN_TXN, "who"
    ),
    "err_invalid_state": proto.error_response(
        10, proto.ERR_INVALID_STATE, "dead"
    ),
    "err_internal": proto.error_response(
        11, proto.ERR_INTERNAL, "boom"
    ),
}


class TestGoldenEncoding:
    def test_protocol_version_is_pinned(self):
        assert proto.PROTOCOL_VERSION == 1

    def test_every_op_has_a_golden_request(self):
        pinned_ops = {
            message.get("op")
            for message in _GOLDEN_MESSAGES.values()
            if "op" in message
        }
        assert pinned_ops == set(proto.OPS)

    def test_every_error_code_has_a_golden_response(self):
        pinned_codes = {
            message["error"]["code"]
            for message in _GOLDEN_MESSAGES.values()
            if "error" in message
        }
        assert pinned_codes == {
            proto.ERR_BAD_REQUEST,
            proto.ERR_BAD_FRAME,
            proto.ERR_VERSION,
            proto.ERR_UNKNOWN_TXN,
            proto.ERR_INVALID_STATE,
            proto.ERR_TXN_ABORTED,
            proto.ERR_LOCK_DENIED,
            proto.ERR_RETRY_LATER,
            proto.ERR_OVERLOADED,
            proto.ERR_INTERNAL,
        }

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_encode_matches_golden(self, name):
        assert (
            proto.encode_frame(_GOLDEN_MESSAGES[name])
            == GOLDEN_FRAMES[name]
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_decode_matches_golden(self, name):
        assert (
            proto.decode_frame(GOLDEN_FRAMES[name])
            == _GOLDEN_MESSAGES[name]
        )

    def test_retryable_flags_are_pinned(self):
        assert proto.RETRYABLE_CODES == frozenset(
            ("txn_aborted", "lock_denied", "retry_later", "overloaded")
        )


class TestFraming:
    def test_torn_frame_buffers_until_complete(self):
        frame = GOLDEN_FRAMES["write_kind"]
        decoder = proto.FrameDecoder()
        for index in range(len(frame) - 1):
            assert decoder.feed(frame[index:index + 1]) == []
        messages = decoder.feed(frame[-1:])
        assert messages == [_GOLDEN_MESSAGES["write_kind"]]
        assert decoder.pending == 0

    def test_torn_varint_prefix_waits(self):
        # A multi-byte varint cut mid-way must not decode as a length.
        body = b"{}" * 100
        frame = proto.encode_frame({"id": 1, "ok": True})
        big = proto.encode_frame(
            {"id": 1, "pad": "x" * 300, "ok": True}
        )
        decoder = proto.FrameDecoder()
        assert decoder.feed(big[:1]) == []  # first varint byte only
        assert decoder.feed(big[1:]) != []
        del body, frame

    def test_many_frames_one_feed(self):
        stream = b"".join(
            GOLDEN_FRAMES[name] for name in ("begin", "commit", "abort")
        )
        decoder = proto.FrameDecoder()
        assert decoder.feed(stream) == [
            _GOLDEN_MESSAGES["begin"],
            _GOLDEN_MESSAGES["commit"],
            _GOLDEN_MESSAGES["abort"],
        ]

    def test_oversized_frame_refused(self):
        decoder = proto.FrameDecoder(max_frame_bytes=64)
        frame = proto.encode_frame({"id": 1, "pad": "y" * 128})
        with pytest.raises(proto.FrameTooLarge):
            decoder.feed(frame)

    def test_oversized_announcement_refused_before_body(self):
        # A corrupt length must be refused without buffering the body.
        announced = framing.encode_varint(proto.MAX_FRAME_BYTES + 1)
        with pytest.raises(proto.FrameTooLarge):
            proto.FrameDecoder().feed(announced)

    def test_crc_mismatch_refused(self):
        frame = bytearray(GOLDEN_FRAMES["commit"])
        frame[-1] ^= 0xFF
        with pytest.raises(proto.FrameCorrupt):
            proto.FrameDecoder().feed(bytes(frame))

    def test_garbage_body_with_valid_crc_refused(self):
        frame = framing.frame(b"\xff\xfenot json")
        with pytest.raises(proto.FrameCorrupt):
            proto.FrameDecoder().feed(frame)

    def test_non_object_body_refused(self):
        frame = framing.frame(json.dumps([1, 2, 3]).encode())
        with pytest.raises(proto.FrameCorrupt):
            proto.FrameDecoder().feed(frame)

    def test_runaway_varint_refused(self):
        with pytest.raises(proto.FrameCorrupt):
            proto.FrameDecoder().feed(b"\x80" * 6)

    def test_decode_frame_rejects_trailing_bytes(self):
        with pytest.raises(proto.FrameCorrupt):
            proto.decode_frame(GOLDEN_FRAMES["ok"] + b"\x00")

    def test_decode_frame_rejects_two_frames(self):
        with pytest.raises(proto.FrameCorrupt):
            proto.decode_frame(GOLDEN_FRAMES["ok"] * 2)


class TestHelpers:
    def test_canonical_json_is_sorted_and_compact(self):
        body = proto.canonical_json({"b": 1, "a": [1, 2]})
        assert body == b'{"a":[1,2],"b":1}'

    def test_canonical_json_encodes_sets(self):
        body = proto.canonical_json({"s": {3, 1, 2}})
        assert body == b'{"s":[1,2,3]}'

    def test_canonical_json_refuses_opaque_values(self):
        with pytest.raises(TypeError):
            proto.canonical_json({"x": object()})

    def test_wire_args_nested_lists_become_tuples(self):
        assert proto.wire_args([1, [2, 3], "x"]) == (1, (2, 3), "x")
        assert proto.wire_args(None) == ()
        with pytest.raises(ValueError):
            proto.wire_args("not a list")

    def test_txn_name(self):
        assert proto.txn_name([0, 1]) == (0, 1)
        for bad in (None, [], [0, "x"], "01", 7):
            with pytest.raises(ValueError):
                proto.txn_name(bad)

    def test_exception_to_error_retry_later_hint_wins(self):
        from repro.errors import RetryLater

        response = proto.exception_to_error(
            1, RetryLater("w", retry_after_ms=7), retry_after_ms=99
        )
        assert response["error"]["code"] == proto.ERR_RETRY_LATER
        assert response["error"]["retry_after_ms"] == 7

    def test_exception_to_error_server_hint_fallback(self):
        from repro.errors import LockDenied, RetryLater

        response = proto.exception_to_error(
            1, RetryLater("w"), retry_after_ms=99
        )
        assert response["error"]["retry_after_ms"] == 99
        response = proto.exception_to_error(
            2, LockDenied("d", blockers=[(0,)]), retry_after_ms=42
        )
        assert response["error"]["code"] == proto.ERR_LOCK_DENIED
        assert response["error"]["retry_after_ms"] == 42
        assert response["error"]["blockers"] == [[0]]


# Values that can live in a message: JSON scalars and containers.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 53), max_value=2 ** 53)
    | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)
_messages = st.dictionaries(
    st.text(max_size=10), _json_values, max_size=6
)


class TestRoundTrip:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(message=_messages, data=st.data())
    def test_encode_decode_round_trip(self, message, data):
        frame = proto.encode_frame(message)
        # Feed in arbitrary chunkings: framing must reassemble.
        decoder = proto.FrameDecoder()
        messages = []
        offset = 0
        while offset < len(frame):
            size = data.draw(
                st.integers(min_value=1, max_value=len(frame) - offset)
            )
            messages.extend(decoder.feed(frame[offset:offset + size]))
            offset += size
        assert messages == [message]
        assert decoder.pending == 0

    @settings(max_examples=100, deadline=None)
    @given(messages=st.lists(_messages, max_size=5))
    def test_stream_of_frames_round_trips(self, messages):
        stream = b"".join(
            proto.encode_frame(message) for message in messages
        )
        assert proto.FrameDecoder().feed(stream) == messages
