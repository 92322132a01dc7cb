"""The one body codec against the stdlib calls it replaced.

``repro.core.jsonbody`` encodes and decodes every frame body: wire and
shard-pipe messages, WAL payloads and 2PC decision records.  Each
caller used to call ``json`` itself; these tests hold the codec to
those calls byte for byte, accept for accept and error for error, so
``PROTOCOL_VERSION`` and ``FORMAT_VERSION`` stay what they are.
"""

import gc
import json
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import framing, jsonbody
from repro.serve import protocol as proto
from repro.shard import recovery
from repro.wal import records as rec


# -- the replaced encoders and decoders, as they were ------------------
def old_wire(message):
    return json.JSONEncoder(
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        default=proto._jsonify,
    ).encode(message).encode("ascii")


def old_wal(payload):
    return json.JSONEncoder(
        sort_keys=True, separators=(",", ":")
    ).encode(payload).encode()


def old_decision(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def old_decode(body):
    """``json.loads`` of the UTF-8 text; the value or the exception."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return exc


def outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return "raise", type(exc)


# -- values -------------------------------------------------------------
_text = st.text(
    st.characters(blacklist_categories=()), max_size=12
)  # every code point, lone surrogates included
_floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 1.5e300, float("nan"), float("inf")]
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()  # unbounded: big ints too
    | _floats
    | _text
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=16,
)
_sets = st.frozensets(st.integers() | _text, max_size=5) | st.sets(
    st.integers(), max_size=5
)
_payloads = st.dictionaries(_text, _values, max_size=6)
_messages = st.dictionaries(_text, _values | _sets, max_size=6)

_settings = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestEncodeParity:
    @_settings
    @given(_messages)
    def test_wire_message(self, message):
        assert outcome(proto.canonical_json, message) == outcome(
            old_wire, message
        )

    @_settings
    @given(_payloads)
    def test_wal_payload(self, payload):
        assert rec._canonical_json(payload) == old_wal(payload)
        assert rec.encode_record(rec.BEGIN, payload) == framing.frame(
            bytes((rec.BEGIN,)) + old_wal(payload)
        )

    @_settings
    @given(_payloads)
    def test_decision_record(self, record):
        assert jsonbody.encode(record) == old_decision(record)

    @_settings
    @given(_messages)
    def test_sets_stay_unencodable_in_the_logs(self, payload):
        expected = outcome(old_wal, payload)
        if expected[0] == "raise":
            with pytest.raises(rec.WalFormatError):
                rec._canonical_json(payload)
        else:
            assert rec._canonical_json(payload) == expected[1]

    def test_pinned_corners(self):
        message = {
            "floats": [-0.0, 1e16, float("nan"), float("-inf")],
            "big": 2 ** 100,
            "text": "café \U0001f600 \ud800",
            "set": {3, 1, 2},
        }
        assert proto.canonical_json(message) == old_wire(message)
        assert proto.canonical_json(message) == (
            b'{"big":1267650600228229401496703205376,'
            b'"floats":[-0.0,1e+16,NaN,-Infinity],"set":[1,2,3],'
            b'"text":"caf\\u00e9 \\ud83d\\ude00 \\ud800"}'
        )

    def test_pure_python_fallback(self, monkeypatch):
        monkeypatch.setattr(jsonbody, "c_make_encoder", None)
        encode = jsonbody.encoder(proto._jsonify)
        message = {"b": [1.5, float("nan")], "a": {2, 1}, "c": "é"}
        assert encode(message) == old_wire(message)


# -- bodies -------------------------------------------------------------
_padding = st.sampled_from(["", " ", "\n", "\t ", "\r\n"])
_json_texts = st.builds(
    lambda value, head, tail, indent: head
    + json.dumps(value, indent=indent)
    + tail,
    _payloads | _values,
    _padding,
    _padding,
    st.sampled_from([None, 1]),
)
_bodies = st.one_of(
    _json_texts.map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.builds(
        lambda text, extra: (text + extra).encode(
            "utf-8", "surrogatepass"
        ),
        _json_texts,
        st.sampled_from(["x", "{}", "1", " ]", "\x00"]),
    ),
    st.sampled_from(
        [
            b'{"a":NaN,"b":-Infinity}',
            b"\xef\xbb\xbf{}",  # a UTF-8 BOM
            b'{"a":1}{"b":2}',
            b"{}",
            b"",
            b"   ",
            b'{"a":"\xff"}',
            b'{"a":"\\ud800"}',
            b'{"a":1,"a":2}',
        ]
    ),
    st.binary(max_size=16),
)


def decoders():
    """Each caller's decode path, with the error class it raises."""

    def wire(body):
        return proto.decode_frame(framing.frame(body))

    def wal(body):
        scan = rec.scan_records(framing.frame(bytes((rec.BEGIN,)) + body))
        if scan.stopped != "end":
            raise framing.FrameError(scan.detail)
        return scan.records[0].payload

    def decision(body):
        return recovery._decode_decision(body, 0, 0)

    return [
        (wire, proto.FrameCorrupt),
        (wal, framing.FrameError),
        (decision, framing.FrameError),
    ]


class TestDecodeParity:
    @_settings
    @given(_bodies)
    def test_accepts_what_json_loads_accepted(self, body):
        expected = old_decode(body)
        for decode, error in decoders():
            if isinstance(expected, dict):
                assert repr(decode(body)) == repr(expected)
                continue
            with pytest.raises(error) as caught:
                decode(body)
            if isinstance(expected, Exception):
                # The stdlib's own message, unchanged.
                assert str(caught.value).endswith(str(expected))
            else:
                assert "not an object" in str(caught.value)

    @pytest.mark.parametrize(
        "body", [b' {"a":1}', b'{"a":1}\n', b'\t{"a":[1, 2]} \r\n']
    )
    def test_whitespace_padding_is_accepted(self, body):
        for decode, _ in decoders():
            assert decode(body) == json.loads(body)

    @pytest.mark.parametrize(
        "body", [b'{"a":1}x', b"[1,2]", b"7", b"\xff\xfe{}", b""]
    )
    def test_rejects(self, body):
        for decode, error in decoders():
            with pytest.raises(error):
                decode(body)

    def test_nan_is_accepted(self):
        for decode, _ in decoders():
            value = decode(b'{"a":NaN}')["a"]
            assert value != value


class TestErrors:
    def cyclic(self):
        message = {"id": 1, "items": []}
        message["items"].append(message)
        return message

    def test_cyclic_message_is_a_value_error(self):
        with pytest.raises(ValueError, match="Circular reference"):
            proto.canonical_json(self.cyclic())
        with pytest.raises(ValueError, match="Circular reference"):
            proto.encode_frame(self.cyclic())
        with pytest.raises(ValueError, match="Circular reference"):
            jsonbody.encode(self.cyclic())
        with pytest.raises(rec.WalFormatError):
            rec.encode_record(rec.BEGIN, self.cyclic())

    def test_opaque_value_is_a_type_error(self):
        with pytest.raises(TypeError, match="not wire-encodable"):
            proto.canonical_json({"x": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            jsonbody.encode({"x": object()})
        with pytest.raises(rec.WalFormatError, match="not JSON serial"):
            rec.encode_record(rec.BEGIN, {"x": object()})

    def test_repeated_failures_leave_nothing_behind(self):
        class Payload(dict):
            pass

        survivors = []
        for index in range(1000):
            payload = Payload(id=index, bad=object())
            survivors.append(weakref.ref(payload))
            with pytest.raises(TypeError):
                proto.canonical_json(payload)
            cyclic = self.cyclic()
            with pytest.raises(ValueError):
                proto.canonical_json(cyclic)
            del payload, cyclic
        # No spurious "Circular reference" for a value seen before...
        message = {"id": 1, "txn": [0, 1], "ok": True}
        for _ in range(3):
            assert proto.canonical_json(message) == old_wire(message)
        shared = [1, 2]
        assert jsonbody.encode({"a": shared, "b": shared}) == (
            b'{"a":[1,2],"b":[1,2]}'
        )
        # ...and no failed payload kept alive by the codec.
        gc.collect()
        assert [ref for ref in survivors if ref() is not None] == []
