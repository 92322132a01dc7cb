"""The one body codec: canonical JSON for every frame body.

Wire and shard-pipe messages (:mod:`repro.serve.protocol`), WAL
payloads (:mod:`repro.wal.records`) and 2PC decision records
(:mod:`repro.shard.recovery`) are all framed (:mod:`repro.core.framing`)
canonical JSON, byte for byte ``json.dumps(value, sort_keys=True,
separators=(",", ":"))``: sorted keys, compact, ASCII, ``NaN`` allowed.

:func:`encoder` builds the C encoder once (``JSONEncoder.encode`` builds
one per call) and runs it without a ``markers`` dict, which a failed
call would leave holding its objects; a cycle then surfaces as the
``ValueError`` the stdlib raises.  :func:`decode` tries ``raw_decode``
of the whole text and otherwise defers to ``json.loads``, so it accepts
what ``json.loads`` accepts and fails with its messages.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Dict, Optional

#: The stdlib's hook: ``TypeError("Object of type X is not JSON
#: serializable")``.
_REFUSE = json.JSONEncoder().default

_raw_decode = json.JSONDecoder().raw_decode


def encoder(
    default: Optional[Callable[[Any], Any]] = None,
) -> Callable[[Any], bytes]:
    """The canonical encoder; *default* maps what JSON cannot hold.

    Without *default*, an unencodable value raises ``TypeError``.
    """
    default = default or _REFUSE
    if c_make_encoder is None:  # no ``_json``: the pure-Python path
        encode_text = json.JSONEncoder(
            sort_keys=True, separators=(",", ":"), default=default
        ).encode
        return lambda value: encode_text(value).encode("ascii")
    chunks = c_make_encoder(
        None,  # markers: no circular check, see the module docstring
        default,
        encode_basestring_ascii,
        None,  # indent
        ":",
        ",",
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )

    def encode_body(value: Any) -> bytes:
        try:
            return "".join(chunks(value, 0)).encode("ascii")
        except RecursionError:
            raise ValueError("Circular reference detected") from None

    return encode_body


#: The encoder of the logs (WAL records, 2PC decisions): no hook, so a
#: payload JSON cannot hold raises ``TypeError``.
encode = encoder()


def decode(
    body: bytes, error: Callable[[str], Exception], what: str
) -> Dict[str, Any]:
    """The JSON object *body* holds; anything else raises ``error``.

    *what* names the body in the message (``"frame body"``, ...).
    """
    try:
        text = body.decode("utf-8")
        try:
            value, end = _raw_decode(text)
        except Exception:  # json.loads gives the verdict and the message
            end = -1
        if end != len(text):
            value = json.loads(text)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise error("%s is not JSON: %s" % (what, exc)) from None
    if not isinstance(value, dict):
        raise error(
            "%s is %s, not an object" % (what, type(value).__name__)
        )
    return value
