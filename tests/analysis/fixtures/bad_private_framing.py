"""Deliberately bad module: grows its own copy of the frame codec.
Used as a fixture by the code-lint tests; it is never imported.
"""

import zlib
from zlib import crc32


def frame(body):
    return bytes([len(body)]) + body + crc32(body).to_bytes(4, "little")


def check(body, stored):
    return zlib.crc32(body) == stored
