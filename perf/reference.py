"""The frozen reference kernel: how fast is this host right now?

The small shared VMs this benchmark runs on change speed under it.
Floors taken over one run sat on levels about 16% apart, each lasting
minutes, and the level moved every floor by the same factor: the
in-process rungs, the socket and pipe hops, the simulator, recovery
and a trivial loop alike (the noise study in ``README.md``).  A floor
alone cannot see through that, and two runs minutes apart disagree.

So before every rung visit the ladder also times this kernel: a fixed
amount of interpreter-bound work of the kind the system does
(attribute and method calls, small objects, dict and list traffic,
string formatting, a sort, a raised exception, JSON and CRC32).  Each
round's times are then divided by the kernel's floor over the rounds
around it, and reported in *reference seconds*: seconds on a host
where one chunk takes exactly ``NOMINAL_NS``.

FROZEN: every timing metric is a multiple of this kernel's speed.
Changing it re-bases the whole history, like changing a workload.
"""

from __future__ import annotations

import json
import zlib
from time import perf_counter_ns as now
from typing import List

#: Chunks timed per visit; a visit reports the fastest.
CHUNKS = 10
#: One chunk on the host the benchmark was sized on, at its fast level.
NOMINAL_NS = 300_000


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value
        self.children: List["_Node"] = []

    def add(self, child: "_Node") -> int:
        self.children.append(child)
        return len(self.children)


def chunk() -> int:
    """One chunk of fixed work; the result is returned so none of it
    can be skipped."""
    table = {}
    root = _Node("root", 0)
    total = 0
    for index in range(400):
        key = "k%d" % ((index * 7 + 3) & 63)
        node = _Node(key, index)
        total += root.add(node)
        table[key] = table.get(key, 0) + node.value
        try:
            if index % 97 == 0:
                raise KeyError(key)
        except KeyError:
            total += 1
        if index % 50 == 49:
            ordered = sorted(table.items())
            blob = json.dumps(
                {"txn": [index, 3], "rows": ordered[:8]},
                sort_keys=True, separators=(",", ":"),
            ).encode("utf-8")
            total += zlib.crc32(blob) & 0xFF
            total += len(json.loads(blob)["rows"])
            root.children.clear()
    return total


def one() -> int:
    """Time one chunk, in ns."""
    started = now()
    chunk()
    return now() - started


def visit() -> int:
    """Run ``CHUNKS`` chunks; returns the fastest one's time in ns."""
    return min(one() for _ in range(CHUNKS))
