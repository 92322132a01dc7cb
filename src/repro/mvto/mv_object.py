"""Multiversion objects: committed version chains plus tentative buffers.

Each object keeps a chain of committed :class:`Version` records ordered by
write timestamp, a read-timestamp watermark per version, and a tentative
buffer per active top-level tree.  Inside a tree the tentative state is a
per-node map exactly like Moss' version map, so subtransaction aborts
discard precisely their own writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set

from repro.core.names import TransactionName, is_descendant
from repro.core.object_spec import ObjectSpec
from repro.errors import EngineError


@dataclass
class Version:
    """One committed version: written at ``wts``, read up to ``rts``."""

    wts: int
    value: Any
    rts: int = 0


class _TreeBuffer:
    """Tentative writes of one top-level tree, keyed by tree node.

    Entries are ordered by install sequence, not node depth: every
    write chains off :meth:`current`, so the newest entry always
    subsumes the older ones, and a parallel sibling that *commits*
    first must not be overwritten by a later promote carrying a stale
    (pre-sibling) value.
    """

    def __init__(self, base: Any):
        self.base = base
        self.by_node: Dict[TransactionName, Any] = {}
        self._seq: Dict[TransactionName, int] = {}
        self._next_seq = 0

    def current(self) -> Any:
        if not self.by_node:
            return self.base
        newest = max(self.by_node, key=self._seq.__getitem__)
        return self.by_node[newest]

    def install(self, node: TransactionName, value: Any) -> None:
        self.by_node[node] = value
        self._next_seq += 1
        self._seq[node] = self._next_seq

    def promote(self, node: TransactionName) -> None:
        if node not in self.by_node:
            return
        value = self.by_node.pop(node)
        seq = self._seq.pop(node)
        mother = node[:-1]
        if self._seq.get(mother, -1) < seq:
            self.by_node[mother] = value
            self._seq[mother] = seq

    def discard_subtree(self, node: TransactionName) -> None:
        for key in [k for k in self.by_node if is_descendant(k, node)]:
            del self.by_node[key]
            del self._seq[key]

    def dirty(self) -> bool:
        return bool(self.by_node)


class MVObject:
    """Version chain and buffers for one object."""

    def __init__(self, spec: ObjectSpec):
        self.spec = spec
        self.versions: List[Version] = [Version(0, spec.initial_value())]
        self.buffers: Dict[int, _TreeBuffer] = {}
        #: pending writer timestamps, for reader waits
        self.pending_writers: Set[int] = set()

    # ------------------------------------------------------------------
    # Committed chain
    # ------------------------------------------------------------------
    def _after(self, ts: int) -> int:
        """The index of the first version with ``wts > ts``.

        ``bisect_right`` over the chain by ``wts``, probing O(log n)
        versions: the chain grows with every committed write, so it
        is never copied or walked.
        """
        versions = self.versions
        low, high = 0, len(versions)
        while low < high:
            middle = (low + high) // 2
            if versions[middle].wts > ts:
                high = middle
            else:
                low = middle + 1
        return low

    def version_before(self, ts: int) -> Version:
        """The committed version a transaction at *ts* reads."""
        index = self._after(ts) - 1
        if index < 0:
            raise EngineError("no version before ts=%d" % ts)
        return self.versions[index]

    def later_committed_write(self, ts: int) -> bool:
        """True if some committed version has wts > ts."""
        return self.versions[-1].wts > ts

    def earlier_pending_writers(self, ts: int) -> Set[int]:
        """Uncommitted writers with smaller timestamps (readers must wait)."""
        return {wts for wts in self.pending_writers if wts < ts}

    # ------------------------------------------------------------------
    # Tentative buffers
    # ------------------------------------------------------------------
    def buffer_for(self, ts: int, base: Any) -> _TreeBuffer:
        buffer = self.buffers.get(ts)
        if buffer is None:
            buffer = _TreeBuffer(base)
            self.buffers[ts] = buffer
        return buffer

    def commit_tree(self, ts: int) -> None:
        """Install the tree's tentative value as a committed version."""
        buffer = self.buffers.pop(ts, None)
        self.pending_writers.discard(ts)
        if buffer is None or not buffer.dirty():
            return
        version = Version(ts, buffer.current(), rts=ts)
        self.versions.insert(self._after(ts), version)

    def abort_tree(self, ts: int) -> None:
        """Throw away the tree's tentative state."""
        self.buffers.pop(ts, None)
        self.pending_writers.discard(ts)
