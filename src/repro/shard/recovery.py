"""Sharded durability: the decision log and cross-shard recovery.

A sharded run leaves this layout under its ``wal_dir``::

    wal_dir/
      shard-00/ wal-00000000.seg ...   per-worker engine WALs
      shard-01/ ...
      coord/    wal-00000000.seg ...   coordinator decision records

Each worker logs exactly what a single-process engine logs, in its own
*local* numbering, so ``repro.wal.recovery.recover`` replays each
shard directory unchanged.  Presumed abort does the rest: a tree that
crashed before its COMMIT record replays to an active tree and is
aborted by recovery -- which is the correct outcome for every
unprepared or undecided cross-shard tree, because the coordinator acks
a commit only after *every* participant logged COMMIT durably.

The decision log adds the one piece the per-shard logs cannot carry:
for each cross-shard commit, a framed canonical-JSON record
(:mod:`repro.core.framing`, so it is CRC-checked and torn-tail
tolerant like a WAL record) written *between* phase 1 and phase 2,
naming the global ordinal, the participant shards, and each
participant's local top slot.  Recovery uses it to
flag decided-but-unapplied shards (prepared, decision durable, crash
before the shard's COMMIT record): those trees were never acked, but
the decision shows how to roll them forward.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.framing import FrameError, frame, scan_frames
from repro.errors import EngineError
from repro.wal.log import FileWalSink, GroupCommitSink, read_log_bytes
from repro.wal.records import MAX_BODY_BYTES

#: Subdirectory of the sharded ``wal_dir`` holding decision records.
COORD_DIRNAME = "coord"
#: Per-shard WAL directories: ``shard-00``, ``shard-01``, ...
SHARD_DIR_PREFIX = "shard-"


class DecisionLog:
    """Append-only, fsync-per-decision log of 2PC commit decisions.

    Thread-safe: any number of committing client threads may log
    concurrently.  With a group-commit window the underlying sink
    coalesces their fsyncs (``flush_begin``/``flush_wait`` run outside
    the append lock), which is the decision log's natural regime --
    it only sees cross-shard commits, which arrive from many sessions.
    """

    def __init__(self, wal_dir: str, window_ms: Optional[float] = None):
        self.directory = os.path.join(wal_dir, COORD_DIRNAME)
        if window_ms is not None:
            self._sink = GroupCommitSink(
                self.directory, window_ms=window_ms
            )
        else:
            self._sink = FileWalSink(self.directory)
        self._lock = threading.Lock()
        self._count = 0

    @property
    def decisions(self) -> int:
        return self._count

    def log(
        self,
        ordinal: int,
        participants: List[int],
        locals_map: Optional[Dict[str, int]] = None,
    ) -> None:
        """Durably record "commit" for global top *ordinal*.

        Returns only once the record is on disk -- this is the 2PC
        commit point between prepare and decide.
        """
        record = {
            "decision": "commit",
            "txn": [int(ordinal)],
            "participants": [int(shard) for shard in participants],
            "local": locals_map or {},
        }
        data = frame(
            json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ).encode()
        )
        with self._lock:
            self._sink.append(data)
            self._count += 1
        flush_begin = getattr(self._sink, "flush_begin", None)
        if flush_begin is not None:
            # Group sink: wait outside the lock so concurrent
            # committers share one fsync.
            self._sink.flush_wait(flush_begin())
        else:
            with self._lock:
                self._sink.flush()

    def close(self) -> None:
        with self._lock:
            self._sink.close()


def _decode_decision(body: bytes, start: int, end: int) -> Dict[str, Any]:
    try:
        decision = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError("bad decision record: %s" % exc) from None
    if not isinstance(decision, dict):
        raise FrameError("decision record is not an object")
    return decision


def read_decisions(wal_dir: str) -> List[Dict[str, Any]]:
    """Replay the decision log; torn or corrupt tails stop the scan.

    Returns the decoded decision records in log order: every record
    before the first bad one, as ``scan_records`` does for a WAL.  A
    missing ``coord`` directory (no cross-shard commit ever decided) is
    an empty list, not an error -- presumed abort covers everything.
    """
    directory = os.path.join(wal_dir, COORD_DIRNAME)
    if not os.path.isdir(directory):
        return []
    return scan_frames(
        read_log_bytes(directory), MAX_BODY_BYTES, _decode_decision
    ).items


@dataclass
class ShardedRecovery:
    """Everything recovery learned from a sharded ``wal_dir``."""

    wal_dir: str
    #: shard index -> :class:`repro.wal.recovery.RecoveredState`
    shards: Dict[int, Any] = field(default_factory=dict)
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    #: shard index -> error string, for unrecoverable shard logs
    shard_errors: Dict[int, str] = field(default_factory=dict)
    #: ``(global_ordinal, shard, local_slot)`` of decided commits the
    #: shard's log does not show committed (prepared, decision logged,
    #: crash before the COMMIT record).  Never acked to a client; the
    #: decision record says they roll forward, not back.
    in_doubt: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """``"complete"`` iff every shard log replayed completely."""
        if self.shard_errors or not self.shards:
            return "partial"
        return (
            "complete"
            if all(
                state.report.verdict == "complete"
                for state in self.shards.values()
            )
            else "partial"
        )

    def committed(self) -> Dict[str, Any]:
        """Committed object values merged across shards (disjoint)."""
        merged: Dict[str, Any] = {}
        for state in self.shards.values():
            merged.update(state.report.committed)
        return merged

    def render(self) -> str:
        lines = [
            "sharded recovery: %s (%d shards, %d decisions)"
            % (self.verdict, len(self.shards), len(self.decisions))
        ]
        for shard in sorted(self.shards):
            report = self.shards[shard].report
            lines.append(
                "  shard %d: %s, records=%d/%d, presumed-abort=%d"
                % (
                    shard,
                    report.verdict,
                    report.records_applied,
                    report.records_scanned,
                    len(report.presumed_aborted),
                )
            )
        for shard in sorted(self.shard_errors):
            lines.append(
                "  shard %d: unrecoverable (%s)"
                % (shard, self.shard_errors[shard])
            )
        for ordinal, shard, slot in self.in_doubt:
            lines.append(
                "  in-doubt: top %d decided commit, shard %d local "
                "T%d not committed -> roll forward" % (ordinal, shard, slot)
            )
        for object_name, value in sorted(self.committed().items()):
            lines.append("  committed %s = %r" % (object_name, value))
        return "\n".join(lines)


def recover_sharded(
    wal_dir: str, presume_abort: bool = True
) -> ShardedRecovery:
    """Recover every shard log under *wal_dir* plus the decision log.

    Each ``shard-NN`` directory replays independently through
    :func:`repro.wal.recovery.recover` (same presumed-abort semantics
    as a single-process log); the decision log then cross-checks that
    every decided cross-shard commit reached every participant --
    shards where it did not are reported ``in_doubt`` with a
    roll-forward resolution.
    """
    from repro.wal.recovery import recover

    if not os.path.isdir(wal_dir):
        raise EngineError("no such wal directory: %r" % wal_dir)
    result = ShardedRecovery(wal_dir=wal_dir)
    for name in sorted(os.listdir(wal_dir)):
        path = os.path.join(wal_dir, name)
        if not name.startswith(SHARD_DIR_PREFIX) or not os.path.isdir(path):
            continue
        try:
            shard = int(name[len(SHARD_DIR_PREFIX) :])
        except ValueError:
            continue
        try:
            result.shards[shard] = recover(
                path, presume_abort=presume_abort
            )
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            result.shard_errors[shard] = str(exc)
    if not result.shards and not result.shard_errors:
        raise EngineError(
            "no %s* directories under %r" % (SHARD_DIR_PREFIX, wal_dir)
        )
    result.decisions = read_decisions(wal_dir)
    for decision in result.decisions:
        if decision.get("decision") != "commit":
            continue
        txn = decision.get("txn") or [None]
        locals_map = decision.get("local") or {}
        for shard_key, slot in locals_map.items():
            try:
                shard = int(shard_key)
                local = (int(slot),)
            except (TypeError, ValueError):
                continue
            state = result.shards.get(shard)
            if state is None:
                continue
            if local in state.report.presumed_aborted:
                result.in_doubt.append((txn[0], shard, local[0]))
    return result
