"""Crash-restart recovery: replay a WAL prefix into a fresh engine.

Recovery is *logical replay*: the log records every state transition of
the original engine -- BEGIN, granted ACQUIRE, COMMIT, ABORT -- in an
order consistent with the engine's own serialization of them, and every
one of those transitions is deterministic (``ObjectSpec.apply`` is
pure, top-level and child slot numbers are assigned sequentially).  So
driving a fresh engine through the same transitions rebuilds the
``LockManager`` holder tables, the ``ManagedObject`` version stacks,
and the committed object store exactly -- the replay cross-checks
itself against the logged names, slot numbers, and movement
``generation`` values and stops (verdict ``"partial"``) at the first
record that does not reproduce.

After replay the *presumed-abort* pass runs: any top-level transaction
whose commit record is missing from the surviving prefix is aborted,
releasing its whole subtree's locks and discarding its versions.  This
is the nested-transaction analogue of presumed-abort -- a crash between
a subtransaction's commit and its top-level ancestor's commit must
discard the subtransaction's effects, because lock inheritance only
made them visible to the (now dead) ancestor, never to the world.

What recovery does *not* restore (by design; see docs/DURABILITY.md):
commit report values, observer metrics, traces, wait/deadlock state,
and engine stats -- none of these affect the store or the lock tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.names import ROOT
from repro.errors import ReproError
from repro.wal import records as rec
from repro.wal.log import MemoryWalSink, WriteAheadLog, read_log_bytes


class RecoveryError(ReproError):
    """The log cannot be recovered at all (no usable header)."""


def _resolve_specs(pairs):
    """Build object specs from the header's ``[name, class]`` pairs."""
    import repro.adt as adt

    specs = []
    for object_name, class_name in pairs:
        spec_class = getattr(adt, class_name, None)
        if spec_class is None:
            raise RecoveryError(
                "log names unknown ADT class %r for object %r; "
                "pass specs= explicitly" % (class_name, object_name)
            )
        specs.append(spec_class(object_name))
    return specs


def holder_snapshot(engine) -> Dict[str, Dict[str, Any]]:
    """Canonical per-object state: holders, versions, generation.

    The recovery harness compares these snapshots for byte-identity
    (via ``==`` on the nested structure) between a recovered engine and
    a never-crashed reference run.
    """
    snapshot: Dict[str, Dict[str, Any]] = {}
    for object_name, managed in sorted(engine.locks.objects.items()):
        writes, reads = managed.holders_view()
        versions = managed.versions
        snapshot[object_name] = {
            "write": sorted(writes),
            "read": sorted(reads),
            "versions": [
                (holder, versions.get(holder))
                for holder in sorted(versions.holders())
            ],
            "generation": managed.generation,
        }
    return snapshot


def committed_values(engine) -> Dict[str, Any]:
    """The committed (root) value of every object."""
    return {
        object_name: managed.versions.get(ROOT)
        for object_name, managed in sorted(engine.locks.objects.items())
    }


@dataclass
class RecoveryReport:
    """What recovery read, applied, and presumed aborted."""

    scheme: str = ""
    objects: Tuple[Tuple[str, str], ...] = ()
    segments: int = 0
    records_scanned: int = 0
    records_applied: int = 0
    #: Scan stop: ``"end"`` / ``"torn"`` / ``"corrupt"``.
    stopped: str = "end"
    stopped_at: int = 0
    detail: str = ""
    #: Top-level transactions aborted by the presumed-abort pass.
    presumed_aborted: Tuple[Tuple[int, ...], ...] = ()
    committed: Dict[str, Any] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """``"complete"`` -- the whole log replayed; ``"partial"`` --
        replay stopped early (torn tail, corruption, or a record that
        did not reproduce) and only the surviving prefix is restored."""
        return (
            "complete"
            if self.stopped == "end"
            and self.records_applied == self.records_scanned
            else "partial"
        )

    def render(self) -> str:
        lines = [
            "recovery: %s" % self.verdict,
            "  scheme=%s segments=%d" % (self.scheme, self.segments),
            "  records: scanned=%d applied=%d"
            % (self.records_scanned, self.records_applied),
        ]
        if self.stopped != "end" or self.detail:
            lines.append(
                "  stopped: %s at byte %d%s"
                % (
                    self.stopped,
                    self.stopped_at,
                    " (%s)" % self.detail if self.detail else "",
                )
            )
        if self.presumed_aborted:
            lines.append(
                "  presumed-abort: %s"
                % ", ".join(
                    "T%s" % ".".join(str(part) for part in name)
                    for name in self.presumed_aborted
                )
            )
        for object_name, value in sorted(self.committed.items()):
            lines.append("  committed %s = %r" % (object_name, value))
        return "\n".join(lines)


@dataclass
class RecoveredState:
    """A freshly rebuilt engine plus the report of how it got there."""

    engine: Any
    report: RecoveryReport


def _log_bytes(source) -> bytes:
    """Accept bytes, a sink, a WriteAheadLog, or a path."""
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    if isinstance(source, WriteAheadLog):
        source = source.sink
    if isinstance(source, MemoryWalSink):
        return source.getvalue()
    if isinstance(source, str):
        return read_log_bytes(source)
    raise RecoveryError(
        "cannot read a log from %r" % type(source).__name__
    )


def recover(
    source,
    specs=None,
    policy=None,
    presume_abort: bool = True,
    observer=None,
) -> RecoveredState:
    """Rebuild an engine from a log prefix; never raises on bad logs
    past the header (bad records stop replay with a ``partial``
    verdict instead).

    Parameters
    ----------
    source:
        The log: raw bytes, a sink/:class:`WriteAheadLog`, a log file
        path, or a :class:`~repro.wal.log.FileWalSink` directory.
    specs / policy:
        Override the self-describing header (required when the
        original store used non-default initial values, which the
        header does not capture).
    presume_abort:
        Abort still-active top-level transactions after replay (the
        default).  ``False`` leaves them live -- the harness uses this
        to compare against a mid-flight reference run.
    observer:
        Optional :class:`repro.obs.Observer` for ``recovery.*``
        counters; also subscribed to the rebuilt engine (after replay,
        so it sees only what happens next).
    """
    from repro.engine.engine import Engine

    data = _log_bytes(source)
    scan = rec.scan_records(data)
    header = rec.first_segment_header(scan.records)
    if header is None:
        raise RecoveryError(
            "no segment header in log (%s at byte %d%s)"
            % (
                scan.stopped,
                scan.stopped_at,
                ": %s" % scan.detail if scan.detail else "",
            )
        )
    if header.payload.get("format") != rec.FORMAT_VERSION:
        raise RecoveryError(
            "log format %r, this build reads %d"
            % (header.payload.get("format"), rec.FORMAT_VERSION)
        )
    scheme = header.payload["scheme"]
    object_pairs = tuple(
        (str(name), str(cls)) for name, cls in header.payload["objects"]
    )
    if specs is None:
        specs = _resolve_specs(object_pairs)
    try:
        engine = Engine(specs, policy=policy if policy else scheme)
    except Exception as exc:
        raise RecoveryError(
            "cannot build engine for scheme %r: %s" % (scheme, exc)
        ) from None
    if not engine.capabilities.durable:
        raise RecoveryError(
            "scheme %r is not durable (capabilities.durable is False)"
            % scheme
        )

    report = RecoveryReport(
        scheme=scheme,
        objects=object_pairs,
        records_scanned=len(scan.records),
        stopped=scan.stopped,
        stopped_at=scan.stopped_at,
        detail=scan.detail,
    )
    applied = 0
    for record in scan.records:
        try:
            _apply(engine, record)
        except _ReplayStop as stop:
            # The record decoded but did not reproduce on replay: the
            # log is inconsistent from here on.  Trust only the prefix.
            report.stopped = "corrupt"
            report.stopped_at = record.offset
            report.detail = str(stop)
            break
        applied += 1
        if observer is not None:
            observer.count(
                "recovery.records", kind=record.kind_name
            )
    report.records_applied = applied
    report.segments = sum(
        1 for record in scan.records[:applied] if record.kind == rec.SEGMENT
    )

    presumed: List[Tuple[int, ...]] = []
    if presume_abort:
        for name in sorted(engine.started_at):
            txn = engine.transactions.get(name)
            if txn is not None and txn.is_active:
                txn.abort()
                presumed.append(tuple(name))
                if observer is not None:
                    observer.count("recovery.presumed_abort")
    report.presumed_aborted = tuple(presumed)
    report.committed = committed_values(engine)
    if observer is not None:
        observer.observe("recovery.records_applied", float(applied))
        engine.subscribe(observer)
    return RecoveredState(engine=engine, report=report)


class _ReplayStop(Exception):
    """Internal: a decoded record did not reproduce on replay."""


def _apply(engine, record: rec.Record) -> None:
    kind = record.kind
    payload = record.payload
    if kind == rec.SEGMENT:
        return
    if kind == rec.BEGIN:
        name = rec.name_from_wire(payload["txn"])
        if len(name) == 1:
            if engine._next_top != name[0]:
                raise _ReplayStop(
                    "BEGIN lsn=%s expects top slot %d, engine at %d"
                    % (payload.get("lsn"), name[0], engine._next_top)
                )
            engine.begin_top()
            return
        parent = engine.transactions.get(name[:-1])
        if parent is None:
            raise _ReplayStop(
                "BEGIN lsn=%s: parent %r never began"
                % (payload.get("lsn"), name[:-1])
            )
        if parent._next_child != name[-1]:
            raise _ReplayStop(
                "BEGIN lsn=%s expects child slot %d of %r, engine at %d"
                % (
                    payload.get("lsn"),
                    name[-1],
                    name[:-1],
                    parent._next_child,
                )
            )
        parent.begin_child()
        return
    if kind == rec.ACQUIRE:
        access = rec.name_from_wire(payload["access"])
        performer = engine.transactions.get(access[:-1])
        if performer is None:
            raise _ReplayStop(
                "ACQUIRE lsn=%s: performer %r never began"
                % (payload.get("lsn"), access[:-1])
            )
        if performer._next_child != access[-1]:
            raise _ReplayStop(
                "ACQUIRE lsn=%s expects access slot %d, engine at %d"
                % (
                    payload.get("lsn"),
                    access[-1],
                    performer._next_child,
                )
            )
        object_name = payload["object"]
        if object_name not in engine.specs:
            raise _ReplayStop(
                "ACQUIRE lsn=%s names unknown object %r"
                % (payload.get("lsn"), object_name)
            )
        operation = rec.operation_from_wire(payload["op"])
        try:
            performer.perform(object_name, operation)
        except ReproError as exc:
            raise _ReplayStop(
                "ACQUIRE lsn=%s did not replay: %s"
                % (payload.get("lsn"), exc)
            ) from None
        generation = engine.locks.object(object_name).generation
        if generation != payload["gen"]:
            raise _ReplayStop(
                "ACQUIRE lsn=%s: generation %d, log says %d"
                % (payload.get("lsn"), generation, payload["gen"])
            )
        return
    if kind == rec.COMMIT:
        name = rec.name_from_wire(payload["txn"])
        txn = engine.transactions.get(name)
        if txn is None:
            raise _ReplayStop(
                "COMMIT lsn=%s: %r never began"
                % (payload.get("lsn"), name)
            )
        try:
            txn.commit()
        except ReproError as exc:
            raise _ReplayStop(
                "COMMIT lsn=%s did not replay: %s"
                % (payload.get("lsn"), exc)
            ) from None
        return
    if kind == rec.ABORT:
        name = rec.name_from_wire(payload["txn"])
        txn = engine.transactions.get(name)
        if txn is None:
            raise _ReplayStop(
                "ABORT lsn=%s: %r never began" % (payload.get("lsn"), name)
            )
        if not txn.is_active:
            # A wound/escalation may abort a tree whose handle already
            # finished from its own thread's point of view; the log's
            # single ABORT record is authoritative and idempotent.
            return
        txn.abort()
        return
    raise _ReplayStop("unknown record kind %d" % kind)
