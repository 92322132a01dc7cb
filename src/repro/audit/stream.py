"""Offline adapters: replay recorded histories through the auditor.

The :class:`~repro.audit.auditor.OnlineAuditor` is an event sink; this
module feeds it from the two recorded forms a run leaves behind:

* :func:`audit_schedule` -- a model-alphabet schedule (the engine's
  :class:`~repro.engine.trace.TraceRecorder` events, or any IOA
  schedule) plus its :class:`~repro.core.names.SystemType`.  Access
  leaves are folded at their COMMIT (an aborted leaf never happened),
  internal nodes at their CREATE/COMMIT/ABORT.
* :func:`audit_engine` -- convenience over a traced engine: rebuilds
  the system type from the recorder and, crucially, downgrades the
  verdict to *inconclusive* when the recorder ran in ring-buffer mode
  and evicted events -- a truncated history cannot prove a clean audit.
* :func:`audit_jsonl` / :func:`audit_jsonl_file` -- the ``repro.obs``
  JSONL export (``python -m repro trace --jsonl``): transaction spans
  carry begin/end times and outcomes, access instants carry performer,
  object, and operation.  Events are replayed in timestamp order with
  begins before accesses before ends at equal timestamps; edge
  directions depend only on the per-object access order, which the
  exporter preserves.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence

from repro.audit.auditor import AuditConfig, AuditReport, OnlineAuditor
from repro.core.events import Abort, Commit, Create, Event
from repro.core.names import SystemType, TransactionName
from repro.errors import ReproError


def audit_schedule(
    system_type: SystemType,
    alpha: Sequence[Event],
    config: Optional[AuditConfig] = None,
    auditor: Optional[OnlineAuditor] = None,
) -> OnlineAuditor:
    """Replay a model-alphabet schedule; returns the fed auditor."""
    if auditor is None:
        auditor = OnlineAuditor(config)
    for event in alpha:
        name = event.transaction if hasattr(event, "transaction") else None
        if name is None:
            continue
        if system_type.is_access(name):
            if isinstance(event, Commit):
                auditor.access(
                    name[:-1],
                    system_type.object_of(name),
                    system_type.operation_of(name).kind,
                    system_type.is_read_access(name),
                )
            continue
        if isinstance(event, Create):
            auditor.txn_begin(name)
        elif isinstance(event, Commit):
            auditor.txn_commit(name)
        elif isinstance(event, Abort):
            auditor.txn_abort(name)
    return auditor


def audit_engine(
    engine, config: Optional[AuditConfig] = None
) -> AuditReport:
    """Audit a traced engine run offline; returns the report.

    The engine must have been built with ``trace=True``.  When its
    recorder ran in ring-buffer mode and dropped events, the verdict is
    downgraded to ``inconclusive`` (SER002) rather than pretending the
    surviving suffix proves anything.
    """
    recorder = engine.recorder
    if recorder is None:
        raise ReproError(
            "audit_engine needs a traced engine "
            "(construct it with trace=True)"
        )
    system_type = recorder.system_type(engine.specs)
    auditor = audit_schedule(
        system_type, recorder.schedule(), config
    )
    auditor.note_dropped_events(recorder.dropped_events)
    return auditor.report()


def _parse_txn(text: str) -> Optional[TransactionName]:
    """Invert :func:`repro.core.names.pretty_name` (``T0.1.2``)."""
    if not text or not text.startswith("T0"):
        return None
    if text == "T0":
        return ()
    try:
        return tuple(int(part) for part in text[3:].split("."))
    except ValueError:
        return None


def audit_jsonl(
    lines: Iterable[str],
    config: Optional[AuditConfig] = None,
) -> AuditReport:
    """Audit a recorded ``repro.obs`` JSONL stream."""
    # (time, tie-break, action, payload): begins sort before accesses
    # before ends at equal timestamps, so a span's own accesses always
    # replay inside its lifetime.
    replay: list = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "span" and record.get("cat") == "txn":
            txn = _parse_txn(record.get("txn") or "")
            if txn is None:
                continue
            outcome = (record.get("args") or {}).get("outcome")
            replay.append((record["start"], 0, "begin", txn, None))
            replay.append((record["end"], 2, outcome, txn, None))
        elif kind == "instant" and record.get("cat") == "access":
            txn = _parse_txn(record.get("txn") or "")
            if txn is None:
                continue
            args = record.get("args") or {}
            name = record.get("name") or ""
            replay.append(
                (
                    record["ts"],
                    1,
                    "access",
                    txn,
                    (
                        args.get("object"),
                        args.get("op", ""),
                        name.startswith("r "),
                    ),
                )
            )
    replay.sort(key=lambda item: (item[0], item[1]))
    auditor = OnlineAuditor(config)
    for _, _, action, txn, payload in replay:
        if action == "begin":
            auditor.txn_begin(txn)
        elif action == "access":
            object_name, op, is_read = payload
            auditor.access(txn, object_name, op, is_read)
        elif action == "commit":
            auditor.txn_commit(txn)
        else:
            # "abort", "unfinished", or anything unknown: the tree
            # never committed, so it must not enter the graph.
            auditor.txn_abort(txn)
    return auditor.report()


def audit_jsonl_file(
    path: str, config: Optional[AuditConfig] = None
) -> AuditReport:
    """Audit one ``repro trace --jsonl`` output file."""
    with open(path, "r", encoding="utf-8") as handle:
        return audit_jsonl(handle, config)
