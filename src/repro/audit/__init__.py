"""repro.audit -- the online serializability auditor.

A production-shaped safety net for schedules the test suite never saw:
an :class:`OnlineAuditor` subscribes to the event spine
(:mod:`repro.engine.spine`) of any engine, facade, or runner and
incrementally maintains the direct
serialization graph over committed top-level transactions (WR, WW, and
RW dependencies per object).  A cycle is flagged immediately with a
**minimal witness** -- the transactions and the object accesses forcing
each edge -- rendered through :mod:`repro.analysis.reporters` as
``SER001`` findings.

Quick use::

    from repro.audit import attach_auditor

    auditor = attach_auditor(engine)      # trust dial from capabilities
    ...drive transactions...
    report = auditor.report()             # verdict + witnesses + stats

Memory stays bounded (vertices are garbage-collected once no live
transaction can precede them), sampling audits every Nth top-level
tree, and a lossy event source (ring-buffer tracing with drops)
downgrades the verdict to *inconclusive* (``SER002``) instead of
reporting a hollow clean audit.  Offline, the same core replays
recorded JSONL traces (``python -m repro audit``) and model-alphabet
engine traces.  See ``docs/ANALYSIS.md`` for the algorithm, the
sampling semantics, and the witness format.
"""

from repro.audit.auditor import (
    SER001,
    SER002,
    AuditConfig,
    AuditReport,
    OnlineAuditor,
    Violation,
    attach_auditor,
)
from repro.audit.graph import (
    SerializationGraph,
    WitnessEdge,
    edge_kind,
)
from repro.audit.stream import (
    audit_engine,
    audit_jsonl,
    audit_jsonl_file,
    audit_schedule,
)

__all__ = [
    "AuditConfig",
    "AuditReport",
    "OnlineAuditor",
    "SER001",
    "SER002",
    "SerializationGraph",
    "Violation",
    "WitnessEdge",
    "attach_auditor",
    "audit_engine",
    "audit_jsonl",
    "audit_jsonl_file",
    "audit_schedule",
    "edge_kind",
]
