"""The paper's primary contribution (Sections 3-6).

This package models nested-transaction systems exactly as the paper does:

* :mod:`~repro.core.names` -- transaction name trees ("system types").
* :mod:`~repro.core.events` -- the serial/concurrent operation alphabet.
* :mod:`~repro.core.wellformed` -- well-formedness of component schedules.
* :mod:`~repro.core.transaction` -- transaction automata.
* :mod:`~repro.core.object_spec` / :mod:`~repro.core.basic_object` -- basic
  objects over abstract data types (Section 4.3's canonical construction).
* :mod:`~repro.core.serial_scheduler` -- the serial scheduler (Section 3.3).
* :mod:`~repro.core.generic_scheduler` -- the generic scheduler (Section 5.2).
* :mod:`~repro.core.rw_object` -- Moss' R/W Locking objects M(X) (Section 5.1).
* :mod:`~repro.core.systems` -- serial and R/W Locking system compositions.
* :mod:`~repro.core.visibility` -- visibility, orphans, essence
  (Sections 3.4, 5.1).
* :mod:`~repro.core.equieffective` -- equieffectiveness, transparency,
  write-equality and write-equivalence (Sections 4, 6.1).
* :mod:`~repro.core.serializer` -- the constructive rearrangement of
  Lemma 33.
* :mod:`~repro.core.correctness` -- the serial-correctness checker
  (Theorem 34, Corollary 35).

Not from the paper: :mod:`~repro.core.framing` and
:mod:`~repro.core.jsonbody`, the frame and body codecs the WAL, the wire
protocol and the 2PC decision log share.
"""

from repro.core.names import (
    ROOT,
    SystemType,
    SystemTypeBuilder,
    TransactionName,
    ancestors,
    is_ancestor,
    is_descendant,
    is_proper_descendant,
    lca,
    parent,
    pretty_name,
)
from repro.core.events import (
    Abort,
    Commit,
    Create,
    InformAbortAt,
    InformCommitAt,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    is_serial_operation,
    transaction_of,
)
from repro.core.object_spec import ObjectSpec, Operation
from repro.core.systems import SerialSystem, RWLockingSystem
from repro.core.correctness import (
    CorrectnessReport,
    check_schedule,
    check_serial_correctness,
)
from repro.core.serializer import serialize_visible

__all__ = [
    "Abort",
    "Commit",
    "CorrectnessReport",
    "Create",
    "InformAbortAt",
    "InformCommitAt",
    "ObjectSpec",
    "Operation",
    "ReportAbort",
    "ReportCommit",
    "RequestCommit",
    "RequestCreate",
    "ROOT",
    "RWLockingSystem",
    "SerialSystem",
    "SystemType",
    "SystemTypeBuilder",
    "TransactionName",
    "ancestors",
    "check_schedule",
    "check_serial_correctness",
    "is_ancestor",
    "is_descendant",
    "is_proper_descendant",
    "is_serial_operation",
    "lca",
    "parent",
    "pretty_name",
    "serialize_visible",
    "transaction_of",
]
