"""A production-style nested-transaction engine implementing Moss' algorithm.

This package is the executable substitute for the Argus data-management
runtime the paper's algorithm shipped in: a single-process engine with

* a Moss R/W lock manager (:mod:`~repro.engine.lockmanager`) whose state is
  exactly the M(X) automaton state -- lockholder sets plus a per-holder
  version map;
* nested begin/access/commit/abort transaction handles
  (:mod:`~repro.engine.transaction`, :mod:`~repro.engine.engine`);
* the top-level collapse and victim rule a driver's deadlock detector
  calls (:mod:`~repro.engine.deadlock`; the engine keeps no waits-for
  graph);
* pluggable locking policies (:mod:`~repro.engine.policies`): ``moss-rw``,
  ``exclusive`` (the all-writes degeneration), ``flat-2pl``;
* one event spine (:mod:`~repro.engine.spine`) through which every
  transition is announced; its model-alphabet trace recorder
  (:mod:`~repro.engine.trace`) lets engine runs be replayed against the
  formal model (``repro.checking``).

The engine is non-blocking: a conflicting access raises
:class:`~repro.errors.LockDenied` carrying the blockers, and the caller
(usually the discrete-event simulator in :mod:`repro.sim`) decides how to
wait.  This sidesteps the GIL: concurrency is simulated, which is all the
locking theory needs.
"""

from repro.engine.engine import Engine
from repro.engine.policies import (
    ExclusivePolicy,
    FlatTwoPhasePolicy,
    LockingPolicy,
    MossPolicy,
    make_policy,
)
from repro.engine.savepoints import Savepoint, SavepointSession
from repro.engine.threadsafe import ThreadSafeEngine, ThreadSafeTransaction
from repro.engine.transaction import Transaction, TransactionStatus

__all__ = [
    "Engine",
    "ExclusivePolicy",
    "FlatTwoPhasePolicy",
    "LockingPolicy",
    "MossPolicy",
    "Savepoint",
    "SavepointSession",
    "ThreadSafeEngine",
    "ThreadSafeTransaction",
    "Transaction",
    "TransactionStatus",
    "make_policy",
]
