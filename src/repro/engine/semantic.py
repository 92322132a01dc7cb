"""Commutativity-based (semantic) locking with undo recovery.

The paper's introduction lists "arbitrary conflict-based locking" among
the known protocols and cites Weihl's thesis [We] on atomic data types;
Moss' read/write rule is the coarsest useful conflict relation.  This
module implements the finer-grained scheme at the engine level:

* the conflict relation comes from the ADT
  (:meth:`~repro.core.object_spec.ObjectSpec.conflicts`): operations that
  commute in both state and return values need not conflict -- two
  counter ``bump``s, set operations on different elements, two account
  ``credit``s;
* because non-conflicting writers interleave, Moss' per-holder *version*
  recovery no longer works (versions would fork); recovery is by **undo
  logs** instead: every state-changing operation records its inverse
  (:meth:`~repro.core.object_spec.ObjectSpec.inverse`), and an abort
  applies the doomed subtree's inverses newest-first.  Commutativity is
  exactly what makes out-of-order undo sound: the surviving entries
  commute with the removed ones.

Select it with ``Engine(specs, policy="semantic")``.  Locks still flow
to the parent on commit (Moss inheritance) and conflicting holders must
still be ancestors -- only the conflict test and the recovery mechanism
change.  Correctness is validated in the tests by the generalized
precedence-graph oracle and direct state checks; this policy does *not*
refine the paper's M(X) automaton (its concurrency exceeds Moss'), so
trace conformance is intentionally unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Set

from repro.core.names import (
    ROOT,
    TransactionName,
    is_ancestor,
    is_descendant,
    parent,
)
from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.locks import LockMode
from repro.engine.policies import MossPolicy
from repro.errors import EngineError, LockDenied


@dataclass
class LogEntry:
    """One granted operation: who ran it, what it was, how to undo it."""

    holder: TransactionName
    operation: Operation
    undo: Optional[Operation]


class SemanticManagedObject:
    """Lock table + undo log for one object under semantic locking.

    Duck-types :class:`~repro.engine.lockmanager.ManagedObject` (the
    engine calls ``blockers`` / ``acquire`` / ``on_commit`` /
    ``on_abort`` / value accessors), but holds a single evolving value
    plus a chronological operation log instead of per-holder versions.
    """

    #: Grants are reported through :attr:`granted_hook`, so the
    #: LockManager's held-objects index works for this class too.
    HOLDER_INDEXED = True

    #: The grant event's lock-movement counter: no versions move here.
    generation = 0

    def __init__(self, spec: ObjectSpec):
        self.spec = spec
        self.value: Any = spec.initial_value()
        self.log: List[LogEntry] = []
        self.granted_hook = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current_value(self) -> Any:
        """The value including uncommitted effects."""
        return self.value

    def committed_value(self) -> Any:
        """The value with every uncommitted entry undone (computed)."""
        value = self.value
        for entry in reversed(self.log):
            if entry.holder == ROOT:
                continue
            if entry.undo is not None:
                _, value = self.spec.apply(value, entry.undo)
        return value

    def blockers(
        self,
        requester: TransactionName,
        mode: LockMode = LockMode.WRITE,
        operation: Optional[Operation] = None,
    ) -> Set[TransactionName]:
        """Non-ancestor holders of *conflicting* operations."""
        if operation is None:
            raise EngineError(
                "semantic locking needs the operation to test conflicts"
            )
        found: Set[TransactionName] = set()
        for entry in self.log:
            if entry.holder == ROOT:
                continue
            if is_ancestor(entry.holder, requester):
                continue
            if self.spec.conflicts(entry.operation, operation):
                found.add(entry.holder)
        return found

    def holds_lock(self, name: TransactionName) -> bool:
        return any(entry.holder == name for entry in self.log)

    def is_locked_by_subtree(self, name: TransactionName) -> bool:
        return any(
            is_descendant(entry.holder, name)
            for entry in self.log
            if entry.holder != ROOT or name == ROOT
        )

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def acquire(
        self,
        owner: TransactionName,
        operation: Operation,
        mode: LockMode = LockMode.WRITE,
    ) -> Any:
        """Run *operation* for *owner*; log its inverse; return result."""
        blockers = self.blockers(owner, mode, operation=operation)
        if blockers:
            raise LockDenied(
                "%s blocked on %r by %r"
                % (self.spec.name, owner, sorted(blockers)),
                blockers=blockers,
            )
        result, new_value = self.spec.apply(self.value, operation)
        undo = (
            None
            if operation.is_read
            else self.spec.inverse(operation, result)
        )
        self.value = new_value
        self.log.append(LogEntry(owner, operation, undo))
        hook = self.granted_hook
        if hook is not None:
            hook(owner)
        return result

    def on_commit(self, name: TransactionName) -> None:
        """Pass *name*'s log entries (its locks) to the parent."""
        mother = parent(name)
        if mother is None:
            raise EngineError("cannot commit the root")
        for entry in self.log:
            if entry.holder == name:
                entry.holder = mother
        if mother == ROOT:
            # Committed to the top: the effects are permanent; the undo
            # information is no longer needed.
            self.log = [
                entry for entry in self.log if entry.holder != ROOT
            ]

    def on_abort(self, name: TransactionName) -> None:
        """Undo the subtree's operations, newest first, and drop them."""
        survivors: List[LogEntry] = []
        doomed: List[LogEntry] = []
        for entry in self.log:
            if entry.holder != ROOT and is_descendant(entry.holder, name):
                doomed.append(entry)
            else:
                survivors.append(entry)
        for entry in reversed(doomed):
            if entry.undo is not None:
                _, self.value = self.spec.apply(self.value, entry.undo)
        self.log = survivors


class SemanticPolicy(MossPolicy):
    """Moss' structure with the ADT's own conflict relation.

    Lock ownership, inheritance and abort scoping are unchanged; only the
    conflict test (per-operation) and recovery (undo logs) differ.
    """

    name = "semantic"

    @property
    def model_conformant(self) -> bool:
        return False

    def make_managed(self, spec: ObjectSpec) -> SemanticManagedObject:
        return SemanticManagedObject(spec)
