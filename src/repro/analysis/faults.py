"""Mutants: locking policies that each break one rule, to test checkers.

A checker is only trustworthy if it catches real bugs.  Each policy
here breaks exactly one of Moss' M(X) rules (Section 5.2) or the
read/write designation; ``docs/ANALYSIS.md`` catalogues them and the
kill matrix (:mod:`repro.checking.matrix`) records which checker
catches which.  :data:`MUTANTS` is the one name table ``repro analyze
--policy``, ``repro fuzz --faults`` and the matrix read, so adding a
mutant edits this module only.  Never use them for real work.

Every mutant keeps ``model_conformant`` True on purpose: it *claims* to
refine M(X), so its traces flow through the conformance pipeline, which
then fails and hands the schedule to the linter for a diagnosis.
Holder mutation goes through the aggregate-maintaining helpers, so the
fast-path bookkeeping stays truthful: the fault is the skipped or
misdirected rule, not a corrupted table.  (This module IS the fault
injector, hence its CD005 suppressions.)
"""

from __future__ import annotations

from typing import Dict, Type

from repro.core.names import TransactionName, parent
from repro.engine.lockmanager import ManagedObject
from repro.engine.locks import LockMode
from repro.engine.policies import LockingPolicy, MossPolicy
from repro.errors import EngineError


class NoInheritManagedObject(ManagedObject):
    """A commit *drops* the locks instead of passing them up."""

    def on_commit(self, name: TransactionName) -> None:
        if parent(name) is None:
            raise EngineError("cannot commit the root")
        moved = False
        if name in self.write_holders:
            self._discard_holder(name, LockMode.WRITE)
            self.versions.promote(name)  # repro-lint: ignore[CD005]
            moved = True
        if name in self.read_holders:
            self._discard_holder(name, LockMode.READ)
            moved = True
        if moved:
            self.generation += 1


class AbortKeepsVersionsManagedObject(ManagedObject):
    """An abort discards the subtree's locks but keeps its versions."""

    def on_abort(self, name: TransactionName) -> None:
        for mode, depths in (
            (LockMode.WRITE, self._write_depths),
            (LockMode.READ, self._read_depths),
        ):
            for holder in self._subtree_members(depths, name):
                self._discard_holder(holder, mode)
        self.generation += 1


class AbortKeepsLocksManagedObject(ManagedObject):
    """An abort discards the subtree's versions but keeps its locks."""

    def on_abort(self, name: TransactionName) -> None:
        self.versions.discard_subtree(name)  # repro-lint: ignore[CD005]
        self.generation += 1


class InheritPastParentManagedObject(ManagedObject):
    """A commit passes locks and version to the grandparent."""

    def on_commit(self, name: TransactionName) -> None:
        if parent(name) is None:
            raise EngineError("cannot commit the root")
        heir = name[:-2]
        versions = self.versions
        if versions.has(name):
            value = versions.get(name)
            versions.discard_subtree(name)  # repro-lint: ignore[CD005]
            versions.install(heir, value)  # repro-lint: ignore[CD005]
        for mode, holders in (
            (LockMode.WRITE, self.write_holders),
            (LockMode.READ, self.read_holders),
        ):
            if name in holders:
                self._discard_holder(name, mode)
                self._add_holder(heir, mode)
        self.generation += 1


class NoInheritPolicy(MossPolicy):
    name = "broken-no-inherit"

    def make_managed(self, spec) -> ManagedObject:
        return NoInheritManagedObject(spec)


class AbortKeepsVersionsPolicy(MossPolicy):
    name = "broken-abort-keeps-versions"

    def make_managed(self, spec) -> ManagedObject:
        return AbortKeepsVersionsManagedObject(spec)


class AbortKeepsLocksPolicy(MossPolicy):
    name = "broken-abort-keeps-locks"

    def make_managed(self, spec) -> ManagedObject:
        return AbortKeepsLocksManagedObject(spec)


class InheritPastParentPolicy(MossPolicy):
    name = "broken-inherit-past-parent"

    def make_managed(self, spec) -> ManagedObject:
        return InheritPastParentManagedObject(spec)


class AllReadsPolicy(MossPolicy):
    name = "broken-all-reads"

    def mode_for(self, operation) -> LockMode:
        return LockMode.READ


#: Every mutant by name: the one table ``repro analyze --policy``,
#: ``repro fuzz --faults`` and the kill matrix read.
MUTANTS: Dict[str, Type[LockingPolicy]] = {
    policy.name: policy
    for policy in (
        NoInheritPolicy,
        AbortKeepsVersionsPolicy,
        AbortKeepsLocksPolicy,
        InheritPastParentPolicy,
        AllReadsPolicy,
    )
}
