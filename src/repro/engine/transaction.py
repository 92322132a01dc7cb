"""Nested transaction handles."""

from __future__ import annotations

import enum
from typing import Any, List, Optional, TYPE_CHECKING

from repro.core.names import TransactionName, pretty_name
from repro.core.object_spec import Operation
from repro.errors import InvalidTransactionState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


class TransactionStatus(enum.Enum):
    """Lifecycle of an engine transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A handle on one (possibly nested) engine transaction.

    Created by :meth:`Engine.begin_top` or :meth:`Transaction.begin_child`;
    drives work through :meth:`perform`, and finishes with :meth:`commit`
    or :meth:`abort`.  Handles are context managers: leaving the ``with``
    block commits on success and aborts on an exception::

        with engine.begin_top() as txn:
            txn.perform("acct", BankAccount.deposit(10))
    """

    def __init__(
        self,
        engine: "Engine",
        name: TransactionName,
        parent: Optional["Transaction"],
    ):
        self._engine = engine
        self.name = name
        self.parent = parent
        self.status = TransactionStatus.ACTIVE
        self.children: List["Transaction"] = []
        self.value: Any = None
        self._next_child = 0
        # Abort epoch at which the engine last verified this handle is
        # not an orphan (see Engine._check_not_orphan); -1 = never.
        self._orphan_checked_epoch = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.status is TransactionStatus.ACTIVE

    @property
    def is_top_level(self) -> bool:
        return len(self.name) == 1

    @property
    def depth(self) -> int:
        """Nesting depth: 1 for top-level transactions."""
        return len(self.name)

    def live_children(self) -> List["Transaction"]:
        """Children still active."""
        return [child for child in self.children if child.is_active]

    def _claim_child_slot(self) -> TransactionName:
        slot = self.name + (self._next_child,)
        self._next_child += 1
        return slot

    def _abort_subtree(self, doomed: Optional[List[TransactionName]]) -> None:
        """Mark this node and its active descendants aborted (for the
        engines), appending their names to *doomed* in preorder."""
        self.status = TransactionStatus.ABORTED
        if doomed is not None:
            doomed.append(self.name)
        for child in self.children:
            if child.is_active:
                child._abort_subtree(doomed)

    def _require_active(self) -> None:
        if not self.is_active:
            raise InvalidTransactionState(
                "%s is %s" % (pretty_name(self.name), self.status.value)
            )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_child(self) -> "Transaction":
        """Start a subtransaction; returns its handle."""
        self._require_active()
        return self._engine._begin_child(self)

    def perform(self, object_name: str, operation: Operation) -> Any:
        """Run one access against *object_name*; return its result.

        Raises :class:`~repro.errors.LockDenied` when a conflicting
        non-ancestor lockholder exists (the exception lists the blockers);
        the caller decides whether to wait and retry.
        """
        self._require_active()
        return self._engine._perform(self, object_name, operation)

    def commit(self, value: Any = None) -> None:
        """Commit this transaction, reporting *value* to the parent.

        All children must have returned first.
        """
        self._require_active()
        self._engine._commit(self, value)

    def abort(self) -> None:
        """Abort this transaction (and implicitly its whole subtree)."""
        self._require_active()
        self._engine._abort(self)

    # ------------------------------------------------------------------
    # Context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self.is_active:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<Transaction %s %s>" % (
            pretty_name(self.name),
            self.status.value,
        )
