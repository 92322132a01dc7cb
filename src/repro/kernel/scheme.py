"""The ConcurrencyScheme interface and its declared capabilities.

A *scheme* is one concurrency-control algorithm exposed through the
uniform nested-transaction handle API (``begin_top`` /
``Transaction.begin_child`` / ``perform`` / ``commit`` / ``abort``) plus
the runner hooks (``fresh_blockers`` / ``stats``).  The runners,
facades, and oracles never inspect which engine class they hold;
everything they need to know about an algorithm's shape is declared up
front in :class:`SchemeCapabilities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.core.names import TransactionName
from repro.core.object_spec import Operation


@dataclass(frozen=True)
class SchemeCapabilities:
    """What a concurrency-control scheme guarantees and requires.

    Callers branch on these flags instead of on scheme names or engine
    classes; adding a scheme means declaring its capabilities, not
    patching every runner.
    """

    #: Waiting always points at strictly older work (e.g. MVTO's
    #: timestamp order), so blocking cannot form waits-for cycles and
    #: the runner needs no deadlock resolution (no wound-wait, no
    #: detector).  False for lock-based schemes.
    waits_are_acyclic: bool = False

    #: Engine traces refine the paper's M(X) automata, so the
    #: conformance harness can replay them (Theorem 34 checking).
    model_conformant: bool = True

    #: The scheme's state transitions are fully described by its begin /
    #: granted-access / commit / abort events, so a write-ahead log of
    #: those events (:mod:`repro.wal`) can rebuild it by deterministic
    #: replay -- ``attach_wal`` is capability-gated on this flag.  False
    #: for MVTO: its pending tree buffers and timestamp watermarks are
    #: not reconstructible from the lock-movement vocabulary.
    durable: bool = True


def locking_capabilities(policy) -> SchemeCapabilities:
    """The capabilities of a locking engine running *policy*.

    Lock waits can form cycles, traces conform to M(X) exactly when the
    policy says so, and the write-ahead log can rebuild the lock tables.
    """
    return SchemeCapabilities(
        waits_are_acyclic=False,
        model_conformant=policy.model_conformant,
        durable=True,
    )


@runtime_checkable
class ConcurrencyScheme(Protocol):
    """Structural interface every registered engine implements.

    The handle side (``begin_child``/``perform``/``commit``/``abort``)
    is reached through the :class:`~repro.engine.transaction.Transaction`
    objects returned by :meth:`begin_top`; the methods below are the
    engine-level surface the runners and facades rely on.
    """

    #: Declared capability flags (class or instance attribute).
    capabilities: SchemeCapabilities

    #: Registered scheme name, for reporting and error messages.
    scheme_name: str

    #: Counters for metrics/reporting; every scheme provides at least
    #: ``accesses``/``denials``/``commits``/``aborts``/``deadlocks``.
    stats: Dict[str, int]

    def begin_top(self, at: Optional[float] = None):
        """Start a new top-level transaction; return its handle, whose
        ``age`` (for wound-wait) is *at* or grows with each begin."""

    def transaction(self, name: TransactionName):
        """Look up a live transaction handle by name (a finished tree's
        names are forgotten)."""

    def object_value(self, object_name: str, committed: bool = True) -> Any:
        """Inspect an object's committed (or current) value."""

    def fresh_blockers(
        self, txn, object_name: str, operation: Operation
    ) -> Iterable[TransactionName]:
        """Transactions currently preventing *txn* from this access."""

    def count_deadlock(self) -> None:
        """Record one externally resolved deadlock in the stats."""
