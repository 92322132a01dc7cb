"""The MVTO engine: a first-class kernel scheme.

Exposes the same handle API as :class:`repro.engine.Engine` (begin_top /
begin_child / perform / commit / abort plus the runner hooks
``fresh_blockers`` / ``stats``), implemented with multiversion timestamp
ordering:

* each top-level tree runs at one timestamp (its admission order);
* reads see the latest committed version at or before their timestamp --
  or their own tree's tentative value -- and *wait*
  (:class:`~repro.errors.RetryLater`) while an earlier-timestamp writer
  is still pending on the object;
* writes abort the tree (``TransactionAborted``) when a later-timestamp
  transaction has already read or written the version they would
  supersede; restarted trees take a fresh, larger timestamp;
* subtransaction commit/abort moves or discards the tree-internal buffer
  entries exactly like Moss' version map, so partial aborts are isolated.

The engine is registered as scheme ``"mvto"`` in
:mod:`repro.kernel.registry` and declares its shape through
:class:`~repro.kernel.scheme.SchemeCapabilities`: waits are acyclic
(ordered by timestamp), no lock movement, traces do not refine M(X), and ``perform`` is *not*
object-local (a timestamp conflict discards the tree's buffers on every
object), which is why the thread-safe facade wakes every waiter when an
MVTO ``perform`` aborts.  Transitions are announced through
the event spine (:mod:`repro.engine.spine`), as the locking engine's are.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set

from repro.core.names import TransactionName, pretty_name
from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.spine import (
    Aborted,
    Began,
    Committed,
    Deadlocked,
    Denied,
    Granted,
    Spine,
    Tagged,
    emit,
)
from repro.engine.transaction import Transaction, TransactionStatus
from repro.errors import (
    EngineError,
    InvalidTransactionState,
    RetryLater,
    TransactionAborted,
)
from repro.kernel.scheme import SchemeCapabilities
from repro.kernel.store import ObjectStore
from repro.mvto.mv_object import MVObject


class MVTOEngine(Spine):
    """A nested-transaction engine using multiversion timestamp ordering."""

    #: Waits always point from larger to smaller timestamps, so
    #: waits-for cycles cannot form; a timestamp conflict aborts the
    #: whole tree across every object from inside ``perform``.
    capabilities = SchemeCapabilities(
        waits_are_acyclic=True,
        moves_locks=False,
        model_conformant=False,
        object_local_performs=False,
        # Pending tree buffers and rts/wts watermarks cannot be rebuilt
        # from the WAL's lock-movement vocabulary, so MVTO opts out of
        # durability (attach_wal refuses; see docs/DURABILITY.md).
        durable=False,
    )

    scheme_name = "mvto"

    def attach_wal(self, wal=None, sink=None, segment_bytes=None):
        """MVTO declares no durability; refuse the attach."""
        raise EngineError(
            "scheme %r is not durable "
            "(capabilities.durable is False)" % self.scheme_name
        )

    def __init__(
        self,
        specs: Iterable[ObjectSpec],
        observer=None,
    ):
        self.store = ObjectStore(specs, MVObject)
        #: The name-to-MVObject mapping (the store's own dict).
        self.objects: Dict[str, MVObject] = self.store.objects
        self.specs: Dict[str, ObjectSpec] = self.store.specs
        self.transactions: Dict[TransactionName, Transaction] = {}
        self._next_top = 0
        self._next_ts = 1
        self._tree_ts: Dict[TransactionName, int] = {}
        #: top-level name per live timestamp (for blocker reporting)
        self._ts_owner: Dict[int, TransactionName] = {}
        self.stats = {
            "accesses": 0,
            "denials": 0,
            "commits": 0,
            "aborts": 0,
            "deadlocks": 0,
            "ts_aborts": 0,
        }
        if observer is not None:
            self.subscribe(observer)

    # ------------------------------------------------------------------
    # Handles (same protocol as repro.engine.Engine)
    # ------------------------------------------------------------------
    def begin_top(
        self, at: Optional[float] = None, ts: Optional[int] = None
    ) -> Transaction:
        """Begin a top-level tree; optional *ts* pins its timestamp.

        By default timestamps are assigned in local admission order.
        A caller that spans several engines (the sharded coordinator)
        passes an explicit *ts* instead, so every engine serializes
        the same tree at the same position -- the cross-engine orders
        then compose into one order.  Pinned timestamps must be fresh
        and, like the default, are consumed monotonically.  ``age`` is
        *at* or the timestamp.
        """
        if ts is not None:
            if ts in self._ts_owner:
                raise EngineError(
                    "timestamp %d is already owned by %r"
                    % (ts, self._ts_owner[ts])
                )
            self._next_ts = max(self._next_ts, ts + 1)
        name = (self._next_top,)
        self._next_top += 1
        if ts is None:
            ts = self._next_ts
            self._next_ts += 1
        txn = Transaction(self, name, None, float(ts) if at is None else at)
        self.transactions[name] = txn
        self._tree_ts[name] = ts
        self._ts_owner[ts] = name
        on = self._on_began
        if on:
            emit(on, Began(name))
        return txn

    def _begin_child(self, parent: Transaction) -> Transaction:
        name = parent._claim_child_slot()
        txn = Transaction(self, name, parent, parent.age)
        self.transactions[name] = txn
        parent.children.append(txn)
        on = self._on_began
        if on:
            emit(on, Began(name))
        return txn

    def count_deadlock(self) -> None:
        """Record one externally resolved deadlock in the stats."""
        self.stats["deadlocks"] += 1
        self.note(Deadlocked, None)

    def transaction(self, name: TransactionName) -> Transaction:
        """Look up a live transaction handle by name."""
        try:
            return self.transactions[name]
        except KeyError:
            raise EngineError("unknown transaction %r" % (name,)) from None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _top_of(self, txn: Transaction) -> TransactionName:
        return txn.name[:1]

    def _ts_of(self, txn: Transaction) -> int:
        return self._tree_ts[self._top_of(txn)]

    def _check_not_orphan(self, txn: Transaction) -> None:
        node: Optional[Transaction] = txn
        while node is not None:
            if node.status is TransactionStatus.ABORTED:
                raise TransactionAborted(
                    txn.name,
                    "ancestor %s aborted" % pretty_name(node.name),
                )
            node = node.parent

    def fresh_blockers(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
    ) -> Set[TransactionName]:
        """Pending earlier writers this access would have to wait for."""
        mv_object = self.store.object(object_name)
        ts = self._ts_of(txn)
        owners = set()
        for wts in mv_object.earlier_pending_writers(ts):
            owner = self._ts_owner.get(wts)
            if owner is not None and owner != self._top_of(txn):
                owners.add(owner)
        return owners

    # ------------------------------------------------------------------
    # Access / commit / abort (called via Transaction handles)
    # ------------------------------------------------------------------
    def _perform(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
    ) -> Any:
        self._check_not_orphan(txn)
        mv_object = self.store.object(object_name)
        ts = self._ts_of(txn)
        top = self._top_of(txn)
        buffer = mv_object.buffers.get(ts)
        own_dirty = buffer is not None and buffer.dirty()
        if not own_dirty:
            # Wait for pending earlier writers before touching committed
            # state (both reads and writes keep timestamp order this way).
            blockers = self.fresh_blockers(txn, object_name, operation)
            if blockers:
                self.stats["denials"] += 1
                on = self._on_denied
                if on:
                    emit(on, Denied(txn.name, object_name, blockers))
                raise RetryLater(
                    "mvto: ts=%d waits on %s at %s"
                    % (ts, sorted(blockers), object_name),
                    blockers=blockers,
                    # Ordered waits clear as soon as the earlier-ts
                    # writers finish; a nominal 1ms hint tells remote
                    # callers "poll soon" without pretending the engine
                    # can predict the blockers' remaining runtime.
                    retry_after_ms=1,
                )
        version = mv_object.version_before(ts)
        if operation.is_read:
            self.stats["accesses"] += 1
            if own_dirty:
                base = buffer.current()
                result, _ = mv_object.spec.apply(base, operation)
            else:
                version.rts = max(version.rts, ts)
                result, _ = mv_object.spec.apply(version.value, operation)
            on = self._on_granted
            if on:  # a read materialises no leaf; there is no lock table
                emit(on, Granted(
                    txn.name, None, object_name, operation, True, result,
                    None,
                ))
            return result
        # Write path: timestamp-order checks against the committed chain.
        if not own_dirty and (
            mv_object.later_committed_write(ts) or version.rts > ts
        ):
            self.stats["ts_aborts"] += 1
            self.note(Tagged, top, "ts-conflict")
            self._abort_tree(top)
            raise TransactionAborted(
                txn.name, "timestamp conflict at %s" % object_name
            )
        self.stats["accesses"] += 1
        # A write is a read-modify-write of the base version (the spec
        # applies the operation to its value), so it must leave a read
        # footprint: an earlier-timestamp writer arriving afterwards
        # has to trip the ``version.rts > ts`` check above and restart,
        # or it would install a version this write's base never saw --
        # the classic lost update.
        version.rts = max(version.rts, ts)
        live_buffer = mv_object.buffer_for(ts, version.value)
        base = live_buffer.current()
        result, new_value = mv_object.spec.apply(base, operation)
        node = txn.name + (txn._next_child,)
        txn._claim_child_slot()
        live_buffer.install(node, new_value)
        # A freshly-written node buffer must merge into the writing
        # transaction immediately (the access "subtransaction" commits at
        # once, as in the locking engine).
        live_buffer.promote(node)
        mv_object.pending_writers.add(ts)
        on = self._on_granted
        if on:
            emit(on, Granted(
                txn.name, node, object_name, operation, False, result, None
            ))
        return result

    def _commit(self, txn: Transaction, value: Any) -> None:
        self._check_not_orphan(txn)
        live = txn.live_children()
        if live:
            raise InvalidTransactionState(
                "%s cannot commit with live children" % pretty_name(txn.name)
            )
        txn.status = TransactionStatus.COMMITTED
        txn.value = value
        self.stats["commits"] += 1
        on = self._on_committed
        if on:
            emit(on, Committed(txn.name, value, None))
        ts = self._ts_of(txn)
        if txn.is_top_level:
            for mv_object in self.store.values():
                mv_object.commit_tree(ts)
            self._ts_owner.pop(ts, None)
            txn._forget_tree(self.transactions)
            del self._tree_ts[txn.name]
        else:
            for mv_object in self.store.values():
                live_buffer = mv_object.buffers.get(ts)
                if live_buffer is not None:
                    live_buffer.promote(txn.name)

    def _abort(self, txn: Transaction) -> None:
        if txn.is_top_level:
            self._abort_tree(txn.name)
            return
        ts = self._ts_of(txn)
        self._mark_aborted(txn)
        self.stats["aborts"] += 1
        for mv_object in self.store.values():
            live_buffer = mv_object.buffers.get(ts)
            if live_buffer is not None:
                live_buffer.discard_subtree(txn.name)

    def _abort_tree(self, top: TransactionName) -> None:
        txn = self.transactions[top]
        self._mark_aborted(txn)
        self.stats["aborts"] += 1
        ts = self._tree_ts.pop(top)
        for mv_object in self.store.values():
            mv_object.abort_tree(ts)
        self._ts_owner.pop(ts, None)
        txn._forget_tree(self.transactions)

    def _mark_aborted(self, txn: Transaction) -> None:
        """Abort *txn*'s active subtree and announce it."""
        on = self._on_aborted
        doomed: Optional[List[TransactionName]] = [] if on else None
        txn._abort_subtree(doomed)
        if on:
            emit(on, Aborted(txn.name, tuple(doomed), None, "explicit"))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def object_value(self, object_name: str, committed: bool = True) -> Any:
        mv_object = self.store.object(object_name)
        return mv_object.versions[-1].value
