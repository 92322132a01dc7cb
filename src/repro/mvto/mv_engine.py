"""The MVTO engine: a first-class kernel scheme.

A :class:`~repro.engine.engine.TreeEngine`: the transaction tree --
handles, begin, commit, abort, orphan checks, stats and the spine's
Began / Committed / Aborted events -- is the shared controller's.  This
module keeps only what multiversion timestamp ordering adds:

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
(ordered by timestamp), traces do not refine M(X), and the scheme is not
durable.  A timestamp conflict aborts the tree from inside ``perform``;
its pending writes sit only on objects the tree performed on, so the
thread-safe facade wakes those objects' waiters, as after a wound.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set

from repro.core.names import TransactionName
from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.engine import TreeEngine
from repro.engine.spine import Denied, Granted, Tagged, emit
from repro.engine.transaction import Transaction
from repro.errors import EngineError, RetryLater, TransactionAborted
from repro.kernel.scheme import SchemeCapabilities
from repro.kernel.store import ObjectStore
from repro.mvto.mv_object import MVObject


class MVTOEngine(TreeEngine):
    """A nested-transaction engine using multiversion timestamp ordering."""

    #: Waits always point from larger to smaller timestamps, so
    #: waits-for cycles cannot form.
    capabilities = SchemeCapabilities(
        waits_are_acyclic=True,
        model_conformant=False,
        # Pending tree buffers and rts/wts watermarks cannot be rebuilt
        # from the WAL's lock-movement vocabulary, so MVTO opts out of
        # durability (attach_wal refuses; see docs/DURABILITY.md).
        durable=False,
    )

    scheme_name = "mvto"

    def __init__(
        self,
        specs: Iterable[ObjectSpec],
        observer=None,
    ):
        self.store = ObjectStore(specs, MVObject)
        #: The name-to-MVObject mapping (the store's own dict).
        self.objects: Dict[str, MVObject] = self.store.objects
        super().__init__(self.store.specs)
        self._next_ts = 1
        self._tree_ts: Dict[TransactionName, int] = {}
        #: top-level name per live timestamp (for blocker reporting)
        self._ts_owner: Dict[int, TransactionName] = {}
        self.stats["ts_aborts"] = 0
        if observer is not None:
            self.subscribe(observer)

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
        if ts is None:
            ts = self._next_ts
        elif ts in self._ts_owner:
            raise EngineError(
                "timestamp %d is already owned by %r"
                % (ts, self._ts_owner[ts])
            )
        self._next_ts = max(self._next_ts, ts + 1)
        txn = super().begin_top(float(ts) if at is None else at)
        self._tree_ts[txn.name] = ts
        self._ts_owner[ts] = txn.name
        return txn

    def _ts_of(self, txn: Transaction) -> int:
        return self._tree_ts[txn.name[:1]]

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
            if owner is not None and owner != txn.name[:1]:
                owners.add(owner)
        return owners

    # ------------------------------------------------------------------
    # Access, and commit/abort at the version chains
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
            # A granted read is a child of *txn* in the paper's naming,
            # so it claims a slot; it buffers nothing, so no leaf.
            txn._claim_child_slot()
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
            top = txn.name[:1]
            self.stats["ts_aborts"] += 1
            self.note(Tagged, top, "ts-conflict")
            self._abort(self.transactions[top])
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
        node = txn._claim_child_slot()
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

    def _commit_objects(self, txn: Transaction) -> None:
        ts = self._ts_of(txn)
        if txn.is_top_level:
            for mv_object in self.store.values():
                mv_object.commit_tree(ts)
            del self._ts_owner[ts], self._tree_ts[txn.name]
        else:
            for mv_object in self.store.values():
                live_buffer = mv_object.buffers.get(ts)
                if live_buffer is not None:
                    live_buffer.promote(txn.name)

    def _abort_objects(self, txn: Transaction) -> None:
        ts = self._ts_of(txn)
        if txn.is_top_level:
            for mv_object in self.store.values():
                mv_object.abort_tree(ts)
            del self._ts_owner[ts], self._tree_ts[txn.name]
        else:
            for mv_object in self.store.values():
                live_buffer = mv_object.buffers.get(ts)
                if live_buffer is not None:
                    live_buffer.discard_subtree(txn.name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def object_value(self, object_name: str, committed: bool = True) -> Any:
        mv_object = self.store.object(object_name)
        return mv_object.versions[-1].value
