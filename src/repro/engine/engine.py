"""The nested-transaction engines.

:class:`TreeEngine` is the one generic controller, the paper's
scheduler: it owns the transaction tree -- the live trees and their
names, begin, commit, abort, orphan checks, abort escalation and the
top-level log flush -- and is the only code that writes a
transaction's status.  A scheme subclasses it and supplies what its
objects do, the M(X) side: ``_perform``, ``fresh_blockers``,
``object_value``, and the two hooks ``_commit_objects`` and
``_abort_objects``, which pass a commit or abort on to the objects.
The locking :class:`Engine` below and
:class:`~repro.mvto.mv_engine.MVTOEngine` are the two such schemes.

:class:`Engine` is a single-process, non-blocking implementation of
Moss' algorithm over the :mod:`repro.engine.lockmanager` objects.
Accesses are modelled the way the paper models them -- as
instantaneous leaf subtransactions: the leaf acquires the lock,
responds, and commits immediately, passing the lock to its parent.
That keeps the engine's lock tables bit-for-bit equal to the M(X)
automaton state, which the conformance harness exploits.

Concurrency is cooperative: callers (the discrete-event simulator, tests,
or application code) interleave calls on different transaction handles; a
conflicting access raises :class:`~repro.errors.LockDenied` and the caller
retries after the blocker returns.  The engine keeps no waits-for graph:
a driver that parks denied accesses detects deadlocks itself
(:func:`repro.engine.deadlock.find_deadlock`) and reports each one it
resolves through :meth:`TreeEngine.count_deadlock`.

Each transition announces itself once, through the event spine
(:mod:`repro.engine.spine`); the trace recorder, observer, auditor and
write-ahead log subscribe to it.  The engine calls the log directly only
to flush at top-level commit and abort: durability is a protocol step.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

from repro.core.names import TransactionName, pretty_name
from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.lockmanager import LockManager
from repro.engine.locks import LockMode
from repro.engine.policies import LockingPolicy, make_policy
from repro.engine.spine import (
    Aborted,
    Began,
    Committed,
    Deadlocked,
    Denied,
    Granted,
    Spine,
)
from repro.engine.trace import TraceRecorder
from repro.engine.transaction import Transaction, TransactionStatus
from repro.errors import (
    EngineError,
    InvalidTransactionState,
    LockDenied,
    TransactionAborted,
)
from repro.kernel.scheme import SchemeCapabilities, locking_capabilities


class TreeEngine(Spine):
    """The transaction tree every scheme shares.

    A subclass declares ``capabilities`` and ``scheme_name``, builds
    its objects, and implements ``_perform``, ``fresh_blockers``,
    ``object_value``, ``_commit_objects`` and ``_abort_objects``.

    Parameters
    ----------
    specs:
        The object specifications by name (recorded by ``attach_wal``).
    """

    capabilities: SchemeCapabilities
    scheme_name: str

    #: A subtransaction's abort aborts its whole top-level tree.
    escalates_aborts = False

    def __init__(self, specs: Dict[str, ObjectSpec]):
        self.specs = specs
        #: Live trees only: a finished tree's nodes are forgotten.
        self.transactions: Dict[TransactionName, Transaction] = {}
        self._next_top = 0
        self._clock = 0.0
        # The attached write-ahead log (attach_wal).  Its records come
        # through the spine; the engine holds it only to flush at the
        # top-level durability points.
        self.wal = None
        # Group-commit seam: a concurrency facade that holds coarse
        # locks around commit/abort sets `wal_defers` so the top-level
        # flush is only *ticketed* here (``pending_flush`` holds the
        # waiter) and awaited by the facade after its locks release --
        # otherwise concurrent flush waits could never overlap.
        self.wal_defers = False
        self.pending_flush = None
        # Bumped by every abort; lets _check_not_orphan cache clean
        # ancestor walks per handle between aborts.
        self._abort_epoch = 0
        # Counters for metrics/reporting.
        self.stats = {
            "accesses": 0,
            "denials": 0,
            "commits": 0,
            "aborts": 0,
            "deadlocks": 0,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def attach_wal(self, wal=None, sink=None, segment_bytes=None):
        """Subscribe a write-ahead log (:mod:`repro.wal`); returns it.

        With no *wal* given one is built around *sink* (default: an
        in-memory :class:`~repro.wal.log.MemoryWalSink`), reporting its
        ``wal.*`` metrics to the subscribed observer, if any.  The log's
        first segment header records the scheme and object specs, so
        :func:`repro.wal.recover` can rebuild the engine from the log
        alone.  Capability-gated on ``capabilities.durable``, and must
        happen before any transaction begins -- a log that missed
        transitions cannot replay to the engine's state.
        """
        if not self.capabilities.durable:
            raise EngineError(
                "scheme %r is not durable "
                "(capabilities.durable is False)" % self.scheme_name
            )
        if self._next_top:
            raise EngineError(
                "attach_wal must run before any transaction begins"
            )
        if wal is None:
            from repro.obs.observer import Observer
            from repro.wal.log import (
                DEFAULT_SEGMENT_BYTES,
                WriteAheadLog,
            )

            wal = WriteAheadLog(
                sink=sink,
                segment_bytes=(
                    DEFAULT_SEGMENT_BYTES
                    if segment_bytes is None
                    else segment_bytes
                ),
                observer=self.subscriber(Observer),
            )
        wal.open(self.scheme_name, self.specs.values())
        self.wal = wal
        return self.subscribe(wal)

    def begin_top(self, at: Optional[float] = None) -> Transaction:
        """Start a new top-level transaction, of ``age`` *at* or the clock."""
        name = (self._next_top,)
        self._next_top += 1
        age = self._clock + 1.0 if at is None else at
        return self._register(name, None, age)

    def transaction(self, name: TransactionName) -> Transaction:
        """Look up a live transaction handle by name."""
        try:
            return self.transactions[name]
        except KeyError:
            raise EngineError("unknown transaction %r" % (name,)) from None

    # ------------------------------------------------------------------
    # Deadlock accounting (used by the simulator / blocking wrappers)
    # ------------------------------------------------------------------
    def count_deadlock(self) -> None:
        """Record one externally resolved deadlock in the stats.

        Drivers that detect deadlocks themselves (wound-wait, drain
        watchdogs) report them here instead of mutating ``stats``.
        """
        self.stats["deadlocks"] += 1
        self.note(Deadlocked, None)

    # ------------------------------------------------------------------
    # Internal transitions (called through Transaction handles)
    # ------------------------------------------------------------------
    def _register(
        self,
        name: TransactionName,
        parent: Optional[Transaction],
        age: float,
    ) -> Transaction:
        txn = Transaction(self, name, parent, age)
        self.transactions[name] = txn
        if parent is not None:
            parent.children.append(txn)
        self._clock += 1.0
        on = self._on_began
        if on:
            event = Began(name)
            for handler in on:
                handler(event)
        return txn

    def _begin_child(self, parent: Transaction) -> Transaction:
        name = parent._claim_child_slot()
        return self._register(name, parent, parent.age)

    def _check_not_orphan(self, txn: Transaction) -> None:
        # Orphan-hood can only change when an abort happens, so the
        # ancestor walk runs once per (handle, abort epoch) instead of
        # on every perform -- deep chains would otherwise pay O(depth)
        # per access just to re-learn nothing was aborted.
        if txn._orphan_checked_epoch == self._abort_epoch:
            return
        node: Optional[Transaction] = txn
        while node is not None:
            if node.status is TransactionStatus.ABORTED:
                raise TransactionAborted(
                    txn.name,
                    "ancestor %s aborted" % pretty_name(node.name),
                )
            node = node.parent
        txn._orphan_checked_epoch = self._abort_epoch

    def _commit_objects(self, txn: Transaction) -> Optional[Iterable[str]]:
        """Pass *txn*'s commit to the objects; the names whose locks
        moved, or None when nothing moved."""
        raise NotImplementedError

    def _abort_objects(self, txn: Transaction) -> Optional[Iterable[str]]:
        """Discard *txn*'s subtree at the objects; the names whose locks
        moved, or None when the scheme moves no locks."""
        raise NotImplementedError

    def _commit(self, txn: Transaction, value: Any) -> None:
        self._check_not_orphan(txn)
        live = txn.live_children()
        if live:
            raise InvalidTransactionState(
                "%s cannot commit with live children %s"
                % (
                    pretty_name(txn.name),
                    [pretty_name(child.name) for child in live],
                )
            )
        txn.status = TransactionStatus.COMMITTED
        txn.value = value
        self.stats["commits"] += 1
        moved = self._commit_objects(txn)
        on = self._on_committed
        if on:
            event = Committed(
                txn.name, value, None if moved is None else tuple(moved)
            )
            for handler in on:
                handler(event)
        if txn.is_top_level:
            # Top-level commits are the durability points: a crash
            # after the flush returns must preserve this commit.
            self._flush()
            txn._forget_tree(self.transactions)

    def _flush(self) -> None:
        wal = self.wal
        if wal is not None:
            if self.wal_defers:
                self.pending_flush = wal.flush_async()
            else:
                wal.flush()

    def _abort(self, txn: Transaction) -> None:
        if self.escalates_aborts and not txn.is_top_level:
            top = self.transactions[txn.name[:1]]
            if top.is_active:
                self._abort(top)
                return
        self._abort_epoch += 1
        on = self._on_aborted
        doomed: Optional[List[TransactionName]] = [] if on else None
        txn._abort_subtree(doomed)
        self.stats["aborts"] += 1
        moved = self._abort_objects(txn)
        if on:
            # Emitted after any escalation redirect, so the event names
            # the subtree root that actually aborted.
            event = Aborted(
                txn.name,
                tuple(doomed),
                None if moved is None else tuple(moved),
                "explicit",
            )
            for handler in on:
                handler(event)
        if txn.is_top_level:
            self._flush()
            txn._forget_tree(self.transactions)


class Engine(TreeEngine):
    """A nested-transaction database engine: Moss' locking algorithm.

    Lock-based engines can deadlock; the runner resolves via wound-wait
    or detection (``capabilities.waits_are_acyclic`` is False).

    Parameters
    ----------
    specs:
        The object specifications making up the store.
    policy:
        A :class:`~repro.engine.policies.LockingPolicy` or its name
        (``"moss-rw"``, ``"exclusive"``, ``"flat-2pl"``).
    trace:
        When True, subscribe a model-alphabet
        :class:`~repro.engine.trace.TraceRecorder` (:attr:`recorder`);
        only meaningful for lock-moving policies.
    trace_limit:
        Optional bound on the recorded trace: keep only the newest
        *trace_limit* events (ring-buffer mode).
    observer:
        Optional :class:`repro.obs.Observer`, subscribed to the event
        spine.  ``None`` (the default) leaves every transition one
        truthiness test away from building nothing.
    """

    def __init__(
        self,
        specs: Iterable[ObjectSpec],
        policy: Union[str, LockingPolicy] = "moss-rw",
        trace: bool = False,
        trace_limit: Optional[int] = None,
        observer=None,
    ):
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.locks = LockManager(specs, make_managed=policy.make_managed)
        super().__init__(self.locks.store.specs)
        self.policy = policy
        self.escalates_aborts = policy.escalates_aborts
        if trace:
            self.subscribe(TraceRecorder.for_policy(policy, trace_limit))
        if observer is not None:
            self.subscribe(observer)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def capabilities(self) -> SchemeCapabilities:
        """Capability flags for this engine, derived from its policy."""
        return locking_capabilities(self.policy)

    @property
    def scheme_name(self) -> str:
        """The scheme/policy name, for reporting and error messages."""
        return self.policy.name

    @property
    def store(self):
        """The kernel :class:`~repro.kernel.store.ObjectStore`."""
        return self.locks.store

    def object_value(self, object_name: str, committed: bool = True) -> Any:
        """Inspect an object: its committed (or current) value."""
        managed = self.locks.object(object_name)
        return (
            managed.committed_value() if committed else managed.current_value()
        )

    def fresh_blockers(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
    ):
        """The transactions currently preventing *txn* from this access.

        Recomputed from the live lock tables (no cached state), so callers
        can build an always-current waits-for graph.
        """
        managed = self.locks.object(object_name)
        mode = self.policy.mode_for(operation)
        requester = txn.name + (txn._next_child,)
        return managed.blockers(requester, mode, operation=operation)

    # ------------------------------------------------------------------
    # Access, and commit/abort at the lock tables
    # ------------------------------------------------------------------
    def _perform(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
    ) -> Any:
        self._check_not_orphan(txn)
        managed = self.locks.object(object_name)
        mode = self.policy.mode_for(operation)
        access = txn.name + (txn._next_child,)
        blockers = managed.blockers(access, mode, operation=operation)
        if blockers:
            self.stats["denials"] += 1
            on = self._on_denied
            if on:
                event = Denied(txn.name, object_name, blockers)
                for handler in on:
                    handler(event)
            raise LockDenied(
                "%s on %s blocked by %s"
                % (
                    pretty_name(txn.name),
                    object_name,
                    sorted(pretty_name(b) for b in blockers),
                ),
                blockers=blockers,
            )
        # Granted: materialise the access leaf, run it, commit it at once.
        access = txn._claim_child_slot()
        owner = self.policy.owner_for(access)
        self.stats["accesses"] += 1
        result = managed.acquire(access, operation, mode)
        if self.policy.moves_locks:
            managed.on_commit(access)
        elif owner != access:
            # Flat policy: the leaf never held the lock; re-home it.
            managed.rehome(access, owner, mode)
        on = self._on_granted
        if on:
            # After the lock moved: recovery cross-checks the
            # post-movement generation.  The log replays the requested
            # operation, the trace records the policy's classification.
            event = Granted(
                txn.name,
                access,
                object_name,
                operation,
                mode is LockMode.READ,
                result,
                managed.generation,
            )
            for handler in on:
                handler(event)
        return result

    def _commit_objects(self, txn: Transaction):
        if self.policy.moves_locks or txn.is_top_level:
            return self.locks.on_commit(txn.name)
        return None

    def _abort_objects(self, txn: Transaction):
        return self.locks.on_abort(txn.name)
